package pagetable

import (
	"repro/internal/arch"
)

// This file holds the dirty-logging structural primitive: WriteProtectLeaves,
// the bulk write-protect sweep that arms the shadow-paging dirty-log lane.
// It reuses the parent-side COW protect store of Clone (lifecycle.go) — an
// in-place masked store through pt.write, firing OnWrite when hooked and
// accruing Protects/PTEWrites exactly as a per-leaf Protect loop would — but
// walks whole tables instead of descending from the root once per leaf.

// WriteProtectLeaves strips Writable from every present writable leaf (4 KiB
// and 2 MiB Large alike) for which match returns true, in ascending VA order.
// All other flag bits — in particular Accessed and Dirty — survive, as they
// do in Clone's COW protect. It returns the number of leaves protected: the
// per-leaf unit the dirty-log arming sweep charges for.
//
// Hypervisors arm dirty logging with it on the table the hardware actually
// walks (the shadow or validated machine table), passing a match that skips
// Global and kernel-half leaves — those are hypervisor state (the switcher),
// not logged guest memory.
func (pt *PageTable) WriteProtectLeaves(match func(va arch.VA, e Entry) bool) int {
	return pt.protectFrom(pt.top, arch.PTLevels, 0, match)
}

func (pt *PageTable) protectFrom(t *table, level int, base arch.VA, match func(arch.VA, Entry) bool) int {
	span := arch.VA(1) << (arch.PageShift + arch.IndexBits*(level-1))
	n := 0
	for i := 0; i < arch.EntriesPerTable; i++ {
		e := t.entries[i].entry()
		if !e.Flags.Has(Present) {
			continue
		}
		va := base + arch.VA(i)*span
		if level == 1 || e.Flags.Has(Large) {
			if !e.Flags.Has(Writable) || !match(va, e) {
				continue
			}
			ne := e
			ne.Flags &^= Writable
			pt.write(level, va, true, t, i, ne)
			pt.stats.Protects++
			n++
			continue
		}
		n += pt.protectFrom(t.child[i], level-1, va, match)
	}
	return n
}

// ScanClearDirty reports every present leaf carrying the Dirty bit, in
// ascending VA order, and clears the bit in place. The stores are silent —
// no OnWrite, no stats — exactly like Walk's hardware A/D assists in the
// other direction: this models the hypervisor harvesting hardware-maintained
// dirty bits, which no layer observes as a guest PTE store. It is the
// per-page reference oracle the dirty-log equivalence grid compares the
// logging lanes against on configurations whose guest tables have
// hardware-maintained A/D bits (ept, eptnested).
func (pt *PageTable) ScanClearDirty(fn func(va arch.VA)) {
	pt.scanClearFrom(pt.top, arch.PTLevels, 0, fn)
}

func (pt *PageTable) scanClearFrom(t *table, level int, base arch.VA, fn func(arch.VA)) {
	span := arch.VA(1) << (arch.PageShift + arch.IndexBits*(level-1))
	for i := 0; i < arch.EntriesPerTable; i++ {
		e := t.entries[i].entry()
		if !e.Flags.Has(Present) {
			continue
		}
		va := base + arch.VA(i)*span
		if level == 1 || e.Flags.Has(Large) {
			if e.Flags.Has(Dirty) {
				t.entries[i] &^= pte(Dirty)
				fn(va)
			}
			continue
		}
		pt.scanClearFrom(t.child[i], level-1, va, fn)
	}
}
