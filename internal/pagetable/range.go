package pagetable

import (
	"sync"

	"repro/internal/arch"
)

// This file holds the ranged VMA-mutation primitives: UnmapRange and
// ProtectRange, the structural counterparts of per-page Unmap/Protect
// loops, plus the batched dirty-log arming sweep. The per-page reference
// lanes descend from the root once per page; these walk the radix tree
// once, visiting each leaf table overlapping the range a single time, and
// hand the caller per-leaf-table runs of present pages. Every entry store
// still goes through pt.write — same OnWrite events, same stats movement —
// so a ranged mutation is observationally identical to the per-page loop
// it replaces; only the host-side walk work is batched (the mmu_gather
// discipline production kernels use for exactly these storms).

// LargePolicy selects how ranged mutations treat 2 MiB Large leaves
// overlapping the range.
type LargePolicy uint8

const (
	// SkipLarge leaves Large leaves untouched. This is the guest-kernel
	// policy: the per-page reference lanes resolve pages through leaf(),
	// which does not see Large leaves, so the ranged walk must not either.
	SkipLarge LargePolicy = iota

	// SplitLarge materializes a 4K leaf table for any Large leaf
	// overlapping the range — fully or partially covered alike — and then
	// treats its in-range 4 KiB leaves like any others. The split follows
	// the kernel's PMD-split discipline: the new table's 512 leaves are
	// initialized before the level-2 store that publishes the table, so
	// only that one store is architecturally visible.
	SplitLarge
)

// rangeBufs is the pooled scratch state of one ranged mutation: one leaf
// table's worth of collected run entries. Pooled like lifecycle.go's
// teardown buffers so mutation storms allocate nothing in steady state.
type rangeBufs struct {
	vas  [arch.EntriesPerTable]arch.VA
	pfns [arch.EntriesPerTable]arch.PFN
	ents [arch.EntriesPerTable]Entry
	idxs [arch.EntriesPerTable]int
}

var rangePool = sync.Pool{New: func() any { return new(rangeBufs) }}

// UnmapRange walks the leaf tables covering [base, base+pages·4K) once, in
// ascending VA order, collecting each table's present 4 KiB leaves into a
// run and invoking fn once per non-empty run with the run's page addresses
// and frame numbers. Calling clear(i) stores the empty entry for vas[i]
// through pt.write — firing OnWrite and counting one Unmap exactly as a
// scalar Unmap call would — so the caller interleaves its own per-page
// work (charges, trap choreography, frame release) with the clears in
// reference order. Entries fn does not clear stay mapped. Large leaves
// follow policy. A non-nil error from fn (or a split allocation failure)
// stops the walk with already-cleared entries left cleared, mirroring the
// per-page loop's partial-progress semantics.
func (pt *PageTable) UnmapRange(base arch.VA, pages int, policy LargePolicy, fn func(vas []arch.VA, pfns []arch.PFN, clear func(i int)) error) error {
	if pages <= 0 {
		return nil
	}
	bufs := rangePool.Get().(*rangeBufs)
	defer rangePool.Put(bufs)
	lo := base.PageDown()
	hi := lo + arch.VA(pages)*arch.PageSize
	return pt.mutateFrom(pt.top, arch.PTLevels, 0, lo, hi, policy,
		func(t *table, tblBase arch.VA, first, last int) error {
			vas, pfns, idxs := bufs.vas[:0], bufs.pfns[:0], bufs.idxs[:0]
			for i := first; i <= last; i++ {
				e := t.entries[i].entry()
				if !e.Flags.Has(Present) {
					continue
				}
				vas = append(vas, tblBase+arch.VA(i)*arch.PageSize)
				pfns = append(pfns, e.PFN)
				idxs = append(idxs, i)
			}
			if len(vas) == 0 {
				return nil
			}
			clear := func(i int) {
				pt.write(1, vas[i], true, t, idxs[i], Entry{})
				pt.stats.Unmaps++
			}
			return fn(vas, pfns, clear)
		})
}

// ProtectRange is UnmapRange's permission-change counterpart: one walk over
// the leaf tables covering [base, base+pages·4K), one fn call per non-empty
// run of present leaves, with the current entries exposed so the caller can
// apply its skip policy per page. Calling protect(i, flags) replaces
// vas[i]'s leaf flags (keeping the PFN) through pt.write — the same store,
// OnWrite event, and Protects count as a scalar Protect call.
func (pt *PageTable) ProtectRange(base arch.VA, pages int, policy LargePolicy, fn func(vas []arch.VA, ents []Entry, protect func(i int, flags Flags)) error) error {
	if pages <= 0 {
		return nil
	}
	bufs := rangePool.Get().(*rangeBufs)
	defer rangePool.Put(bufs)
	lo := base.PageDown()
	hi := lo + arch.VA(pages)*arch.PageSize
	return pt.mutateFrom(pt.top, arch.PTLevels, 0, lo, hi, policy,
		func(t *table, tblBase arch.VA, first, last int) error {
			vas, ents, idxs := bufs.vas[:0], bufs.ents[:0], bufs.idxs[:0]
			for i := first; i <= last; i++ {
				e := t.entries[i].entry()
				if !e.Flags.Has(Present) {
					continue
				}
				vas = append(vas, tblBase+arch.VA(i)*arch.PageSize)
				ents = append(ents, e)
				idxs = append(idxs, i)
			}
			if len(vas) == 0 {
				return nil
			}
			protect := func(i int, flags Flags) {
				e := t.entries[idxs[i]].entry()
				e.Flags = flags | Present
				pt.write(1, vas[i], true, t, idxs[i], e)
				pt.stats.Protects++
			}
			return fn(vas, ents, protect)
		})
}

// mutateFrom recurses over the tables overlapping [lo, hi), clamping the
// index window at every level so each touched table is visited exactly
// once. At level 1 it hands the table (with its in-range window) to visit;
// Large leaves at level 2 are skipped or split per policy.
func (pt *PageTable) mutateFrom(t *table, level int, tblBase, lo, hi arch.VA, policy LargePolicy, visit func(t *table, tblBase arch.VA, first, last int) error) error {
	span := arch.VA(1) << (arch.PageShift + arch.IndexBits*(level-1))
	first, last := 0, arch.EntriesPerTable-1
	if lo > tblBase {
		first = int((lo - tblBase) / span)
	}
	if end := tblBase + arch.VA(arch.EntriesPerTable)*span; hi < end {
		last = int((hi - 1 - tblBase) / span)
	}
	if level == 1 {
		return visit(t, tblBase, first, last)
	}
	for i := first; i <= last; i++ {
		f := t.entries[i].flags()
		if !f.Has(Present) {
			continue
		}
		base := tblBase + arch.VA(i)*span
		if level == 2 && f.Has(Large) {
			if policy == SkipLarge {
				continue
			}
			child, err := pt.splitLarge(t, i, base)
			if err != nil {
				return err
			}
			if err := pt.mutateFrom(child, 1, base, lo, hi, policy, visit); err != nil {
				return err
			}
			continue
		}
		if err := pt.mutateFrom(t.child[i], level-1, base, lo, hi, policy, visit); err != nil {
			return err
		}
	}
	return nil
}

// splitLarge replaces the Large leaf at t.entries[idx] (level 2, covering
// [base, base+LargePageSpan)) with a 4K leaf table mapping the same
// 512-frame block. The 512 leaves inherit the Large leaf's flags (A/D
// included) and are initialized silently; the one observable store is the
// level-2 entry publishing the table (fires OnWrite, counts one PTEWrite),
// matching how a real PMD split orders its stores.
func (pt *PageTable) splitLarge(t *table, idx int, base arch.VA) (*table, error) {
	e := t.entries[idx].entry()
	sub, err := pt.alloc.Alloc()
	if err != nil {
		return nil, err
	}
	child := newTable(1)
	pt.stats.Tables++
	lf := e.Flags &^ Large
	for j := 0; j < arch.EntriesPerTable; j++ {
		child.entries[j] = packPTE(Entry{PFN: e.PFN + arch.PFN(j), Flags: lf})
	}
	pt.link(2, base, t, idx, child, sub)
	return child, nil
}

// WriteProtectLeavesBulk is WriteProtectLeaves as one batched subtree pass
// (the ProtectRange family applied to the dirty-log arming sweep): the same
// leaves are stripped of Writable in the same ascending VA order, the same
// count is returned, and Protects/PTEWrites accrue identically — but the
// stores go straight to the table arrays with the stats folded in once at
// the end. It requires an unhooked table (the shadow and machine tables the
// dirty-log lanes sweep never carry OnWrite); a hooked table falls back to
// the per-leaf reference sweep so no write event is ever lost.
func (pt *PageTable) WriteProtectLeavesBulk(match func(va arch.VA, e Entry) bool) int {
	if pt.OnWrite != nil {
		return pt.WriteProtectLeaves(match)
	}
	n := pt.bulkProtectFrom(pt.top, arch.PTLevels, 0, match)
	pt.stats.Protects += int64(n)
	pt.stats.PTEWrites += int64(n)
	return n
}

func (pt *PageTable) bulkProtectFrom(t *table, level int, base arch.VA, match func(arch.VA, Entry) bool) int {
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
			t.entries[i] &^= pte(Writable)
			n++
			continue
		}
		n += pt.bulkProtectFrom(t.child[i], level-1, va, match)
	}
	return n
}
