package pagetable

import (
	"repro/internal/arch"
)

// Reader accelerates repeated Lookup/Walk calls over nearby addresses by
// caching the leaf table of the most recently resolved 2 MiB span. The
// ranged access paths in the backends resolve thousands of consecutive
// pages per call; without the cache every page repeats the same three
// upper-level descents.
//
// A Reader is observationally identical to calling the PageTable methods
// directly: Walk through a Reader performs the same permission checks,
// sets the same Accessed/Dirty bits, updates Walks/Faults stats
// identically, and returns bit-identical Entry/levels/Fault values.
//
// Safety: leaf tables are stable. Map, Unmap, and Protect mutate leaf
// entries in place; Unmap retains intermediate tables (as real kernels
// do), and a 2 MiB mapping can never replace an existing 4K leaf table
// (MapLarge refuses, demanding a split). Table frames are only released
// by Destroy, at teardown. Absent spans are never cached, so a table
// created after a miss is found by the next descent. A Reader is
// therefore coherent across arbitrary interleaved mutations of its
// PageTable — it must simply not outlive Destroy.
//
// Readers are single-goroutine values (typically stack-allocated per
// ranged call); they must not be shared.
type Reader struct {
	pt   *PageTable
	base arch.VA // page-aligned start of the cached span
	t    *table  // leaf table covering [base, base+LargePageSpan), or nil
}

// NewReader returns a Reader over pt with an empty span cache.
func (pt *PageTable) NewReader() Reader { return Reader{pt: pt} }

// span returns the cached leaf table for va, descending and caching on a
// span change. ok is false when no 4K leaf table covers va (absent or
// huge mapping) — never cached, so the next call re-descends.
func (r *Reader) span(va arch.VA) (*table, bool) {
	if r.t != nil && va-r.base < LargePageSpan {
		return r.t, true
	}
	t, _, ok := r.pt.leaf(va)
	if !ok {
		return nil, false
	}
	if !cursorBypass {
		r.t = t
		r.base = va &^ (LargePageSpan - 1)
	}
	return t, true
}

// Lookup is PageTable.Lookup through the span cache.
func (r *Reader) Lookup(va arch.VA) (Entry, bool) {
	t, ok := r.span(va)
	if !ok {
		return Entry{}, false
	}
	e := t.entries[va.Index(1)].entry()
	if !e.Flags.Has(Present) {
		return Entry{}, false
	}
	return e, true
}

// Walk is PageTable.Walk through the span cache. When the span is cached
// the three upper-level probes are skipped; everything observable — stats,
// A/D updates, Entry/levels/Fault results — matches a direct Walk exactly.
func (r *Reader) Walk(va arch.VA, write, user bool) (Entry, int, *Fault) {
	pt := r.pt
	if r.t == nil || va-r.base >= LargePageSpan {
		e, levels, fault := pt.Walk(va, write, user)
		// Cache the leaf table when one covers va (also after leaf-level
		// faults: the table exists even when the entry faults).
		if t, _, ok := pt.leaf(va); ok && !cursorBypass {
			r.t = t
			r.base = va &^ (LargePageSpan - 1)
		}
		return e, levels, fault
	}
	// Cached span: va is canonical (within a canonical 2 MiB region) and
	// the three upper levels are present and non-Large, so only the leaf
	// checks of PageTable.Walk remain.
	pt.stats.Walks++
	idx := va.Index(1)
	e := r.t.entries[idx].entry()
	switch {
	case !e.Flags.Has(Present):
		pt.stats.Faults++
		return Entry{}, arch.PTLevels, &Fault{Kind: FaultNotPresent, Level: 1, VA: va, Write: write, User: user}
	case user && !e.Flags.Has(User):
		pt.stats.Faults++
		return Entry{}, arch.PTLevels, &Fault{Kind: FaultPrivilege, VA: va, Write: write, User: user}
	case write && !e.Flags.Has(Writable):
		pt.stats.Faults++
		return Entry{}, arch.PTLevels, &Fault{Kind: FaultProtection, VA: va, Write: write, User: user}
	}
	// Set A/D bits silently (hardware A/D assists do not trap).
	e.Flags |= Accessed
	if write {
		e.Flags |= Dirty
	}
	r.t.entries[idx] = packPTE(e)
	return e, arch.PTLevels, nil
}
