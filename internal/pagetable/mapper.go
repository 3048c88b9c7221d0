package pagetable

import (
	"repro/internal/arch"
)

// Mapper accelerates repeated Map calls over nearby addresses by caching
// the leaf table of the most recently populated 2 MiB span — the write-side
// counterpart of Reader. Cold-fault choreography (demand-zero population,
// fork COW setup, shadow/EPT fix paths) installs long runs of PTEs in
// ascending VA order; without the cache every installation repeats the same
// three upper-level descents.
//
// A Mapper is observationally identical to calling PageTable.Map directly:
// it performs the same allocator calls, fires the same OnWrite events in
// the same order, and updates Maps/PTEWrites/Tables stats identically. The
// fast path applies only when the span's leaf table is already cached — in
// which case a direct Map would have found every intermediate level Present
// and written nothing above the leaf — so the observable WriteEvent
// sequence of N Mapper.Map calls equals that of N scalar PageTable.Map
// calls for any interleaving of hits and misses.
//
// Safety: identical to Reader's argument. Leaf tables are stable (Unmap
// retains intermediate tables, MapLarge refuses to replace a 4K leaf
// table, frames are only released by Destroy); absent spans are never
// cached, so a table created after a miss is found by the next descent.
// Canonicality needs no per-call check on the fast path: spans are 2 MiB
// aligned and the non-canonical hole is aligned far coarser, so a span
// containing one canonical address is canonical throughout.
//
// Mappers are single-goroutine values; they must not be shared and must
// not outlive their PageTable's Destroy.
type Mapper struct {
	pt   *PageTable
	base arch.VA // page-aligned start of the cached span
	t    *table  // leaf table covering [base, base+LargePageSpan), or nil
}

// NewMapper returns a Mapper over pt with an empty span cache.
func (pt *PageTable) NewMapper() Mapper { return Mapper{pt: pt} }

// Reset drops the cached span (e.g. after the table is destroyed and the
// Mapper's owner is reused).
func (m *Mapper) Reset() { m.t = nil; m.base = 0 }

// Map is PageTable.Map through the span cache: va → pfn with the given
// flags, returning the number of PTE stores performed.
func (m *Mapper) Map(va arch.VA, pfn arch.PFN, flags Flags) (writes int, err error) {
	if m.t != nil && va-m.base < LargePageSpan {
		// Cached span: every upper level is Present and non-Large, so a
		// direct Map would perform exactly this leaf store.
		pt := m.pt
		pt.write(1, va, true, m.t, va.Index(1), Entry{PFN: pfn, Flags: flags | Present})
		pt.stats.Maps++
		return 1, nil
	}
	writes, err = m.pt.Map(va, pfn, flags)
	if err == nil && !cursorBypass {
		if t, _, ok := m.pt.leaf(va); ok {
			m.t = t
			m.base = va &^ (LargePageSpan - 1)
		}
	}
	return writes, err
}

// Protect is PageTable.Protect through the span cache: it replaces the leaf
// flags for va (keeping the PFN), reporting whether the mapping existed.
func (m *Mapper) Protect(va arch.VA, flags Flags) bool {
	if m.t != nil && va-m.base < LargePageSpan {
		pt := m.pt
		idx := va.Index(1)
		e := m.t.entries[idx].entry()
		if !e.Flags.Has(Present) {
			return false
		}
		e.Flags = flags | Present
		pt.write(1, va, true, m.t, idx, e)
		pt.stats.Protects++
		return true
	}
	ok := m.pt.Protect(va, flags)
	if ok && !cursorBypass {
		if t, _, leafOK := m.pt.leaf(va); leafOK {
			m.t = t
			m.base = va &^ (LargePageSpan - 1)
		}
	}
	return ok
}

// Unmap is PageTable.Unmap through the span cache: it clears the leaf entry
// for va, reporting whether a mapping existed. Like Protect, a hit in the
// cached span performs exactly the leaf store a direct Unmap would (the
// intermediate levels are Present and survive scalar Unmap untouched).
func (m *Mapper) Unmap(va arch.VA) bool {
	if m.t != nil && va-m.base < LargePageSpan {
		pt := m.pt
		idx := va.Index(1)
		if !m.t.entries[idx].flags().Has(Present) {
			return false
		}
		pt.write(1, va, true, m.t, idx, Entry{})
		pt.stats.Unmaps++
		return true
	}
	ok := m.pt.Unmap(va)
	if ok && !cursorBypass {
		if t, _, leafOK := m.pt.leaf(va); leafOK {
			m.t = t
			m.base = va &^ (LargePageSpan - 1)
		}
	}
	return ok
}

// Lookup is PageTable.Lookup through the span cache.
func (m *Mapper) Lookup(va arch.VA) (Entry, bool) {
	if m.t != nil && va-m.base < LargePageSpan {
		e := m.t.entries[va.Index(1)].entry()
		if !e.Flags.Has(Present) {
			return Entry{}, false
		}
		return e, true
	}
	t, idx, ok := m.pt.leaf(va)
	if !ok {
		return Entry{}, false
	}
	if !cursorBypass {
		m.t = t
		m.base = va &^ (LargePageSpan - 1)
	}
	e := t.entries[idx].entry()
	if !e.Flags.Has(Present) {
		return Entry{}, false
	}
	return e, true
}
