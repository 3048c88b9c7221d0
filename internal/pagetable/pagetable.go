// Package pagetable implements the simulator's 4-level radix page tables.
//
// The same structure backs every table in the stack: L2 guest page tables
// (GPT2), L1 page tables (GPT1), shadow page tables (SPT12), and extended
// page tables (EPT01/EPT12/EPT02). Tables are built from frames drawn from a
// mem.Allocator, walks perform real radix traversals, and every page-table-
// entry store can be observed through the OnWrite hook — which is how the
// virtualization layers above model write-protected guest page tables (each
// store traps to the hypervisor, the mechanism at the heart of shadow
// paging's world-switch arithmetic).
package pagetable

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/arch"
	"repro/internal/mem"
)

// Flags are PTE permission/status bits.
type Flags uint16

const (
	Present Flags = 1 << iota
	Writable
	User
	Global
	Accessed
	Dirty
	NoExec
	// Large marks a 2 MiB leaf installed at level 2 (a huge page).
	Large
)

// LargePageSpan is the VA span of a level-2 (2 MiB) leaf.
const LargePageSpan = arch.EntriesPerTable * arch.PageSize

// Has reports whether all bits in q are set.
func (f Flags) Has(q Flags) bool { return f&q == q }

func (f Flags) String() string {
	s := ""
	add := func(b Flags, r string) {
		if f.Has(b) {
			s += r
		} else {
			s += "-"
		}
	}
	add(Present, "P")
	add(Writable, "W")
	add(User, "U")
	add(Global, "G")
	add(Accessed, "A")
	add(Dirty, "D")
	add(NoExec, "X")
	return s
}

// Entry is one page-table entry: a frame number plus flags. For non-leaf
// entries the PFN names the next-level table frame.
type Entry struct {
	PFN   arch.PFN
	Flags Flags
}

// WriteEvent describes one PTE store performed against the table.
type WriteEvent struct {
	Level int     // 1 = leaf PTE, up to arch.PTLevels = root
	VA    arch.VA // address being mapped/modified
	Leaf  bool    // store to the final translation entry
	Entry Entry   // new contents
}

// FaultKind classifies a failed walk.
type FaultKind uint8

const (
	FaultNone       FaultKind = iota
	FaultNotPresent           // entry absent at Fault.Level
	FaultProtection           // write to a read-only page
	FaultPrivilege            // user access to a supervisor page
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultNotPresent:
		return "not-present"
	case FaultProtection:
		return "protection"
	case FaultPrivilege:
		return "privilege"
	}
	return fmt.Sprintf("fault(%d)", uint8(k))
}

// Fault describes a failed walk.
type Fault struct {
	Kind  FaultKind
	Level int // level at which the walk failed (0 for leaf permission faults)
	VA    arch.VA
	Write bool
	User  bool
}

func (f *Fault) Error() string {
	return fmt.Sprintf("pagetable: %s fault at %#x (level %d, write=%v, user=%v)",
		f.Kind, f.VA, f.Level, f.Write, f.User)
}

// Stats counts table activity.
type Stats struct {
	Maps      int64
	Unmaps    int64
	Protects  int64
	Walks     int64
	Faults    int64
	PTEWrites int64
	Tables    int64 // live table frames, including the root
}

// pte is an Entry as a table stores it: PFN<<16 | Flags. Packing halves a
// table's entry array to 4 KiB (see table for what that buys).
type pte uint64

// pfnBits bounds a packable PFN: 64 bits less the 16 flag bits.
const pfnBits = 64 - 16

// packPTE packs e, panicking rather than aliasing a PFN beyond 48 bits.
func packPTE(e Entry) pte {
	if e.PFN >= 1<<pfnBits {
		panic("pagetable: PFN out of packable range")
	}
	return pte(e.PFN)<<16 | pte(e.Flags)
}

// entry unpacks p.
func (p pte) entry() Entry { return Entry{PFN: arch.PFN(p >> 16), Flags: Flags(p)} }

// flags returns p's flag bits without unpacking the PFN.
func (p pte) flags() Flags { return Flags(p) }

// children links an upper-level table's next-level tables by index.
type children [arch.EntriesPerTable]*table

// table is one radix table. Upper-level tables (levels 2..PTLevels) carry
// child links: child[i] is the table entries[i] names exactly when that
// entry is Present and not Large, so a walk descends by pointer load. Leaf
// tables (level 1) have no child array. Both the table and the child array
// take one 4864-byte slot (Go adds an 8-byte type header to pointerful
// objects), inside the 8 KiB size class a table of unpacked entries filled;
// a link in such a table would have pushed it to the next class.
type table struct {
	child   *children // nil on leaf tables; first, so the GC scans one word
	entries [arch.EntriesPerTable]pte
}

// leafPool and upperPool recycle leaf tables and upper-level tables (each
// with its child array attached) across page tables and engines.
// Fork/exit-heavy workloads churn thousands of tables; recycling them
// removes the dominant allocation (and GC pressure) of the simulator's
// memory hot path. Tables are zeroed when returned, so a pooled table is
// indistinguishable from a fresh one and determinism is unaffected.
var (
	leafPool  = sync.Pool{New: func() any { return new(table) }}
	upperPool = sync.Pool{New: func() any { return &table{child: new(children)} }}
)

// newTable returns an empty table for the given level, with a child array
// when it is an upper-level table.
func newTable(level int) *table {
	if level > 1 {
		return upperPool.Get().(*table)
	}
	return leafPool.Get().(*table)
}

func putTable(t *table) {
	t.entries = [arch.EntriesPerTable]pte{}
	if t.child != nil {
		*t.child = children{}
		upperPool.Put(t)
		return
	}
	leafPool.Put(t)
}

// link stores a table entry at upper-level slot idx naming sub (frame pfn)
// as the next-level table, through write.
func (pt *PageTable) link(level int, va arch.VA, t *table, idx int, sub *table, pfn arch.PFN) {
	t.child[idx] = sub
	pt.write(level, va, false, t, idx, Entry{PFN: pfn, Flags: Present | Writable | User})
}

// PageTable is a 4-level radix translation structure.
type PageTable struct {
	alloc *mem.Allocator
	root  arch.PFN
	top   *table // the root table

	// OnWrite, when non-nil, observes every PTE store (including stores
	// creating intermediate tables). Virtualization layers use it to
	// charge write-protection traps.
	OnWrite func(WriteEvent)

	stats Stats
}

// New creates an empty page table whose table frames come from alloc.
func New(alloc *mem.Allocator) (*PageTable, error) {
	root, err := alloc.Alloc()
	if err != nil {
		return nil, err
	}
	pt := &PageTable{
		alloc: alloc,
		root:  root,
		top:   newTable(arch.PTLevels),
	}
	pt.stats.Tables = 1
	return pt, nil
}

// Root returns the root table frame (the CR3/EPTP value).
func (pt *PageTable) Root() arch.PFN { return pt.root }

// Stats returns a copy of the activity counters.
func (pt *PageTable) Stats() Stats { return pt.stats }

func (pt *PageTable) write(level int, va arch.VA, leaf bool, t *table, idx int, e Entry) {
	t.entries[idx] = packPTE(e)
	pt.stats.PTEWrites++
	if pt.OnWrite != nil {
		pt.OnWrite(WriteEvent{Level: level, VA: va, Leaf: leaf, Entry: e})
	}
}

// Map installs a translation va → pfn with the given flags, creating any
// missing intermediate tables (marked Present|Writable|User). It returns the
// number of PTE stores performed — the quantity that determines how many
// write-protection traps a shadowed guest pays.
func (pt *PageTable) Map(va arch.VA, pfn arch.PFN, flags Flags) (writes int, err error) {
	if !va.Canonical() {
		return 0, fmt.Errorf("pagetable: non-canonical address %#x", va)
	}
	t := pt.top
	for level := arch.PTLevels; level > 1; level-- {
		idx := va.Index(level)
		if !t.entries[idx].flags().Has(Present) {
			if err := pt.grow(level, va, t, idx); err != nil {
				return writes, err
			}
			writes++
		}
		t = t.child[idx]
	}
	idx := va.Index(1)
	pt.write(1, va, true, t, idx, Entry{PFN: pfn, Flags: flags | Present})
	writes++
	pt.stats.Maps++
	return writes, nil
}

// MapLarge installs a 2 MiB translation at level 2 for the region containing
// va (aligned down to LargePageSpan), creating missing upper tables. pfn
// names the first frame of the 512-frame block. It returns the number of PTE
// stores performed.
func (pt *PageTable) MapLarge(va arch.VA, pfn arch.PFN, flags Flags) (writes int, err error) {
	if !va.Canonical() {
		return 0, fmt.Errorf("pagetable: non-canonical address %#x", va)
	}
	va = va &^ (LargePageSpan - 1)
	t := pt.top
	for level := arch.PTLevels; level > 2; level-- {
		idx := va.Index(level)
		if !t.entries[idx].flags().Has(Present) {
			if err := pt.grow(level, va, t, idx); err != nil {
				return writes, err
			}
			writes++
		}
		t = t.child[idx]
	}
	idx := va.Index(2)
	if old := t.entries[idx].flags(); old.Has(Present) && !old.Has(Large) {
		return writes, fmt.Errorf("pagetable: 4K table already present at %#x; split required", va)
	}
	pt.write(2, va, true, t, idx, Entry{PFN: pfn, Flags: flags | Present | Large})
	writes++
	pt.stats.Maps++
	return writes, nil
}

// grow allocates the missing next-level table under upper-level slot idx
// of t and links it with one observable store.
func (pt *PageTable) grow(level int, va arch.VA, t *table, idx int) error {
	pfn, err := pt.alloc.Alloc()
	if err != nil {
		return err
	}
	pt.stats.Tables++
	pt.link(level, va, t, idx, newTable(level-1), pfn)
	return nil
}

// LookupLarge peeks at the level-2 entry covering va, reporting whether a
// huge mapping is installed there.
func (pt *PageTable) LookupLarge(va arch.VA) (Entry, bool) {
	t := pt.top
	for level := arch.PTLevels; level > 2; level-- {
		idx := va.Index(level)
		if !t.entries[idx].flags().Has(Present) {
			return Entry{}, false
		}
		t = t.child[idx]
	}
	e := t.entries[va.Index(2)].entry()
	if !e.Flags.Has(Present) || !e.Flags.Has(Large) {
		return Entry{}, false
	}
	return e, true
}

// UnmapLarge clears the level-2 huge entry covering va. It reports whether
// one was present.
func (pt *PageTable) UnmapLarge(va arch.VA) bool {
	t := pt.top
	for level := arch.PTLevels; level > 2; level-- {
		idx := va.Index(level)
		if !t.entries[idx].flags().Has(Present) {
			return false
		}
		t = t.child[idx]
	}
	idx := va.Index(2)
	if f := t.entries[idx].flags(); !f.Has(Present) || !f.Has(Large) {
		return false
	}
	pt.write(2, va&^(LargePageSpan-1), true, t, idx, Entry{})
	pt.stats.Unmaps++
	return true
}

// Unmap clears the leaf entry for va. Intermediate tables are retained (as
// real kernels do). It reports whether a mapping was present.
func (pt *PageTable) Unmap(va arch.VA) bool {
	t, idx, ok := pt.leaf(va)
	if !ok || !t.entries[idx].flags().Has(Present) {
		return false
	}
	pt.write(1, va, true, t, idx, Entry{})
	pt.stats.Unmaps++
	return true
}

// Protect replaces the leaf flags for va (keeping the PFN), e.g. to
// write-protect a page for COW or guest-page-table shadowing. It reports
// whether the mapping existed.
func (pt *PageTable) Protect(va arch.VA, flags Flags) bool {
	t, idx, ok := pt.leaf(va)
	if !ok || !t.entries[idx].flags().Has(Present) {
		return false
	}
	e := t.entries[idx].entry()
	e.Flags = flags | Present
	pt.write(1, va, true, t, idx, e)
	pt.stats.Protects++
	return true
}

// leaf walks to the leaf table without permission checks or A/D updates.
// Large (level-2) leaves are not 4K leaves; use LookupLarge for those.
func (pt *PageTable) leaf(va arch.VA) (*table, int, bool) {
	t := pt.top
	for level := arch.PTLevels; level > 1; level-- {
		if t = t.child[va.Index(level)]; t == nil {
			// Absent or Large: only a Present, non-Large entry links.
			return nil, 0, false
		}
	}
	return t, va.Index(1), true
}

// Lookup peeks at the leaf entry for va without touching A/D bits or stats.
func (pt *PageTable) Lookup(va arch.VA) (Entry, bool) {
	t, idx, ok := pt.leaf(va)
	if !ok {
		return Entry{}, false
	}
	e := t.entries[idx].entry()
	if !e.Flags.Has(Present) {
		return Entry{}, false
	}
	return e, true
}

// Walk performs an architectural walk for an access at va, applying
// permission checks and setting Accessed/Dirty bits. On success it returns
// the leaf entry and the number of levels traversed; on failure it returns a
// Fault describing the page fault the access would raise.
func (pt *PageTable) Walk(va arch.VA, write, user bool) (Entry, int, *Fault) {
	pt.stats.Walks++
	if !va.Canonical() {
		pt.stats.Faults++
		return Entry{}, 0, &Fault{Kind: FaultNotPresent, Level: arch.PTLevels, VA: va, Write: write, User: user}
	}
	t := pt.top
	levels := 0
	for level := arch.PTLevels; level > 1; level-- {
		levels++
		idx := va.Index(level)
		e := t.entries[idx].entry()
		if !e.Flags.Has(Present) {
			pt.stats.Faults++
			return Entry{}, levels, &Fault{Kind: FaultNotPresent, Level: level, VA: va, Write: write, User: user}
		}
		if e.Flags.Has(Large) {
			// 2 MiB leaf at level 2.
			switch {
			case user && !e.Flags.Has(User):
				pt.stats.Faults++
				return Entry{}, levels, &Fault{Kind: FaultPrivilege, VA: va, Write: write, User: user}
			case write && !e.Flags.Has(Writable):
				pt.stats.Faults++
				return Entry{}, levels, &Fault{Kind: FaultProtection, VA: va, Write: write, User: user}
			}
			e.Flags |= Accessed
			if write {
				e.Flags |= Dirty
			}
			t.entries[idx] = packPTE(e)
			return e, levels, nil
		}
		t = t.child[idx]
	}
	levels++
	idx := va.Index(1)
	e := t.entries[idx].entry()
	switch {
	case !e.Flags.Has(Present):
		pt.stats.Faults++
		return Entry{}, levels, &Fault{Kind: FaultNotPresent, Level: 1, VA: va, Write: write, User: user}
	case user && !e.Flags.Has(User):
		pt.stats.Faults++
		return Entry{}, levels, &Fault{Kind: FaultPrivilege, VA: va, Write: write, User: user}
	case write && !e.Flags.Has(Writable):
		pt.stats.Faults++
		return Entry{}, levels, &Fault{Kind: FaultProtection, VA: va, Write: write, User: user}
	}
	// Set A/D bits silently (hardware A/D assists do not trap).
	e.Flags |= Accessed
	if write {
		e.Flags |= Dirty
	}
	t.entries[idx] = packPTE(e)
	return e, levels, nil
}

// Range calls fn for every present leaf mapping, in ascending VA order.
// Returning false from fn stops the iteration.
func (pt *PageTable) Range(fn func(va arch.VA, e Entry) bool) {
	pt.rangeFrom(pt.top, arch.PTLevels, 0, fn)
}

func (pt *PageTable) rangeFrom(t *table, level int, base arch.VA, fn func(arch.VA, Entry) bool) bool {
	span := arch.VA(1) << (arch.PageShift + arch.IndexBits*(level-1))
	for i := 0; i < arch.EntriesPerTable; i++ {
		e := t.entries[i].entry()
		if !e.Flags.Has(Present) {
			continue
		}
		va := base + arch.VA(i)*span
		if level == 1 || e.Flags.Has(Large) {
			if !fn(va, e) {
				return false
			}
			continue
		}
		if !pt.rangeFrom(t.child[i], level-1, va, fn) {
			return false
		}
	}
	return true
}

// CountMapped returns the number of present leaf entries.
func (pt *PageTable) CountMapped() int {
	n := 0
	pt.Range(func(arch.VA, Entry) bool { n++; return true })
	return n
}

// Destroy releases every table frame back to the allocator, in ascending
// frame order: the allocator's free list decides which frames later
// allocations get, so the order must be a function of the tree alone. The
// PageTable must not be used afterwards.
func (pt *PageTable) Destroy() error {
	if _, err := freeTree(pt.alloc, pt.top, pt.root, arch.PTLevels); err != nil {
		return err
	}
	pt.top = nil
	pt.stats.Tables = 0
	return nil
}

// freeTree frees the frames of the subtree rooted at t (frame pfn, at
// level) in ascending frame order, returns its tables to the pool, and
// reports how many frames it freed.
func freeTree(alloc *mem.Allocator, t *table, pfn arch.PFN, level int) (int, error) {
	refs := appendTables(nil, t, pfn, level)
	slices.SortFunc(refs, func(a, b tableRef) int { return cmp.Compare(a.pfn, b.pfn) })
	for n, r := range refs {
		if _, err := alloc.Free(r.pfn); err != nil {
			return n, err
		}
	}
	for _, r := range refs {
		putTable(r.t)
	}
	return len(refs), nil
}

// tableRef is one table of a tree and the frame it occupies.
type tableRef struct {
	pfn arch.PFN
	t   *table
}

// appendTables appends t (frame pfn, at level) and every table below it to
// out, in depth-first pre-order.
func appendTables(out []tableRef, t *table, pfn arch.PFN, level int) []tableRef {
	out = append(out, tableRef{pfn, t})
	if level == 1 {
		return out
	}
	for i, c := range t.child {
		if c != nil {
			out = appendTables(out, c, t.entries[i].entry().PFN, level-1)
		}
	}
	return out
}

// TableFrames returns the PFNs of all live table frames (root included) in
// ascending order; shadowing layers write-protect exactly these frames in
// the shadow structure to trap guest page-table stores.
func (pt *PageTable) TableFrames() []arch.PFN {
	refs := appendTables(make([]tableRef, 0, pt.stats.Tables), pt.top, pt.root, arch.PTLevels)
	out := make([]arch.PFN, len(refs))
	for i, r := range refs {
		out[i] = r.pfn
	}
	slices.Sort(out)
	return out
}
