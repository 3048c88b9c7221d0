package pagetable

import (
	"fmt"
	"sync"

	"repro/internal/arch"
)

// This file holds the process-lifecycle structural primitives: Clone (fork's
// copy-on-write table duplication) and ReleaseSubtree (exec/exit bulk
// teardown). Both operate on whole tables instead of walking from the root
// once per leaf, which is where the per-page reference implementations in
// package guest spend their time.

// CloneHooks are the per-leaf observation points of Clone. They exist so the
// guest kernel can interleave its virtual-time charges and frame refcounting
// with the table stores in exactly the order the per-leaf reference
// implementation produces — the property the fork equivalence grid pins.
type CloneHooks struct {
	// BeforeProtect is called for every writable leaf immediately before
	// the parent-side COW write-protect store (which fires the parent's
	// OnWrite hook and therefore traps when the table is shadowed).
	BeforeProtect func(va arch.VA, e Entry)

	// OnLeaf is called for every present leaf — after the parent-side
	// protect store, if any, with the post-protect entry — and before the
	// child-side store. Returning an error aborts the clone; the child is
	// left half-built and the caller unwinds it (Destroy frees every table
	// frame registered so far).
	OnLeaf func(va arch.VA, e Entry) error
}

// Clone builds a copy-on-write image of pt into dst, which must be a fresh
// (empty, unregistered) table: dst.OnWrite must be nil, because child-side
// entries are stored in bulk without firing per-entry events — exactly the
// situation in fork, where the child's table is not yet shadowed. Level by
// level, present leaves are write-protected in place on the parent side
// (clearing nothing else, so Accessed/Dirty survive COW as they do in the
// reference) and copied to the child with Writable, Accessed, and Dirty
// stripped in one masked store. 2 MiB Large leaves are cloned as Large
// leaves at level 2. Child tables are created only for subtrees that hold at
// least one present leaf, matching the leaf-driven reference: a parent
// intermediate table left leaf-empty by munmap produces no child table.
//
// Child-side statistics are maintained exactly as the equivalent per-leaf
// Map sequence would leave them (Maps, PTEWrites including intermediate
// stores, Tables); parent-side Protects/PTEWrites accrue through the normal
// write path so the OnWrite trap choreography is unchanged.
//
// It returns the number of leaves cloned — the count fork's single TLB range
// invalidation covers.
func (pt *PageTable) Clone(dst *PageTable, h CloneHooks) (leaves int, err error) {
	if dst.OnWrite != nil {
		return 0, fmt.Errorf("pagetable: Clone into a hooked (shadowed) table")
	}
	src := pt.top
	dstRoot := dst.top
	writes := 0
	defer func() {
		// Accrue the child-side bulk stats even on an aborted clone: the
		// half-built child is about to be destroyed, but its counters must
		// never under-report the stores that were performed.
		dst.stats.PTEWrites += int64(writes)
		dst.stats.Maps += int64(leaves)
	}()
	span := arch.VA(1) << (arch.PageShift + arch.IndexBits*(arch.PTLevels-1))
	for i := 0; i < arch.EntriesPerTable; i++ {
		if !src.entries[i].flags().Has(Present) {
			continue
		}
		va := arch.VA(i) * span
		sub, subPFN, l, w, serr := pt.cloneSub(src.child[i], arch.PTLevels-1, va, dst, h)
		leaves += l
		writes += w
		if sub != nil {
			linkClone(dstRoot, i, sub, subPFN)
			writes++
		}
		if serr != nil {
			return leaves, serr
		}
	}
	return leaves, nil
}

// linkClone stores the child-side link to sub (frame pfn) at slot i of the
// upper-level table t, silently: the child table is not yet shadowed.
func linkClone(t *table, i int, sub *table, pfn arch.PFN) {
	t.child[i] = sub
	t.entries[i] = packPTE(Entry{PFN: pfn, Flags: Present | Writable | User})
}

// cloneSub clones one subtree below the root, allocating the child-side
// table lazily so leaf-empty subtrees produce nothing. It returns the child
// table (nil when the subtree held no leaves) along with its frame and the
// leaf/store counts. On error the partially filled child table, if any, is
// still returned so the caller links it for the unwinding Destroy; a
// finished subtree that cannot be linked because its parent's table could
// not be allocated is freed here, since no Destroy could reach it.
func (pt *PageTable) cloneSub(src *table, level int, base arch.VA, dst *PageTable, h CloneHooks) (out *table, outPFN arch.PFN, leaves, writes int, err error) {
	span := arch.VA(1) << (arch.PageShift + arch.IndexBits*(level-1))
	for i := 0; i < arch.EntriesPerTable; i++ {
		e := src.entries[i].entry()
		if !e.Flags.Has(Present) {
			continue
		}
		va := base + arch.VA(i)*span
		if level == 1 || e.Flags.Has(Large) {
			// Parent-side COW: write-protect in place, firing OnWrite as
			// the reference's Protect does (the store that traps when the
			// parent's table is shadowed).
			if e.Flags.Has(Writable) {
				if h.BeforeProtect != nil {
					h.BeforeProtect(va, e)
				}
				ne := e
				ne.Flags &^= Writable
				pt.write(level, va, true, src, i, ne)
				pt.stats.Protects++
				e = ne
			}
			if h.OnLeaf != nil {
				if lerr := h.OnLeaf(va, e); lerr != nil {
					return out, outPFN, leaves, writes, lerr
				}
			}
			if out == nil {
				if out, outPFN, err = dst.ensureCloneTable(level); err != nil {
					return out, outPFN, leaves, writes, err
				}
			}
			ce := e
			ce.Flags &^= Writable | Accessed | Dirty
			out.entries[i] = packPTE(ce)
			leaves++
			writes++
			continue
		}
		sub, subPFN, l, w, serr := pt.cloneSub(src.child[i], level-1, va, dst, h)
		leaves += l
		writes += w
		if sub != nil {
			if out == nil {
				if out, outPFN, err = dst.ensureCloneTable(level); err != nil {
					// The freshly built subtree has no parent to link
					// it, so free it now.
					n, ferr := freeTree(dst.alloc, sub, subPFN, level-1)
					dst.stats.Tables -= int64(n)
					if ferr != nil {
						return out, outPFN, leaves, writes, ferr
					}
					return out, outPFN, leaves, writes, err
				}
			}
			linkClone(out, i, sub, subPFN)
			writes++
		}
		if serr != nil {
			return out, outPFN, leaves, writes, serr
		}
	}
	return out, outPFN, leaves, writes, nil
}

// ensureCloneTable allocates one child-side table frame at level for a
// subtree that turned out to hold at least one present leaf.
func (pt *PageTable) ensureCloneTable(level int) (*table, arch.PFN, error) {
	pfn, err := pt.alloc.Alloc()
	if err != nil {
		return nil, 0, err
	}
	pt.stats.Tables++
	return newTable(level), pfn, nil
}

// ReleaseSubtree tears the whole table down: every present leaf (4 KiB and
// 2 MiB Large alike) is reported to the release callback in ascending VA
// order, batched table-by-table rather than one callback per page, and the
// table frames themselves are then freed back to the allocator in one batch,
// in deterministic DFS post-order (the reference Destroy frees them in
// ascending frame order — both orders are unobservable, but determinism
// costs nothing here). The callback owns the data frames: it decrements their
// reference counts, releasing backing for sole-owned frames before they can
// reach the free list. After ReleaseSubtree returns nil the PageTable must
// not be used again.
//
// An error from the callback aborts the teardown with the table frames still
// allocated, mirroring the reference path's behavior when a Range-loop free
// fails (both indicate a simulator bug upstream).
func (pt *PageTable) ReleaseSubtree(release func(vas []arch.VA, pfns []arch.PFN) error) error {
	// The walk state is pooled: its two per-table batch buffers (8 KiB)
	// would otherwise be heap-allocated on every teardown — escape analysis
	// cannot keep them on the stack across the recursive walk.
	st := releasePool.Get().(*releaseState)
	st.pt, st.release, st.n, st.frames, st.tables = pt, release, 0, st.frames[:0], st.tables[:0]
	defer func() {
		st.pt, st.release = nil, nil
		clear(st.tables)
		releasePool.Put(st)
	}()
	if err := st.walk(pt.top, pt.root, arch.PTLevels, 0); err != nil {
		return err
	}
	if err := st.flush(); err != nil {
		return err
	}
	if int64(len(st.frames)) != pt.stats.Tables {
		// Every live table is linked from its parent (Unmap never clears
		// intermediate entries), so the walk must have seen as many as
		// were allocated; anything else is a structural corruption.
		return fmt.Errorf("pagetable: ReleaseSubtree visited %d of %d tables", len(st.frames), pt.stats.Tables)
	}
	if err := pt.alloc.FreeBatch(st.frames); err != nil {
		return err
	}
	for _, t := range st.tables {
		putTable(t)
	}
	pt.top = nil
	pt.stats.Tables = 0
	return nil
}

// releaseState is ReleaseSubtree's walk state: the per-table leaf batch and
// the tables and their frames collected in DFS post-order. Pooled because
// concurrent vCPUs can tear address spaces down simultaneously.
type releaseState struct {
	pt      *PageTable
	release func(vas []arch.VA, pfns []arch.PFN) error
	vaBuf   [arch.EntriesPerTable]arch.VA
	pfnBuf  [arch.EntriesPerTable]arch.PFN
	n       int
	frames  []arch.PFN
	tables  []*table
}

var releasePool = sync.Pool{New: func() any { return new(releaseState) }}

func (st *releaseState) flush() error {
	if st.n == 0 {
		return nil
	}
	err := st.release(st.vaBuf[:st.n], st.pfnBuf[:st.n])
	st.n = 0
	return err
}

func (st *releaseState) walk(t *table, pfn arch.PFN, level int, base arch.VA) error {
	span := arch.VA(1) << (arch.PageShift + arch.IndexBits*(level-1))
	for i := 0; i < arch.EntriesPerTable; i++ {
		e := t.entries[i].entry()
		if !e.Flags.Has(Present) {
			continue
		}
		va := base + arch.VA(i)*span
		if level == 1 || e.Flags.Has(Large) {
			if st.n == len(st.vaBuf) {
				if err := st.flush(); err != nil {
					return err
				}
			}
			st.vaBuf[st.n], st.pfnBuf[st.n] = va, e.PFN
			st.n++
			continue
		}
		if err := st.walk(t.child[i], e.PFN, level-1, va); err != nil {
			return err
		}
	}
	st.frames = append(st.frames, pfn)
	st.tables = append(st.tables, t)
	return nil
}
