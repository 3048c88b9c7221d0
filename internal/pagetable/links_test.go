package pagetable

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/arch"
	"repro/internal/mem"
)

// checkLinks verifies the child-link structure of pt in-package: a link
// exists exactly where an upper-level entry is Present and not Large, leaf
// tables carry no child array, the linked tables number Stats().Tables,
// and TableFrames is strictly ascending and equals the root plus the frames
// the linking entries name. When alloc supplies only pt's table frames, it
// must hold exactly those frames.
func checkLinks(t *testing.T, pt *PageTable, alloc *mem.Allocator) {
	t.Helper()
	named := []arch.PFN{pt.root}
	var walk func(tb *table, level int) int64
	walk = func(tb *table, level int) int64 {
		if level == 1 {
			if tb.child != nil {
				t.Fatal("leaf table carries a child array")
			}
			return 1
		}
		if tb.child == nil {
			t.Fatalf("level-%d table has no child array", level)
		}
		n := int64(1)
		for i, p := range tb.entries {
			f := p.flags()
			linked := f.Has(Present) && !f.Has(Large)
			if (tb.child[i] != nil) != linked {
				t.Fatalf("level %d slot %d: link %v, entry %v", level, i, tb.child[i] != nil, f)
			}
			if linked {
				named = append(named, p.entry().PFN)
				n += walk(tb.child[i], level-1)
			}
		}
		return n
	}
	if n := walk(pt.top, arch.PTLevels); n != pt.Stats().Tables {
		t.Fatalf("%d linked tables, Stats().Tables %d", n, pt.Stats().Tables)
	}
	frames := pt.TableFrames()
	for i := 1; i < len(frames); i++ {
		if frames[i-1] >= frames[i] {
			t.Fatalf("TableFrames not strictly ascending at %d: %v", i, frames)
		}
	}
	slices.Sort(named)
	if !slices.Equal(frames, named) {
		t.Fatalf("TableFrames %v, entries name %v", frames, named)
	}
	if alloc != nil {
		if alloc.InUse() != int64(len(frames)) {
			t.Fatalf("allocator holds %d frames, table has %d", alloc.InUse(), len(frames))
		}
		for _, f := range frames {
			if alloc.RefCount(f) != 1 {
				t.Fatalf("table frame %#x has refcount %d", f, alloc.RefCount(f))
			}
		}
	}
}

// linkVA spreads random addresses over three root slots, two 1 GiB
// regions and four 2 MiB spans each, so every level gains and shares
// tables.
func linkVA(rng *rand.Rand) arch.VA {
	roots := []arch.VA{0, 1 << 39, 0x7f80_0000_0000}
	return roots[rng.Intn(len(roots))] +
		arch.VA(rng.Intn(2))<<30 +
		arch.VA(rng.Intn(4*arch.EntriesPerTable))<<arch.PageShift
}

// TestLinksUnderRandomOps runs random sequences of Map, MapLarge, Unmap,
// UnmapLarge, Protect, UnmapRange and ProtectRange (splitting Large
// leaves) and Clone, checking the link structure after every step. Data
// frames are synthetic, so the table allocator holds table frames only.
func TestLinksUnderRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		alloc := mem.NewAllocator("pt", 0, 0x100)
		pt, err := New(alloc)
		if err != nil {
			t.Fatal(err)
		}
		data := arch.PFN(1 << 30)
		for step := 0; step < 1500; step++ {
			va := linkVA(rng)
			switch op := rng.Intn(9); op {
			case 0, 1:
				if _, large := pt.LookupLarge(va); !large {
					data++
					if _, err := pt.Map(va, data, Writable|User); err != nil {
						t.Fatal(err)
					}
				}
			case 2:
				data += arch.EntriesPerTable
				// Refused (not an error of the structure) when a 4K table
				// already covers the span.
				_, _ = pt.MapLarge(va, data, Writable|User)
			case 3:
				pt.Unmap(va)
			case 4:
				pt.UnmapLarge(va)
			case 5:
				pt.Protect(va, User)
			case 6:
				err := pt.UnmapRange(va, 1+rng.Intn(1024), SplitLarge, func(vas []arch.VA, _ []arch.PFN, clear func(int)) error {
					for i := range vas {
						if rng.Intn(2) == 0 {
							clear(i)
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			case 7:
				err := pt.ProtectRange(va, 1+rng.Intn(1024), SplitLarge, func(vas []arch.VA, _ []Entry, protect func(int, Flags)) error {
					for i := range vas {
						protect(i, User)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			case 8:
				dst, err := New(alloc)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := pt.Clone(dst, CloneHooks{}); err != nil {
					t.Fatal(err)
				}
				checkLinks(t, dst, nil)
				// Carry on with either side; tear the other down both ways.
				if rng.Intn(2) == 0 {
					pt, dst = dst, pt
				}
				if rng.Intn(2) == 0 {
					err = dst.Destroy()
				} else {
					err = dst.ReleaseSubtree(func([]arch.VA, []arch.PFN) error { return nil })
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			checkLinks(t, pt, alloc)
		}
		if err := pt.Destroy(); err != nil {
			t.Fatal(err)
		}
		if alloc.InUse() != 0 {
			t.Fatalf("seed %d: %d frames live after Destroy", seed, alloc.InUse())
		}
	}
}

// cloneSource builds a source table whose clone needs tables under two
// root slots, several 1 GiB and 2 MiB regions, a Large leaf, and a
// leaf-empty subtree that the clone skips.
func cloneSource(t *testing.T) *PageTable {
	t.Helper()
	src, err := New(mem.NewAllocator("src", 0, 0x100))
	if err != nil {
		t.Fatal(err)
	}
	data := arch.PFN(1 << 30)
	for _, base := range []arch.VA{0x4000_0000, 0x8000_0000, 1<<39 + 0x20_0000, 1<<39 + 0x4000_0000} {
		for i := 0; i < 3; i++ {
			data++
			if _, err := src.Map(base+arch.VA(i)*LargePageSpan, data, Writable|User); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := src.MapLarge(0xc000_0000, 1<<31, Writable|User); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Map(0x1_0000_0000, data+1, Writable|User); err != nil {
		t.Fatal(err)
	}
	src.Unmap(0x1_0000_0000)
	return src
}

// TestCloneAllocFailureUnwinds fails the destination allocator at the k-th
// child-table allocation, for every k up to the number the clone needs.
// The aborted child must keep a consistent link structure — a finished
// subtree whose parent table could not be allocated is freed, not leaked
// — and both teardowns must return the allocator to zero.
func TestCloneAllocFailureUnwinds(t *testing.T) {
	full, err := New(mem.NewAllocator("dst", 0, 0x9000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cloneSource(t).Clone(full, CloneHooks{}); err != nil {
		t.Fatal(err)
	}
	need := int(full.Stats().Tables) - 1
	if need < 8 {
		t.Fatalf("clone needs only %d tables; the source is too small", need)
	}
	orphans := 0
	for k := 1; k <= need; k++ {
		for _, teardown := range []string{"Destroy", "ReleaseSubtree"} {
			alloc := mem.NewAllocator("dst", int64(k), 0x9000) // root + k-1 children
			dst, err := New(alloc)
			if err != nil {
				t.Fatal(err)
			}
			_, err = cloneSource(t).Clone(dst, CloneHooks{})
			if !errors.Is(err, mem.ErrOutOfMemory) {
				t.Fatalf("k=%d: Clone error %v, want out of memory", k, err)
			}
			if alloc.Stats().Frees > 0 {
				orphans++
			}
			checkLinks(t, dst, alloc)
			if teardown == "Destroy" {
				err = dst.Destroy()
			} else {
				err = dst.ReleaseSubtree(func([]arch.VA, []arch.PFN) error { return nil })
			}
			if err != nil {
				t.Fatalf("k=%d: %s: %v", k, teardown, err)
			}
			if alloc.InUse() != 0 {
				t.Fatalf("k=%d: %d frames live after %s", k, alloc.InUse(), teardown)
			}
		}
	}
	if orphans == 0 {
		t.Fatal("no k left a finished subtree without its parent table")
	}
}

// TestTableSizeClass pins the byte size of each table allocation. A leaf
// table is its packed entries plus a nil child pointer; an upper-level
// table adds one child array. With the runtime's 8-byte type header each
// allocation fits a 4864-byte slot, inside the 8 KiB size class a table of
// unpacked 16-byte entries took alone; an 8-byte link in such a table would
// have moved it to the 9472-byte class.
func TestTableSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(table{}); n != 8+arch.EntriesPerTable*8 {
		t.Fatalf("sizeof(table) = %d, want %d", n, 8+arch.EntriesPerTable*8)
	}
	if n := unsafe.Sizeof(children{}); n != arch.EntriesPerTable*8 {
		t.Fatalf("sizeof(children) = %d, want %d", n, arch.EntriesPerTable*8)
	}
}

// TestPackPTEPanicsOutOfRange: a PFN that does not fit beside the flags
// must panic rather than alias another frame.
func TestPackPTEPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("packPTE accepted a PFN beyond 48 bits")
		}
	}()
	packPTE(Entry{PFN: 1 << pfnBits, Flags: Present})
}
