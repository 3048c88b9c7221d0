package pagetable

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/mem"
)

// recordedWrite is one OnWrite observation (WriteEvent plus sequence).
type recordedWrite struct {
	Level int
	VA    arch.VA
	Leaf  bool
	Entry Entry
}

// TestMapperMatchesDirect drives two identical page tables through a
// randomized schedule of maps, runs of maps, protects, unmaps, and lookups —
// one mutated through a long-lived Mapper, the other directly — and
// requires the OnWrite event streams, stats, allocator call counts, and
// final structure to be bit-identical. This pins the Mapper's
// event-equivalence contract: a run of cached-span Maps must be
// indistinguishable from N direct Maps to every observer (SPT write-protect
// traps, PVM sync costs, table allocation).
func TestMapperMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var evA, evB []recordedWrite
	mkPT := func(name string, sink *[]recordedWrite) *PageTable {
		pt, err := New(mem.NewAllocator(name, 0, 0))
		if err != nil {
			t.Fatal(err)
		}
		pt.OnWrite = func(w WriteEvent) {
			*sink = append(*sink, recordedWrite{w.Level, w.VA, w.Leaf, w.Entry})
		}
		return pt
	}
	a := mkPT("mapper", &evA)
	b := mkPT("direct", &evB)
	m := a.NewMapper()

	randVA := func() arch.VA {
		span := arch.VA(rng.Intn(4)) * LargePageSpan
		return span + arch.VA(rng.Intn(64))<<arch.PageShift
	}
	flags := func() Flags {
		f := User
		if rng.Intn(2) == 0 {
			f |= Writable
		}
		return f
	}

	for step := 0; step < 20000; step++ {
		va := randVA()
		switch op := rng.Intn(10); {
		case op < 3: // scalar map through the mapper vs direct
			f := flags()
			pfn := arch.PFN(rng.Intn(1 << 16))
			wa, ea := m.Map(va, pfn, f)
			wb, eb := b.Map(va, pfn, f)
			if wa != wb || (ea == nil) != (eb == nil) {
				t.Fatalf("step %d: Map diverged: (%d,%v) vs (%d,%v)", step, wa, ea, wb, eb)
			}
		case op < 5: // a run of maps through the mapper vs direct
			n := 1 + rng.Intn(48)
			f := flags()
			pfns := make([]arch.PFN, n)
			for i := range pfns {
				pfns[i] = arch.PFN(rng.Intn(1 << 16))
			}
			mapRun := func(mapOne func(arch.VA, arch.PFN, Flags) (int, error)) (writes int, err error) {
				for i, pfn := range pfns {
					w, err := mapOne(va+arch.VA(i)*arch.PageSize, pfn, f)
					writes += w
					if err != nil {
						return writes, err
					}
				}
				return writes, nil
			}
			wa, ea := mapRun(m.Map)
			wb, eb := mapRun(b.Map)
			if wa != wb || (ea == nil) != (eb == nil) {
				t.Fatalf("step %d: map run diverged: (%d,%v) vs (%d,%v)", step, wa, ea, wb, eb)
			}
		case op < 6: // protect through the mapper vs direct
			f := flags()
			if m.Protect(va, f) != b.Protect(va, f) {
				t.Fatalf("step %d: Protect diverged", step)
			}
		case op < 7: // unmap mutates the cached leaf in place on a
			if a.Unmap(va) != b.Unmap(va) {
				t.Fatalf("step %d: Unmap diverged", step)
			}
		default: // lookup through the mapper vs direct
			ea, oka := m.Lookup(va)
			eb, okb := b.Lookup(va)
			if ea != eb || oka != okb {
				t.Fatalf("step %d: Lookup(%#x) diverged: (%v,%v) vs (%v,%v)",
					step, va, ea, oka, eb, okb)
			}
		}
		if a.Stats() != b.Stats() {
			t.Fatalf("step %d: stats diverged: %+v vs %+v", step, a.Stats(), b.Stats())
		}
		if len(evA) != len(evB) {
			t.Fatalf("step %d: OnWrite stream lengths diverged: %d vs %d", step, len(evA), len(evB))
		}
	}
	if !reflect.DeepEqual(evA, evB) {
		t.Fatal("OnWrite event streams diverged")
	}

	type leafEnt struct {
		VA arch.VA
		E  Entry
	}
	collect := func(pt *PageTable) []leafEnt {
		var out []leafEnt
		pt.Range(func(va arch.VA, e Entry) bool {
			out = append(out, leafEnt{va, e})
			return true
		})
		return out
	}
	if !reflect.DeepEqual(collect(a), collect(b)) {
		t.Fatal("final leaf mappings diverged")
	}
}

// TestMapperAllocParity pins the allocator-call contract: populating a
// fresh span through a run of Mapper.Maps performs exactly the same table
// allocations as direct Maps (one per missing level), and cached-span
// installs perform none.
func TestMapperAllocParity(t *testing.T) {
	allocA := mem.NewAllocator("bulk", 0, 0)
	allocB := mem.NewAllocator("scalar", 0, 0)
	a, err := New(allocA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(allocB)
	if err != nil {
		t.Fatal(err)
	}
	m := a.NewMapper()

	const pages = 1024 // spans two leaf tables
	mapAll := func(mapOne func(arch.VA, arch.PFN, Flags) (int, error)) int {
		writes := 0
		for i := 0; i < pages; i++ {
			w, err := mapOne(0x400000+arch.VA(i)*arch.PageSize, arch.PFN(1000+i), User|Writable)
			if err != nil {
				t.Fatal(err)
			}
			writes += w
		}
		return writes
	}
	wa := mapAll(m.Map)
	wb := mapAll(b.Map)
	if wa != wb {
		t.Fatalf("PTE writes: mapper %d vs direct %d", wa, wb)
	}
	if sa, sb := a.Stats(), b.Stats(); sa != sb {
		t.Fatalf("stats: mapper %+v vs direct %+v", sa, sb)
	}
	if sa, sb := allocA.Stats(), allocB.Stats(); sa.Allocs != sb.Allocs {
		t.Fatalf("allocator calls: mapper %d vs direct %d", sa.Allocs, sb.Allocs)
	}
}
