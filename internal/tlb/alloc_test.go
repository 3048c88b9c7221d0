package tlb

import (
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"repro/internal/arch"
)

// raceEnabled reports a race-detector build (set in race_test.go).
var raceEnabled bool

// TestLookupZeroAlloc pins the allocation budget of the TLB hot path: hits,
// misses, and warm inserts must not allocate.
func TestLookupZeroAlloc(t *testing.T) {
	tl := New(256)
	for i := 0; i < 256; i++ {
		tl.Insert(1, 2, arch.VA(i)<<arch.PageShift, Entry{PFN: arch.PFN(i), Write: true})
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := tl.Lookup(1, 2, arch.VA(i%256)<<arch.PageShift, true); !ok {
			t.Fatal("warm lookup missed")
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("Lookup (hit) allocates %.1f objects per call, want 0", allocs)
	}

	allocs = testing.AllocsPerRun(1000, func() {
		if _, ok := tl.Lookup(9, 9, arch.VA(i)<<arch.PageShift, false); ok {
			t.Fatal("cold lookup hit")
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("Lookup (miss) allocates %.1f objects per call, want 0", allocs)
	}

	// Steady-state insertion evicts the LRU entry and reuses its slot.
	allocs = testing.AllocsPerRun(1000, func() {
		tl.Insert(1, 2, arch.VA(1000+i)<<arch.PageShift, Entry{PFN: arch.PFN(i)})
		i++
	})
	if allocs != 0 {
		t.Errorf("Insert (evicting) allocates %.1f objects per call, want 0", allocs)
	}
}

// TestNodeSize pins the entry arena's node at 32 bytes: the packed tag, the
// entry and the two LRU links, with no cache state beside them.
func TestNodeSize(t *testing.T) {
	if n := unsafe.Sizeof(node{}); n != 32 {
		t.Fatalf("sizeof(node) = %d, want 32", n)
	}
}

// TestReleaseRecyclesArena pins arena reuse. A TLB whose capacity matches a
// released arena's takes that arena over at its first insert, with no
// allocation; a TLB of another capacity does not take it. The collector is
// off, so the pool keeps what it is given, and one P runs the test, so the
// pool hands back what it was given last.
func TestReleaseRecyclesArena(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of Puts at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	first := New(1536)
	first.Insert(1, 2, 0, Entry{PFN: 1})
	released := first.arena
	first.Release()
	if first.Len() != 0 || first.arena != nil {
		t.Fatalf("released TLB holds %d entries, arena %p", first.Len(), first.arena)
	}
	if _, ok := first.Lookup(1, 2, 0, false); ok {
		t.Fatal("released TLB still hits")
	}
	next := New(1536)
	next.Insert(1, 2, 0, Entry{PFN: 2})
	if next.arena != released {
		t.Fatal("1536-entry TLB did not take the released arena")
	}
	next.Release()

	other := New(64)
	other.Insert(1, 2, 0, Entry{PFN: 1})
	if other.arena == released || cap(other.nodes) != 64 || len(other.index) != 128 {
		t.Fatalf("64-entry TLB took a %d-node arena with a %d-slot index", cap(other.nodes), len(other.index))
	}

	var kept *arena
	allocs := testing.AllocsPerRun(100, func() {
		next.Insert(1, 2, 0, Entry{PFN: 2})
		if kept == nil {
			kept = next.arena
		} else if next.arena != kept {
			t.Fatal("1536-entry TLB did not take the arena it released")
		}
		next.Release()
	})
	if allocs != 0 {
		t.Errorf("first Insert after Release allocates %.1f objects, want 0", allocs)
	}
}
