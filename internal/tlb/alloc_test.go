package tlb

import (
	"testing"
	"unsafe"

	"repro/internal/arch"
)

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
