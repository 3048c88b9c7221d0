package pagetable

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/mem"
)

func BenchmarkMapSequential(b *testing.B) {
	pt, err := New(mem.NewAllocator("b", 0, 0))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pt.Map(arch.VA(i)<<arch.PageShift, arch.PFN(i), Writable|User); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWalkHot(b *testing.B) {
	pt, err := New(mem.NewAllocator("b", 0, 0))
	if err != nil {
		b.Fatal(err)
	}
	const pages = 4096
	for i := 0; i < pages; i++ {
		if _, err := pt.Map(arch.VA(i)<<arch.PageShift, arch.PFN(i), Writable|User); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, fault := pt.Walk(arch.VA(i%pages)<<arch.PageShift, false, true); fault != nil {
			b.Fatal(fault)
		}
	}
}

func BenchmarkMapLarge(b *testing.B) {
	pt, err := New(mem.NewAllocator("b", 0, 0))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := arch.VA(i) * LargePageSpan
		if !arch.VA(va).Canonical() {
			b.Skip("address space exhausted")
		}
		if _, err := pt.MapLarge(va, arch.PFN(i)<<9, Writable|User); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWalkSparse walks single pages scattered over a 4 GiB span with no
// Reader in front, so every walk is a real four-level descent through a
// different leaf table: the per-level table lookup is the cost measured.
func BenchmarkWalkSparse(b *testing.B) {
	pt, err := New(mem.NewAllocator("b", 0, 0))
	if err != nil {
		b.Fatal(err)
	}
	const (
		pages = 2048
		span  = 4 << 30
	)
	rng := rand.New(rand.NewSource(1))
	vas := make([]arch.VA, pages)
	for i := range vas {
		vas[i] = arch.VA(rng.Int63n(span)).PageDown()
		if _, err := pt.Map(vas[i], arch.PFN(i), Writable|User); err != nil {
			b.Fatal(err)
		}
	}
	rng.Shuffle(len(vas), func(i, j int) { vas[i], vas[j] = vas[j], vas[i] })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, fault := pt.Walk(vas[i%pages], false, true); fault != nil {
			b.Fatal(fault)
		}
	}
}
