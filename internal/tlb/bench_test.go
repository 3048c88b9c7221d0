package tlb

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/arch"
)

func BenchmarkLookupHit(b *testing.B) {
	t := New(1536)
	for i := 0; i < 1024; i++ {
		t.Insert(1, 1, arch.VA(i)<<arch.PageShift, Entry{PFN: arch.PFN(i), Write: true})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Lookup(1, 1, arch.VA(i%1024)<<arch.PageShift, false)
	}
}

func BenchmarkInsertEvict(b *testing.B) {
	t := New(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Insert(1, 1, arch.VA(i)<<arch.PageShift, Entry{PFN: arch.PFN(i)})
	}
}

func BenchmarkFlushPCID(b *testing.B) {
	t := New(1536)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := 0; k < 64; k++ {
			t.Insert(1, arch.PCID(k%4), arch.VA(k)<<arch.PageShift, Entry{PFN: arch.PFN(k)})
		}
		b.StartTimer()
		t.FlushPCID(1, 2)
	}
}

// BenchmarkSweep replays the inner loop of the end-to-end benchmark's
// tlb-sweep workload at its geometry: a 1536-entry TLB, a 4608-page working
// set, and windows of 0.25–3× capacity (log-uniform, fixed seed) resolved
// with LookupRange, refilling every miss with Insert as the backends'
// accessRange loops do. One op is one window; pages/op reports its mean size.
func BenchmarkSweep(b *testing.B) {
	const (
		capacity = 1536
		region   = 3 * capacity
	)
	type window struct{ off, pages int }
	rng := rand.New(rand.NewSource(1))
	windows := make([]window, 64)
	total := 0
	for i := range windows {
		lo, hi := math.Log(capacity/4), math.Log(region)
		pages := int(math.Exp(lo + rng.Float64()*(hi-lo)))
		windows[i] = window{off: rng.Intn(region - pages + 1), pages: pages}
		total += pages
	}
	t := New(capacity)
	sweep := func(w window) {
		va := arch.VA(w.off) << arch.PageShift
		for i := 0; i < w.pages; {
			i += t.LookupRange(1, 1, va+arch.VA(i)<<arch.PageShift, w.pages-i, true)
			if i < w.pages {
				t.Insert(1, 1, va+arch.VA(i)<<arch.PageShift, Entry{PFN: arch.PFN(w.off + i), Write: true})
				i++
			}
		}
	}
	for _, w := range windows {
		sweep(w)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep(windows[i%len(windows)])
	}
	b.ReportMetric(float64(total)/float64(len(windows)), "pages/op")
}
