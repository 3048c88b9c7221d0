package backend

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/arch"
)

// TestFrameMapMatchesModel drives a frameMap and a Go map through random
// schedules of getOrAlloc, remove and get and requires identical results
// and len after every step. Dense keys are 256 consecutive frames from
// 0x1000, as the guest allocators hand them out; sparse keys spread over
// 64Ki frames from frame 0, so the table grows in jumps past chunks never
// touched. Lookups and removals also probe 1024 frames past the keys,
// whose chunks getOrAlloc never allocates.
func TestFrameMapMatchesModel(t *testing.T) {
	for _, keys := range []struct {
		first arch.PFN
		span  int
	}{{0x1000, 256}, {0, 1 << 16}} {
		t.Run(fmt.Sprintf("span=%d", keys.span), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(keys.span)))
			f, model := newFrameMap(), map[arch.PFN]arch.PFN{}
			next := arch.PFN(0x100000)
			alloc := func() arch.PFN { next++; return next }
			probe := func() arch.PFN { return keys.first + arch.PFN(rng.Intn(keys.span+1024)) }
			for step := 0; step < 20000; step++ {
				var got, want string
				switch op := rng.Intn(3); op {
				case 0:
					gfn := keys.first + arch.PFN(rng.Intn(keys.span))
					w, had := model[gfn]
					if !had {
						w = next + 1
						model[gfn] = w
					}
					g, alloced := f.getOrAlloc(gfn, alloc)
					got, want = fmt.Sprint("getOrAlloc ", gfn, g, alloced), fmt.Sprint("getOrAlloc ", gfn, w, !had)
				case 1:
					gfn := probe()
					g, ok := f.remove(gfn)
					w, had := model[gfn]
					delete(model, gfn)
					got, want = fmt.Sprint("remove ", gfn, g, ok), fmt.Sprint("remove ", gfn, w, had)
				default:
					gfn := probe()
					g, ok := f.get(gfn)
					w, had := model[gfn]
					got, want = fmt.Sprint("get ", gfn, g, ok), fmt.Sprint("get ", gfn, w, had)
				}
				if got != want {
					t.Fatalf("step %d: got %s, want %s", step, got, want)
				}
				if f.len() != len(model) {
					t.Fatalf("step %d: len %d, want %d", step, f.len(), len(model))
				}
			}
		})
	}
}

// TestFrameMapConcurrent runs eight goroutines on disjoint, interleaved
// frames of one map, as a guest's vCPUs share its backing table: each backs
// its frames, reads them back and removes every other one while the others
// grow the table under it. Run it with -race.
func TestFrameMapConcurrent(t *testing.T) {
	const workers, perWorker = 8, 2000
	f := newFrameMap()
	backing := func(gfn arch.PFN) arch.PFN { return gfn + 0x100000 }
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				gfn := 0x1000 + arch.PFN(i*workers+w)
				if got, alloced := f.getOrAlloc(gfn, func() arch.PFN { return backing(gfn) }); got != backing(gfn) || !alloced {
					t.Errorf("getOrAlloc(%#x) = %#x, %v", gfn, got, alloced)
					return
				}
			}
			for i := 0; i < perWorker; i++ {
				gfn := 0x1000 + arch.PFN(i*workers+w)
				if got, ok := f.get(gfn); got != backing(gfn) || !ok {
					t.Errorf("get(%#x) = %#x, %v", gfn, got, ok)
					return
				}
				if i%2 == 0 {
					if got, ok := f.remove(gfn); got != backing(gfn) || !ok {
						t.Errorf("remove(%#x) = %#x, %v", gfn, got, ok)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got, want := f.len(), workers*perWorker/2; got != want {
		t.Fatalf("len = %d after the workers finished, want %d", got, want)
	}
}
