package backend_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/arch"
	"repro/internal/backend"
	"repro/internal/vclock"
)

// raceEnabled reports a race-detector build (set in race_test.go).
var raceEnabled bool

// TestResidentAccessZeroAlloc pins the allocation budget of the TLB front
// end on a resident working set, for every MMU strategy: a TouchRange sweep
// (hit runs mixed with refills from resident tables), a Touch that hits, and
// a Touch cycling through more pages than the TLB holds (under LRU every
// probe misses, so each call runs the strategy's resolve) allocate nothing.
// Allocations are counted over many calls rather than averaged with
// testing.AllocsPerRun, whose integer division reads one allocation every
// few calls as zero.
func TestResidentAccessZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	// More pages than the 1536-entry TLB holds.
	const pages = 2000
	type choice struct {
		name string
		cfg  backend.Config
		opt  backend.Options
	}
	var choices []choice
	for _, cfg := range backend.Configs() {
		choices = append(choices, choice{cfg.String(), cfg, backend.DefaultOptions()})
	}
	direct := withOptions(func(o *backend.Options) { o.DirectPaging = true })
	choices = append(choices,
		choice{"pvm-direct (BM)", backend.PVMBM, direct},
		choice{"pvm-direct (NST)", backend.PVMNST, direct})
	for _, ch := range choices {
		t.Run(ch.name, func(t *testing.T) {
			s := backend.NewSystem(ch.cfg, ch.opt)
			g, err := s.NewGuest("g0")
			if err != nil {
				t.Fatal(err)
			}
			s.Eng.Go(0, func(c *vclock.CPU) {
				p, err := g.Kern.StartProcess(c, 8)
				if err != nil {
					panic(err)
				}
				base := p.Mmap(pages)
				p.TouchRange(base, pages, true)
				p.TouchRange(base, pages, true)

				var ms runtime.MemStats
				allocs := func(calls int, fn func(i int)) float64 {
					runtime.ReadMemStats(&ms)
					before := ms.Mallocs
					for i := 0; i < calls; i++ {
						fn(i)
					}
					runtime.ReadMemStats(&ms)
					return float64(ms.Mallocs-before) / float64(calls)
				}
				cells := []struct {
					what    string
					perCall float64
				}{
					{"TouchRange over the range", allocs(50, func(int) { p.TouchRange(base, pages, true) })},
					{"Touch on a hit page", allocs(4000, func(int) { p.Touch(base, false) })},
					{"Touch cycling through the range", allocs(4*pages, func(i int) {
						p.Touch(base+arch.VA(i%pages)*arch.PageSize, i%2 == 0)
					})},
				}
				for _, cell := range cells {
					if cell.perCall != 0 {
						t.Errorf("%s allocates %.4f objects per call, want 0", cell.what, cell.perCall)
					}
				}
				if err := p.Exit(); err != nil {
					panic(err)
				}
			})
			s.Eng.Wait()
			if err := s.Eng.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
