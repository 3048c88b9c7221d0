package vclock

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// runParallelStress is runHeapStress with the horizon-parallel executor
// enabled at the given worker budget; it additionally reports how many
// early commits the executor granted so tests can reject vacuous passes.
func runParallelStress(seed int64, cores, workers int) ([]stressEvent, int64) {
	e := NewEngine()
	e.SetCores(cores)
	e.SetParallel(workers)
	locks := make([]*Lock, stressLocks)
	for i := range locks {
		locks[i] = e.NewLock("l")
	}
	var logMu sync.Mutex
	var log []stressEvent
	release := e.Hold()
	for i := 0; i < stressCPUs; i++ {
		id := i
		e.Go(0, func(c *CPU) {
			ops := stressOps{
				advance: c.Advance,
				compute: c.Compute,
				lazy:    c.AdvanceLazy,
				acquire: func(li int) { locks[li].Acquire(c) },
				release: func(li int) { locks[li].Release(c) },
				gate:    c.Sync,
				now:     c.Now,
			}
			stressBody(id, seed, ops, func(ev stressEvent) {
				logMu.Lock()
				log = append(log, ev)
				logMu.Unlock()
			})
		})
	}
	release()
	e.Wait()
	if err := e.Audit(); err != nil {
		panic(err)
	}
	return log, e.ParallelGrants()
}

// TestParallelMatchesSerial is the executor's main theorem at the engine
// level: the totally-ordered event log of the randomized multi-vCPU
// workload must be bit-identical between the serial engine and the
// horizon-parallel executor at every worker budget, and the sweep must
// actually grant early commits or the differential is vacuous.
func TestParallelMatchesSerial(t *testing.T) {
	var grants int64
	for _, seed := range []int64{1, 42, 20230817} {
		for _, cores := range []int{0, 4} {
			serial := runHeapStress(seed, cores)
			for _, workers := range []int{2, 4, stressCPUs} {
				par, g := runParallelStress(seed, cores, workers)
				grants += g
				if !reflect.DeepEqual(serial, par) {
					n := len(serial)
					if len(par) < n {
						n = len(par)
					}
					for i := 0; i < n; i++ {
						if serial[i] != par[i] {
							t.Fatalf("seed=%d cores=%d workers=%d: schedules diverge at event %d: serial=%+v parallel=%+v",
								seed, cores, workers, i, serial[i], par[i])
						}
					}
					t.Fatalf("seed=%d cores=%d workers=%d: event counts differ: serial=%d parallel=%d",
						seed, cores, workers, len(serial), len(par))
				}
			}
		}
	}
	if grants == 0 {
		t.Fatal("no early commits granted across the sweep; differential is vacuous")
	}
}

// TestParallelRunToRunDeterminism re-runs the same seed under the executor
// and asserts the event log is identical — determinism must not depend on
// which charges happen to commit early in real time.
func TestParallelRunToRunDeterminism(t *testing.T) {
	first, _ := runParallelStress(7, 4, 4)
	for run := 0; run < 3; run++ {
		if got, _ := runParallelStress(7, 4, 4); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d: event log differs from first run", run)
		}
	}
}

// TestParallelSoloHandoff pins the solo↔parallel precedence: with one
// runnable vCPU the solo bypass must win (and subsume any standing grant),
// and when the population drops back to one mid-run the engine must hand
// off cleanly with exact clock arithmetic.
func TestParallelSoloHandoff(t *testing.T) {
	e := NewEngine()
	e.SetParallel(4)
	e.Go(0, func(c *CPU) {
		for i := 0; i < 1000; i++ {
			c.Advance(10)
		}
	})
	e.Wait()
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	if e.SoloGrants() == 0 {
		t.Fatal("solo bypass did not engage with one vCPU and the executor on")
	}
	if got := e.Makespan(); got != 10_000 {
		t.Fatalf("makespan = %d, want 10000", got)
	}

	// Multi → solo: one vCPU finishes early, the survivor must be handed
	// the solo grant (returning any early-commit grant it held) and still
	// land on the exact serial clocks.
	e2 := NewEngine()
	e2.SetParallel(2)
	release := e2.Hold()
	e2.Go(0, func(c *CPU) {
		for i := 0; i < 100; i++ {
			c.Advance(5)
		}
	})
	e2.Go(0, func(c *CPU) {
		for i := 0; i < 1000; i++ {
			c.Advance(7)
		}
	})
	release()
	e2.Wait()
	if err := e2.Err(); err != nil {
		t.Fatal(err)
	}
	if err := e2.Audit(); err != nil {
		t.Fatal(err)
	}
	clocks := e2.Clocks()
	if clocks[0] != 500 || clocks[1] != 7000 {
		t.Fatalf("clocks = %v, want [500 7000]", clocks)
	}
}

// TestParallelRevocationStress toggles the worker budget (and revokes solo)
// at nondeterministic real times while a contended workload runs. Any
// prefix of early commits is serial-equivalent, so the observables must
// match a fully serial run of the same workload exactly; this is also the
// race-detector stress for the grant/ungrant handshake.
func TestParallelRevocationStress(t *testing.T) {
	run := func(toggle bool) ([]int64, int64) {
		e := NewEngine()
		e.SetCores(4)
		l := e.NewLock("mmu")
		stop := make(chan struct{})
		release := e.Hold()
		for i := 0; i < 8; i++ {
			e.Go(0, func(c *CPU) {
				for j := 0; j < 2000; j++ {
					c.Advance(int64(3 + j%7))
					if j%5 == 0 {
						l.With(c, 10, nil)
					}
					if j%3 == 0 {
						c.Compute(int64(1 + j%11))
					}
					c.AdvanceLazy(int64(j % 4))
					if j%11 == 0 {
						c.Sync()
					}
				}
			})
		}
		release()
		if toggle {
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					switch i % 3 {
					case 0:
						e.SetParallel(4)
					case 1:
						e.SetParallel(0)
					case 2:
						e.RevokeSolo()
					}
					time.Sleep(50 * time.Microsecond)
				}
			}()
			defer wg.Wait()
		}
		e.Wait()
		close(stop)
		if err := e.Err(); err != nil {
			t.Fatal(err)
		}
		if err := e.Audit(); err != nil {
			t.Fatal(err)
		}
		return e.Clocks(), e.Makespan()
	}
	serialClocks, serialSpan := run(false)
	for round := 0; round < 3; round++ {
		clocks, span := run(true)
		if !reflect.DeepEqual(clocks, serialClocks) || span != serialSpan {
			t.Fatalf("round %d: revocation changed observables: clocks %v vs %v, makespan %d vs %d",
				round, clocks, serialClocks, span, serialSpan)
		}
	}
}

// TestParallelPanicDrain pins the abort path under the executor: a panic on
// a granted vCPU must surface through Engine.Err and every other vCPU —
// including ones parked with declared charges awaiting their slot — must
// drain instead of deadlocking.
func TestParallelPanicDrain(t *testing.T) {
	e := NewEngine()
	e.SetParallel(2)
	l := e.NewLock("mmu")
	release := e.Hold()
	for i := 0; i < 8; i++ {
		e.Go(0, func(c *CPU) {
			for j := 0; j < 100000; j++ {
				l.With(c, 10, nil)
				c.Advance(5)
				c.Compute(3)
			}
		})
	}
	e.Go(0, func(c *CPU) {
		c.Advance(50_000)
		panic("boom")
	})
	release()
	done := make(chan struct{})
	go func() {
		e.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Wait did not return after a workload panic (drain deadlock)")
	}
	err := e.Err()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Err() = %v, want the workload panic message", err)
	}
}

// TestParallelMidRunAudit runs the structural audit from a workload vCPU
// between operations while grants are outstanding on its peers.
func TestParallelMidRunAudit(t *testing.T) {
	e := NewEngine()
	e.SetCores(4)
	e.SetParallel(4)
	release := e.Hold()
	for i := 0; i < 6; i++ {
		e.Go(0, func(c *CPU) {
			for j := 0; j < 500; j++ {
				c.Advance(int64(2 + j%5))
				if j%17 == 0 {
					c.Sync()
					if err := e.Audit(); err != nil {
						panic(err)
					}
				}
			}
		})
	}
	release()
	e.Wait()
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	if g := e.ParallelGrants(); g == 0 {
		t.Fatal("executor never granted an early commit in the audit stress")
	}
}
