package vclock

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// stressOps abstracts an engine so the same randomized workload can drive
// both the heap engine and the linear reference.
type stressOps struct {
	advance func(d int64)
	compute func(d int64)
	lazy    func(d int64)
	acquire func(li int)
	release func(li int)
	gate    func() // Sync: block until at the global minimum
	now     func() int64
}

// stressEvent is one observation of the deterministic schedule: after each
// step the vCPU gates and records its clock. The sequence of events across
// all vCPUs is a total order fixed by the engine discipline.
type stressEvent struct {
	cpu  int
	step int
	t    int64
}

const (
	stressCPUs  = 12
	stressLocks = 4
	stressSteps = 120
)

// stressBody runs one vCPU's deterministic random op sequence. record is
// only called while the vCPU holds the global minimum clock (after gate), so
// the shared log order equals the engine's schedule.
func stressBody(id int, seed int64, ops stressOps, record func(stressEvent)) {
	rng := rand.New(rand.NewSource(seed + int64(id)*7919))
	held := -1
	for step := 0; step < stressSteps; step++ {
		switch rng.Intn(6) {
		case 0, 1:
			ops.advance(int64(1 + rng.Intn(500)))
		case 2:
			ops.compute(int64(1 + rng.Intn(300)))
		case 3:
			ops.lazy(int64(rng.Intn(50)))
		case 4:
			if held < 0 {
				held = rng.Intn(stressLocks)
				ops.acquire(held)
			} else {
				ops.advance(int64(1 + rng.Intn(100)))
				ops.release(held)
				held = -1
			}
		case 5:
			ops.gate()
		}
		ops.gate()
		record(stressEvent{cpu: id, step: step, t: ops.now()})
	}
	if held >= 0 {
		ops.release(held)
	}
}

func runHeapStress(seed int64, cores int) []stressEvent {
	e := NewEngine()
	e.SetCores(cores)
	locks := make([]*Lock, stressLocks)
	for i := range locks {
		locks[i] = e.NewLock("l")
	}
	var logMu sync.Mutex
	var log []stressEvent
	// Admit every vCPU before any runs, so the schedule cannot depend on
	// how far an early vCPU gets before a later one joins the heap.
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
	return log
}

func runLinearStress(seed int64, cores int) []stressEvent {
	e := newLinEngine(cores)
	locks := make([]*linLock, stressLocks)
	for i := range locks {
		locks[i] = e.newLock()
	}
	var logMu sync.Mutex
	var log []stressEvent
	release := e.hold()
	for i := 0; i < stressCPUs; i++ {
		id := i
		e.goCPU(0, func(c *linCPU) {
			ops := stressOps{
				advance: c.advance,
				compute: c.compute,
				lazy:    c.advanceLazy,
				acquire: func(li int) { locks[li].acquire(c) },
				release: func(li int) { locks[li].release(c) },
				gate:    c.syncGate,
				now:     c.nowVirtual,
			}
			stressBody(id, seed, ops, func(ev stressEvent) {
				logMu.Lock()
				log = append(log, ev)
				logMu.Unlock()
			})
		})
	}
	release()
	e.wait()
	return log
}

// TestHeapMatchesLinearReference drives the same randomized workload through
// the heap engine and the O(n) linear-scan reference and asserts the two
// produce the exact same totally-ordered event log — the heap (plus the
// intent-servicing fast path) is a pure data-structure swap, never a
// scheduling change.
func TestHeapMatchesLinearReference(t *testing.T) {
	for _, seed := range []int64{1, 42, 20230817} {
		for _, cores := range []int{0, 4} {
			heap := runHeapStress(seed, cores)
			lin := runLinearStress(seed, cores)
			if !reflect.DeepEqual(heap, lin) {
				n := len(heap)
				if len(lin) < n {
					n = len(lin)
				}
				for i := 0; i < n; i++ {
					if heap[i] != lin[i] {
						t.Fatalf("seed=%d cores=%d: schedules diverge at event %d: heap=%+v linear=%+v",
							seed, cores, i, heap[i], lin[i])
					}
				}
				t.Fatalf("seed=%d cores=%d: event counts differ: heap=%d linear=%d",
					seed, cores, len(heap), len(lin))
			}
		}
	}
}

// TestHeapStressRunToRunDeterminism re-runs the same seed on the heap engine
// and asserts the event log is identical — determinism does not depend on
// the Go scheduler's real-time interleaving.
func TestHeapStressRunToRunDeterminism(t *testing.T) {
	first := runHeapStress(7, 4)
	for run := 0; run < 3; run++ {
		if got := runHeapStress(7, 4); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d: event log differs from first run", run)
		}
	}
}

// TestPanicAbortsAndDrains pins the abort path: a workload panic must turn
// into Engine.Err, and Wait must drain every other vCPU — including ones
// parked at the min-clock gate or on lock waiter queues — instead of
// deadlocking.
func TestPanicAbortsAndDrains(t *testing.T) {
	e := NewEngine()
	l := e.NewLock("mmu")
	for i := 0; i < 8; i++ {
		e.Go(0, func(c *CPU) {
			for j := 0; j < 100000; j++ {
				l.With(c, 10, nil)
				c.Advance(5)
			}
		})
	}
	e.Go(0, func(c *CPU) {
		c.Advance(50_000)
		panic("boom")
	})
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
