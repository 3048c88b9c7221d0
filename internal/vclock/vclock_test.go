package vclock

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestAdvanceAccumulates(t *testing.T) {
	e := NewEngine()
	c := e.Go(0, func(c *CPU) {
		c.Advance(10)
		c.Advance(5)
	})
	e.Wait()
	if got := e.Makespan(); got != 15 {
		t.Fatalf("makespan = %d, want 15", got)
	}
	if c.Advanced != 15 {
		t.Fatalf("Advanced = %d, want 15", c.Advanced)
	}
}

func TestMinClockOrdering(t *testing.T) {
	// Two CPUs append to a shared trace; once both are admitted under Hold,
	// the engine must order appends by (virtual time, id) regardless of
	// goroutine scheduling.
	for trial := 0; trial < 20; trial++ {
		e := NewEngine()
		var mu sync.Mutex
		var trace []int
		release := e.Hold()

		log := func(c *CPU, tag int) {
			c.Sync()
			mu.Lock()
			trace = append(trace, tag)
			mu.Unlock()
		}

		e.Go(0, func(c *CPU) {
			c.Advance(10)
			log(c, 1) // t=10
			c.Advance(30)
			log(c, 3) // t=40
		})
		e.Go(0, func(c *CPU) {
			c.Advance(20)
			log(c, 2) // t=20
			c.Advance(40)
			log(c, 4) // t=60
		})
		release()
		e.Wait()

		want := []int{1, 2, 3, 4}
		for i, v := range want {
			if trace[i] != v {
				t.Fatalf("trial %d: trace = %v, want %v", trial, trace, want)
			}
		}
	}
}

func TestLockSerializes(t *testing.T) {
	e := NewEngine()
	l := e.NewLock("mmu")
	// Three CPUs each hold the lock for 100ns starting at t=0.
	release := e.Hold()
	for i := 0; i < 3; i++ {
		e.Go(0, func(c *CPU) {
			l.Acquire(c)
			c.Advance(100)
			l.Release(c)
		})
	}
	release()
	e.Wait()
	if got := e.Makespan(); got != 300 {
		t.Fatalf("makespan = %d, want 300 (serialized)", got)
	}
	st := l.Stats()
	if st.Acquisitions != 3 {
		t.Fatalf("acquisitions = %d, want 3", st.Acquisitions)
	}
	if st.Contended != 2 {
		t.Fatalf("contended = %d, want 2", st.Contended)
	}
	if st.HeldTime != 300 {
		t.Fatalf("held time = %d, want 300", st.HeldTime)
	}
	if st.WaitTime != 100+200 {
		t.Fatalf("wait time = %d, want 300", st.WaitTime)
	}
}

func TestFineGrainedLocksRunInParallel(t *testing.T) {
	e := NewEngine()
	// Each CPU gets its own lock: no serialization.
	for i := 0; i < 8; i++ {
		l := e.NewLock("pt")
		e.Go(0, func(c *CPU) {
			l.Acquire(c)
			c.Advance(100)
			l.Release(c)
		})
	}
	e.Wait()
	if got := e.Makespan(); got != 100 {
		t.Fatalf("makespan = %d, want 100 (parallel)", got)
	}
}

func TestLockHandoffOrder(t *testing.T) {
	// Waiters must be granted in (clock, id) order: the earliest-blocked
	// CPU gets the lock first.
	e := NewEngine()
	l := e.NewLock("h")
	var mu sync.Mutex
	var order []string

	release := e.Hold()
	e.Go(0, func(c *CPU) { // holder: holds [0, 500)
		l.Acquire(c)
		c.Advance(500)
		l.Release(c)
	})
	e.Go(0, func(c *CPU) { // waiter A: arrives at t=100
		c.Advance(100)
		l.Acquire(c)
		mu.Lock()
		order = append(order, "A")
		mu.Unlock()
		c.Advance(10)
		l.Release(c)
	})
	e.Go(0, func(c *CPU) { // waiter B: arrives at t=50, must win
		c.Advance(50)
		l.Acquire(c)
		mu.Lock()
		order = append(order, "B")
		mu.Unlock()
		c.Advance(10)
		l.Release(c)
	})
	release()
	e.Wait()
	if len(order) != 2 || order[0] != "B" || order[1] != "A" {
		t.Fatalf("handoff order = %v, want [B A]", order)
	}
	// B resumes at 500, holds 10; A resumes at 510, holds 10.
	if got := e.Makespan(); got != 520 {
		t.Fatalf("makespan = %d, want 520", got)
	}
}

func TestComputeDilation(t *testing.T) {
	e := NewEngine()
	e.SetCores(2)
	// Four CPUs each need 100ns of compute on 2 cores: everything dilates
	// 2x while all four are runnable.
	release := e.Hold()
	for i := 0; i < 4; i++ {
		e.Go(0, func(c *CPU) {
			c.Compute(100)
		})
	}
	release()
	e.Wait()
	if got := e.Makespan(); got != 200 {
		t.Fatalf("makespan = %d, want 200 (2x dilation)", got)
	}
}

func TestComputeNoDilationUnderSubscription(t *testing.T) {
	e := NewEngine()
	e.SetCores(8)
	for i := 0; i < 4; i++ {
		e.Go(0, func(c *CPU) { c.Compute(100) })
	}
	e.Wait()
	if got := e.Makespan(); got != 100 {
		t.Fatalf("makespan = %d, want 100", got)
	}
}

func TestDeterministicMakespan(t *testing.T) {
	run := func() int64 {
		e := NewEngine()
		shared := e.NewLock("shared")
		release := e.Hold()
		for i := 0; i < 6; i++ {
			step := int64(i%3 + 1)
			e.Go(0, func(c *CPU) {
				for k := 0; k < 50; k++ {
					c.Advance(step * 7)
					shared.Acquire(c)
					c.Advance(13)
					shared.Release(c)
				}
			})
		}
		release()
		e.Wait()
		return e.Makespan()
	}
	first := run()
	for i := 0; i < 10; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d: makespan = %d, want %d (nondeterministic)", i, got, first)
		}
	}
}

func TestLockStatsDeterministic(t *testing.T) {
	run := func() LockStats {
		e := NewEngine()
		l := e.NewLock("s")
		release := e.Hold()
		for i := 0; i < 5; i++ {
			e.Go(int64(i), func(c *CPU) {
				for k := 0; k < 20; k++ {
					l.Acquire(c)
					c.Advance(9)
					l.Release(c)
					c.Advance(3)
				}
			})
		}
		release()
		e.Wait()
		return l.Stats()
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d: stats = %+v, want %+v", i, got, first)
		}
	}
}

func TestChildCPUJoinsAtParentTime(t *testing.T) {
	e := NewEngine()
	e.Go(0, func(c *CPU) {
		c.Advance(100)
		child := e.Go(c.Now(), func(cc *CPU) {
			cc.Advance(50)
		})
		_ = child
		c.Advance(10)
	})
	e.Wait()
	if got := e.Makespan(); got != 150 {
		t.Fatalf("makespan = %d, want 150", got)
	}
}

func TestRecursiveAcquirePanics(t *testing.T) {
	e := NewEngine()
	l := e.NewLock("r")
	donec := make(chan any, 1)
	e.Go(0, func(c *CPU) {
		defer func() { donec <- recover() }()
		l.Acquire(c)
		l.Acquire(c)
	})
	e.Wait()
	if r := <-donec; r == nil {
		t.Fatal("recursive acquire did not panic")
	}
}

func TestReleaseByNonHolderPanics(t *testing.T) {
	e := NewEngine()
	l := e.NewLock("r")
	donec := make(chan any, 1)
	e.Go(0, func(c *CPU) {
		defer func() { donec <- recover() }()
		l.Release(c)
	})
	e.Wait()
	if r := <-donec; r == nil {
		t.Fatal("release by non-holder did not panic")
	}
}

func TestNegativeAdvancePanics(t *testing.T) {
	e := NewEngine()
	donec := make(chan any, 1)
	e.Go(0, func(c *CPU) {
		defer func() { donec <- recover() }()
		c.Advance(-1)
	})
	e.Wait()
	if r := <-donec; r == nil {
		t.Fatal("negative advance did not panic")
	}
}

// Property: for any set of per-CPU (work, hold) schedules, a single shared
// lock yields makespan >= sum of all hold times, and >= each CPU's own total
// time; with no contention (distinct locks) the makespan equals the max CPU
// total.
func TestPropertyLockMakespanBounds(t *testing.T) {
	type sched struct {
		Work uint16
		Hold uint16
		Iter uint8
	}
	f := func(scheds []sched) bool {
		if len(scheds) == 0 {
			return true
		}
		if len(scheds) > 8 {
			scheds = scheds[:8]
		}
		// Shared-lock run.
		e := NewEngine()
		l := e.NewLock("shared")
		var totalHold int64
		var maxOwn int64
		for _, s := range scheds {
			iters := int64(s.Iter%5) + 1
			work := int64(s.Work % 1000)
			hold := int64(s.Hold % 1000)
			totalHold += iters * hold
			own := iters * (work + hold)
			if own > maxOwn {
				maxOwn = own
			}
			e.Go(0, func(c *CPU) {
				for k := int64(0); k < iters; k++ {
					c.Advance(work)
					l.Acquire(c)
					c.Advance(hold)
					l.Release(c)
				}
			})
		}
		e.Wait()
		m := e.Makespan()
		if m < totalHold || m < maxOwn {
			return false
		}

		// Private-lock run: no contention.
		e2 := NewEngine()
		var maxOwn2 int64
		for _, s := range scheds {
			iters := int64(s.Iter%5) + 1
			work := int64(s.Work % 1000)
			hold := int64(s.Hold % 1000)
			own := iters * (work + hold)
			if own > maxOwn2 {
				maxOwn2 = own
			}
			pl := e2.NewLock("private")
			e2.Go(0, func(c *CPU) {
				for k := int64(0); k < iters; k++ {
					c.Advance(work)
					pl.Acquire(c)
					c.Advance(hold)
					pl.Release(c)
				}
			})
		}
		e2.Wait()
		return e2.Makespan() == maxOwn2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
