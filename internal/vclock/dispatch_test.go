package vclock

import (
	"reflect"
	"runtime"
	"testing"
	"time"
)

// waitWithin reports whether e.Wait returns within d.
func waitWithin(e *Engine, d time.Duration) bool {
	done := make(chan struct{})
	go func() {
		e.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

// TestGoexitKeepsDispatching: a coroutine's runtime.Goexit (t.FailNow calls
// it) is re-raised in the dispatcher goroutine that resumed it. The vCPU
// that exits must end as if it had returned at that point, and the engine's
// other vCPUs, and a later batch of Go, must still be dispatched to
// completion.
func TestGoexitKeepsDispatching(t *testing.T) {
	run := func(exit bool) (*Engine, *Lock) {
		e := NewEngine()
		l := e.NewLock("mmu")
		release := e.Hold()
		for i := 0; i < 3; i++ {
			e.Go(0, func(c *CPU) {
				for k := 0; k < 50; k++ {
					l.With(c, int64(10+c.ID()), nil)
					if c.ID() == 2 {
						if exit {
							runtime.Goexit()
						}
						return
					}
					c.Advance(int64(5 + 3*c.ID()))
				}
			})
		}
		release()
		if !waitWithin(e, 10*time.Second) {
			t.Fatalf("exit=%v: Wait did not return: the dispatcher stopped", exit)
		}
		if err := e.Err(); err != nil {
			t.Fatalf("exit=%v: %v", exit, err)
		}
		if err := e.Audit(); err != nil {
			t.Fatalf("exit=%v: %v", exit, err)
		}
		return e, l
	}
	want, _ := run(false)
	e, l := run(true)
	if got, want := e.Clocks(), want.Clocks(); !reflect.DeepEqual(got, want) {
		t.Fatalf("clocks after Goexit = %v, want %v as after a return", got, want)
	}

	ran := 0
	for i := 0; i < 2; i++ {
		e.Go(e.Makespan(), func(c *CPU) {
			l.With(c, 7, nil)
			c.Advance(3)
			ran++ // coroutines of one engine never run at once
		})
	}
	if !waitWithin(e, 10*time.Second) {
		t.Fatal("Wait did not return for a batch launched after the Goexit")
	}
	if ran != 2 {
		t.Fatalf("%d of the 2 later vCPUs ran", ran)
	}
	if err := e.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestGoDepartureDeterministic runs the two scripts of the ROADMAP item
// "Order every vCPU's departure" on Go-launched vCPUs: vCPU 0's last gated
// operation moves its clock, and Done does not gate it. On goroutines,
// whether vCPU 1's dilated Compute still counted vCPU 0 runnable was a race
// (11 or 21). One dispatcher runs vCPU 0 to its departure before vCPU 1
// starts, so every run reads the ungated answer, 11; a gated departure
// would read 21.
func TestGoDepartureDeterministic(t *testing.T) {
	runs := 3000
	if testing.Short() {
		runs = 300
	}
	for _, s := range []struct {
		name string
		last func(c *CPU, d int64)
	}{
		{"advance", (*CPU).Advance},
		{"compute", (*CPU).Compute},
	} {
		seen := map[int64]int{}
		for i := 0; i < runs; i++ {
			e := NewEngine()
			e.SetCores(1)
			release := e.Hold()
			e.Go(0, func(c *CPU) { s.last(c, 100) })
			e.Go(0, func(c *CPU) {
				c.Advance(1)
				c.Compute(10)
			})
			release()
			e.Wait()
			seen[e.Clocks()[1]]++
		}
		if len(seen) != 1 || seen[11] != runs {
			t.Errorf("%s: vCPU 1's final clock over %d runs = %v, want 11 every time", s.name, runs, seen)
		}
	}
}
