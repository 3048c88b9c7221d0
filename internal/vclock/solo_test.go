package vclock

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// Solo-bypass edge cases: the fast path must engage when a vCPU runs alone,
// disengage across admissions, lock intents, and aborts, and never change a
// single unit of virtual-time accounting relative to the gated engine.

// TestSoloSingleVCPU: a lone vCPU runs its whole life on the fast path —
// one grant, exact clock arithmetic across eager, lazy, lock, and compute
// charges.
func TestSoloSingleVCPU(t *testing.T) {
	e := NewEngine()
	l := e.NewLock("l")
	e.Go(0, func(c *CPU) {
		c.Advance(10)
		c.AdvanceLazy(5)
		l.With(c, 7, nil)
		c.Sync()
		c.Compute(3)
	})
	e.Wait()
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	if g := e.SoloGrants(); g != 1 {
		t.Fatalf("SoloGrants = %d, want 1", g)
	}
	if m := e.Makespan(); m != 25 {
		t.Fatalf("makespan = %d, want 25", m)
	}
	st := l.Stats()
	if st.Acquisitions != 1 || st.Contended != 0 || st.HeldTime != 7 {
		t.Fatalf("lock stats = %+v", st)
	}
}

// TestSoloReentryAfterPeerDone: admitting a peer revokes the grant; the
// peer's Done re-enters solo mode for the survivor (SoloGrants increases)
// and the survivor's subsequent operations still account correctly.
func TestSoloReentryAfterPeerDone(t *testing.T) {
	e := NewEngine()
	b := e.NewCPU(0) // id 0: holds the min clock, runs first
	a := e.NewCPU(0) // id 1: the survivor
	if g := e.SoloGrants(); g != 1 {
		t.Fatalf("SoloGrants after two admissions = %d, want 1", g)
	}
	bDone := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		b.Advance(5)
		b.Done() // leaves a as the sole runnable vCPU: re-grant fires here
		close(bDone)
	}()
	go func() {
		defer wg.Done()
		defer a.Done()
		<-bDone
		if g := e.SoloGrants(); g != 2 {
			t.Errorf("SoloGrants after peer Done = %d, want 2", g)
		}
		a.Advance(10) // fast path
	}()
	wg.Wait()
	if m := e.Makespan(); m != 10 {
		t.Fatalf("makespan = %d, want 10", m)
	}
	if g := e.SoloGrants(); g != 2 {
		t.Fatalf("final SoloGrants = %d, want 2", g)
	}
}

// TestSoloGrantClearedAtDeparture: a vCPU whose last ordering point was
// elided (an owned lock's release) waits in Done until it is the root. Its
// peer's Done then leaves it as the sole runnable vCPU and grants it the
// solo path while it is still parked there; Done must revoke that grant
// before the vCPU leaves the heap, or a grant stands with nothing runnable.
func TestSoloGrantClearedAtDeparture(t *testing.T) {
	e := NewEngine()
	l := e.NewLock("own")
	release := e.Hold()
	a := e.Go(0, func(a *CPU) {
		l.Acquire(a)
		a.AdvanceLazy(100)
		l.Release(a)
	})
	l.Own(a)
	e.Go(0, func(b *CPU) {
		b.Advance(10)
		b.Advance(10)
	})
	release()
	e.Wait()
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	if err := e.Audit(); err != nil {
		t.Fatal(err)
	}
	if m := e.Makespan(); m != 100 {
		t.Fatalf("makespan = %d, want 100", m)
	}
}

// TestSoloLockIntentDuringHold: a solo vCPU acquires a lock on the fast
// path, then a newly admitted peer registers a lock intent (pendingLock)
// behind it. The admission revokes the grant, the intent is applied inline
// as the holder's clock crosses the peer's slot, the release hands off
// deterministically, and contention accounting matches the gated engine's
// arithmetic exactly.
func TestSoloLockIntentDuringHold(t *testing.T) {
	e := NewEngine()
	l := e.NewLock("mmu")
	e.Go(0, func(a *CPU) {
		a.Advance(10)
		l.Acquire(a) // solo fast acquire at t=10
		e.Go(15, func(b *CPU) {
			l.Acquire(b) // not at root: declares intent, parks until handoff
			b.Advance(1)
			l.Release(b)
		})
		a.Advance(10) // t=20: crossing b's slot applies the intent inline
		l.Release(a)  // handoff: b resumes at t=20 having waited 5
		a.Advance(1)
	})
	e.Wait()
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	if m := e.Makespan(); m != 21 {
		t.Fatalf("makespan = %d, want 21", m)
	}
	st := l.Stats()
	if st.Acquisitions != 2 || st.Contended != 1 || st.WaitTime != 5 || st.HeldTime != 11 {
		t.Fatalf("lock stats = %+v, want 2 acquisitions, 1 contended, wait 5, held 11", st)
	}
	// Grant #1 at a's admission (revoked when b is admitted), grant #2 for
	// whichever vCPU outlives the other. No grant may occur while b sits on
	// the waiter queue (lockWaiters > 0 pins the engine gated).
	if g := e.SoloGrants(); g != 2 {
		t.Fatalf("SoloGrants = %d, want 2", g)
	}
}

// TestSoloAbortDrains: a panic on the fast path aborts the run; Wait
// returns instead of deadlocking and Err carries the panic.
func TestSoloAbortDrains(t *testing.T) {
	e := NewEngine()
	e.Go(0, func(c *CPU) {
		c.Advance(5) // fast path: grant is standing when the panic fires
		panic("boom")
	})
	e.Wait()
	if err := e.Err(); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Err = %v, want panic message", err)
	}
	if g := e.SoloGrants(); g != 1 {
		t.Fatalf("SoloGrants = %d, want 1", g)
	}
}

// TestSoloAbortDrainsLockWaiter: the panicking vCPU holds a lock another
// vCPU is queued on; the abort must wake and unwind the waiter too.
func TestSoloAbortDrainsLockWaiter(t *testing.T) {
	e := NewEngine()
	l := e.NewLock("l")
	e.Go(0, func(a *CPU) {
		l.Acquire(a) // solo fast acquire
		e.Go(0, func(b *CPU) {
			l.Acquire(b) // queues behind a, parks
			t.Error("waiter acquired a lock whose holder panicked")
		})
		a.Advance(1)
		panic("holder died")
	})
	e.Wait()
	if err := e.Err(); err == nil || !strings.Contains(err.Error(), "holder died") {
		t.Fatalf("Err = %v, want holder panic", err)
	}
}

// TestSetSoloBypassMidRun: the workload disables the bypass mid-flight
// (revoking its own standing grant), runs gated, and re-enables it; the
// re-grant engages and accounting is unchanged.
func TestSetSoloBypassMidRun(t *testing.T) {
	e := NewEngine()
	e.Go(0, func(c *CPU) {
		c.Advance(4) // fast
		e.SetSoloBypass(false)
		c.Advance(6) // gated
		if g := e.SoloGrants(); g != 1 {
			t.Errorf("SoloGrants while disabled = %d, want 1", g)
		}
		e.SetSoloBypass(true) // immediate re-grant: sole runnable vCPU
		c.Advance(2)          // fast again
	})
	e.Wait()
	if m := e.Makespan(); m != 12 {
		t.Fatalf("makespan = %d, want 12", m)
	}
	if g := e.SoloGrants(); g != 2 {
		t.Fatalf("SoloGrants = %d, want 2", g)
	}
}

// TestSoloRevocationStress revokes and re-enables the solo grant from
// another goroutine, at real times no schedule fixes, while a lone vCPU runs
// a long mixed workload. With one vCPU the grant stands most of the time, so
// most revocations land on or between fast-path operations. The driver also
// admits a peer vCPU at time 0, which takes one charge and leaves: the
// admission revokes the grant and then reads the lone vCPU's clock to place
// the peer in the heap, which the soloActive/soloBusy handshake must order
// after any fast operation in flight (the race detector reports it if not).
// The peer never touches the lock and cores is unlimited, so the lone
// vCPU's time is its own: every charge must be exactly accounted, which the
// vCPU checks against its own running sum as it goes. The makespan must
// match an untoggled run's, Audit must pass, and the grant must have been
// re-issued at least once or the stress is vacuous.
func TestSoloRevocationStress(t *testing.T) {
	const iters = 200_000
	run := func(toggle bool) (makespan, grants int64) {
		e := NewEngine()
		l := e.NewLock("mmu")
		e.Go(0, func(c *CPU) {
			var want int64
			for j := 0; j < iters; j++ {
				d := int64(3 + j%7)
				c.Advance(d)
				want += d
				if j%5 == 0 {
					l.With(c, 10, nil)
					want += 10
				}
				if j%3 == 0 {
					d = int64(1 + j%11)
					c.Compute(d)
					want += d
				}
				d = int64(j % 4)
				c.AdvanceLazy(d)
				want += d
				if j%11 == 0 {
					c.Sync()
				}
				if j%13 == 0 {
					if got := c.Now(); got != want {
						panic(fmt.Sprintf("iteration %d: Now = %d, want %d", j, got, want))
					}
				}
			}
		})
		stop := make(chan struct{})
		var wg sync.WaitGroup
		if toggle {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					switch i % 4 {
					case 0:
						e.RevokeSolo()
					case 1:
						e.SetSoloBypass(false)
					case 2:
						e.SetSoloBypass(true)
					case 3:
						p := e.NewCPU(0)
						p.Advance(1)
						p.Done()
					}
					time.Sleep(20 * time.Microsecond)
				}
			}()
		}
		e.Wait()
		close(stop)
		wg.Wait()
		if err := e.Err(); err != nil {
			t.Fatal(err)
		}
		if err := e.Audit(); err != nil {
			t.Fatal(err)
		}
		return e.Makespan(), e.SoloGrants()
	}
	want, _ := run(false)
	got, grants := run(true)
	if got != want {
		t.Fatalf("makespan = %d under revocation, want %d", got, want)
	}
	if grants < 2 {
		t.Fatalf("SoloGrants = %d: the grant was never revoked and re-issued", grants)
	}
	t.Logf("%d solo grants", grants)
}

// The solo-bypass on/off differential lives in internal/check
// (TestSoloBypassDifferential): the metamorphic oracle runs full guest
// workloads both ways and compares clocks, metrics, and trace digests,
// which subsumes the engine-level script this file used to carry.
