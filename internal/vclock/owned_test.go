package vclock

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// ownedScript is a two-vCPU scenario run with A's lock either owned by A or
// left ordinary: the outcome must not tell the two apart. Each vCPU ends
// with an ordering point that does not move its clock, as a process exit
// does: a vCPU that finishes right after a gated charge leaves the
// schedule at a real-time point no gate orders, for owned locks or not.
type ownedScript struct {
	name  string
	cores int
	a, b  func(c *CPU, l *Lock, log func(string))
}

var ownedScripts = []ownedScript{
	{
		// A's release is its last ordering point; B's dilated Compute at
		// t=120 must still count A runnable, as it does while A waits at
		// its gated release (t=150).
		name:  "departure-at-last-release",
		cores: 1,
		a: func(c *CPU, l *Lock, _ func(string)) {
			c.AdvanceLazy(100)
			l.With(c, 50, nil)
			c.AdvanceLazy(30) // trailing private work: not an ordering point
		},
		b: func(c *CPU, _ *Lock, _ func(string)) {
			c.Advance(120)
			c.Compute(10)
			c.Advance(40)
			c.Compute(10)
			c.Sync()
		},
	},
	{
		// An owned critical section with a body gates once before it, so
		// the body's effect on shared state lands at A's exact slot.
		name: "body-ordering",
		a: func(c *CPU, l *Lock, log func(string)) {
			c.AdvanceLazy(100)
			l.With(c, 20, func() { log("A@100") })
			c.AdvanceLazy(60)
			l.With(c, 0, func() { log("A@180") })
		},
		b: func(c *CPU, _ *Lock, log func(string)) {
			for _, t := range []int64{50, 100, 30, 40} {
				c.Advance(t)
				c.Sync()
				log(fmt.Sprintf("B@%d", c.Now()))
			}
		},
	},
	{
		// Private sections and private Order legs between gated Computes
		// under oversubscription.
		name:  "private-legs",
		cores: 1,
		a: func(c *CPU, l *Lock, log func(string)) {
			for i := 0; i < 4; i++ {
				l.WithPrivate(c, 15, func() {})
				c.Order(25, true)
				c.Compute(10)
			}
			l.WithPrivate(c, 5, nil)
			c.Order(0, true)
		},
		b: func(c *CPU, _ *Lock, _ func(string)) {
			for i := 0; i < 6; i++ {
				c.Compute(17)
				c.AdvanceLazy(9)
			}
			c.Sync()
		},
	},
}

type ownedOutcome struct {
	Clocks []int64
	Stats  LockStats
	Log    []string
}

func runOwnedScript(t *testing.T, s ownedScript, owned bool, parallel int, soloOff bool) (ownedOutcome, int64) {
	t.Helper()
	e := NewEngine()
	e.SetCores(s.cores)
	e.SetParallel(parallel)
	e.SetSoloBypass(!soloOff)
	l := e.NewLock("guest-private")
	var mu sync.Mutex
	var logged []string
	log := func(msg string) {
		mu.Lock()
		logged = append(logged, msg)
		mu.Unlock()
	}
	release := e.Hold()
	a := e.Go(0, func(c *CPU) { s.a(c, l, log) })
	e.Go(0, func(c *CPU) { s.b(c, l, log) })
	if owned {
		l.Own(a)
	}
	release()
	e.Wait()
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	if err := e.Audit(); err != nil {
		t.Fatal(err)
	}
	return ownedOutcome{e.Clocks(), l.Stats(), logged}, e.Gates()
}

// TestOwnedLockMatchesGated: owning a lock changes how much a run orders,
// never what it computes — clocks, lock statistics and the order of
// shared-state effects match the ordinary lock, on the serial engine, with
// the solo bypass off, and under the horizon-parallel executor.
func TestOwnedLockMatchesGated(t *testing.T) {
	for _, s := range ownedScripts {
		for _, mode := range []struct {
			name     string
			parallel int
			soloOff  bool
		}{{"serial", 0, false}, {"solo-off", 0, true}, {"parallel-2", 2, false}} {
			t.Run(s.name+"/"+mode.name, func(t *testing.T) {
				for trial := 0; trial < 10; trial++ {
					want, gated := runOwnedScript(t, s, false, mode.parallel, mode.soloOff)
					got, gates := runOwnedScript(t, s, true, mode.parallel, mode.soloOff)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("owned lock changed the outcome:\n  owned %+v\n  gated %+v", got, want)
					}
					if gates >= gated {
						t.Fatalf("owned run paid %d gates, gated run %d", gates, gated)
					}
				}
			})
		}
	}
}

// TestForeignAcquireOfOwnedLockAborts: only the owner may take an owned
// lock; anyone else ends the run through Err, and Wait still returns.
func TestForeignAcquireOfOwnedLockAborts(t *testing.T) {
	e := NewEngine()
	l := e.NewLock("sandbox")
	release := e.Hold()
	owner := e.Go(0, func(c *CPU) {
		l.With(c, 10, nil)
		c.Advance(1000)
	})
	e.Go(5, func(c *CPU) {
		l.Acquire(c)
		t.Error("foreign Acquire of an owned lock returned")
	})
	l.Own(owner)
	release()
	e.Wait()
	err := e.Err()
	if err == nil || !strings.Contains(err.Error(), "owned by vCPU 0") {
		t.Fatalf("Err = %v, want the foreign acquisition reported", err)
	}
	if l.Stats().Acquisitions > 1 {
		t.Fatalf("stats = %+v: the foreign vCPU took the lock", l.Stats())
	}
}

// TestAuditReportsOwnedLockMisuse: an owned lock must never have waiters or
// a holder other than its owner.
func TestAuditReportsOwnedLockMisuse(t *testing.T) {
	for _, tc := range []struct {
		name   string
		break_ func(l *Lock, other *CPU)
		want   string
	}{
		{"waiter", func(l *Lock, other *CPU) { l.waiters = append(l.waiters, other) }, "waiters"},
		{"foreign-holder", func(l *Lock, other *CPU) { l.holder = other }, "is held by vCPU 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			owner, other := e.NewCPU(0), e.NewCPU(0)
			l := e.NewLock("sandbox")
			l.Own(owner)
			if err := e.Audit(); err != nil {
				t.Fatalf("clean engine: %v", err)
			}
			tc.break_(l, other)
			err := e.Audit()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Audit = %v, want a report containing %q", err, tc.want)
			}
		})
	}
}

// TestOwnRefusesBusyLock: a lock in use cannot change hands.
func TestOwnRefusesBusyLock(t *testing.T) {
	e := NewEngine()
	a, b := e.NewCPU(0), e.NewCPU(0)
	l := e.NewLock("busy")
	l.Acquire(a)
	defer func() {
		if recover() == nil {
			t.Fatal("Own of a held lock did not panic")
		}
	}()
	l.Own(b)
}

// TestGatesCount pins what Gates counts: gated operations and foreign-lock
// acquisitions, not lazy or private charges or owned acquisitions.
func TestGatesCount(t *testing.T) {
	e := NewEngine()
	l, m := e.NewLock("owned"), e.NewLock("shared")
	release := e.Hold()
	c := e.Go(0, func(c *CPU) {
		c.Advance(1)            // 1
		c.Sync()                // 2
		c.Compute(1)            // 3
		m.With(c, 1, nil)       // 5: acquire + release
		l.With(c, 1, nil)       // owned, no body: free
		l.With(c, 1, func() {}) // 6: one gate before the body
		l.WithPrivate(c, 1, func() {})
		c.AdvanceLazy(1)
		c.Order(1, true)  // elided: free
		c.Order(1, false) // 7
		c.Order(0, true)  // 8: Done departs at this elided point
	})
	l.Own(c)
	release()
	e.Wait()
	if got := e.Gates(); got != 8 {
		t.Fatalf("Gates = %d, want 8", got)
	}
}

// TestLockSizeClass: PVM creates one rmap lock per guest frame, so Lock must
// stay within the runtime's 112-byte allocation class.
func TestLockSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Lock{}); n > 112 {
		t.Fatalf("sizeof(Lock) = %d, want ≤ 112", n)
	}
}
