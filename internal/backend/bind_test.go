package backend

import (
	"strings"
	"testing"

	"repro/internal/vclock"
)

// TestBoundGuestRefusesForeignVCPU: once bound, a guest runs processes on
// its vCPU only — NewProcess and Fork on any other vCPU fail with an error
// before touching any state, and the guest cannot be rebound elsewhere.
func TestBoundGuestRefusesForeignVCPU(t *testing.T) {
	for _, cfg := range Configs() {
		t.Run(cfg.String(), func(t *testing.T) {
			s := NewSystem(cfg, DefaultOptions())
			g, err := s.NewGuest("sandbox")
			if err != nil {
				t.Fatal(err)
			}
			owner, other := s.Eng.NewCPU(0), s.Eng.NewCPU(0)
			if err := g.Bind(owner); err != nil {
				t.Fatal(err)
			}
			if err := g.Bind(owner); err != nil {
				t.Fatalf("rebinding to the same vCPU: %v", err)
			}
			if _, err := g.Kern.NewProcess(other); err == nil || !strings.Contains(err.Error(), "refuses a process on vCPU 1") {
				t.Fatalf("NewProcess on a foreign vCPU: err = %v", err)
			}
			if err := g.Bind(other); err == nil {
				t.Fatal("a bound guest was rebound to another vCPU")
			}
			// One goroutine drives both vCPUs: retire the idle one so the
			// owner's gates never wait on it.
			other.Done()
			p, err := g.Kern.NewProcess(owner)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.Fork(other); err == nil {
				t.Fatal("Fork onto a foreign vCPU succeeded")
			}
			if n := g.Kern.Procs(); n != 1 {
				t.Fatalf("live processes = %d after the refusals, want 1", n)
			}
			if err := p.Exit(); err != nil {
				t.Fatal(err)
			}
			owner.Done()
			if err := s.Eng.Audit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBindRefusesGuestWithForeignProcess: a guest already running a process
// on another vCPU cannot be bound.
func TestBindRefusesGuestWithForeignProcess(t *testing.T) {
	s := NewSystem(PVMBM, DefaultOptions())
	g, err := s.NewGuest("shared")
	if err != nil {
		t.Fatal(err)
	}
	a, b := s.Eng.NewCPU(0), s.Eng.NewCPU(0)
	p, err := g.Kern.NewProcess(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Bind(b); err == nil || !strings.Contains(err.Error(), "runs on vCPU 0") {
		t.Fatalf("Bind with a foreign live process: err = %v", err)
	}
	b.Done() // one goroutine drives both vCPUs (see above)
	if err := p.Exit(); err != nil {
		t.Fatal(err)
	}
	a.Done()
}

// TestBoundGuestRunOnForeignVCPUAborts: Guest.Run launches a process on a
// fresh vCPU; on a bound guest that is a misconfiguration, reported through
// Engine.Err while Wait still returns.
func TestBoundGuestRunOnForeignVCPUAborts(t *testing.T) {
	s := NewSystem(KVMSPTBM, DefaultOptions())
	g, err := s.NewGuest("sandbox")
	if err != nil {
		t.Fatal(err)
	}
	release := s.Eng.Hold()
	s.Eng.Go(0, func(c *vclock.CPU) {
		if err := g.Bind(c); err != nil {
			panic(err)
		}
		p, err := g.Kern.StartProcess(c, 4)
		if err != nil {
			panic(err)
		}
		p.Compute(50_000)
		if err := p.Exit(); err != nil {
			panic(err)
		}
	})
	s.Eng.Go(10_000, func(c *vclock.CPU) {
		c.Advance(1) // the owner binds at t=0, before this vCPU acts
		if _, err := g.Kern.StartProcess(c, 4); err != nil {
			panic(err)
		}
	})
	release()
	s.Eng.Wait()
	if err := s.Eng.Err(); err == nil || !strings.Contains(err.Error(), "refuses a process") {
		t.Fatalf("Err = %v, want the refused process reported", err)
	}
}

// TestBoundGuestLocksAreOwned: binding hands the guest's own locks to its
// vCPU and leaves the nested L1 instance's mmu_lock shared.
func TestBoundGuestLocksAreOwned(t *testing.T) {
	for _, cfg := range Configs() {
		t.Run(cfg.String(), func(t *testing.T) {
			s := NewSystem(cfg, DefaultOptions())
			g, err := s.NewGuest("sandbox")
			if err != nil {
				t.Fatal(err)
			}
			c := s.Eng.NewCPU(0)
			defer c.Done()
			if err := g.Bind(c); err != nil {
				t.Fatal(err)
			}
			var own []*vclock.Lock
			switch m := g.mmu.(type) {
			case *pvmMMU:
				own = append(own, m.locks.Meta, m.locks.Coarse, m.locks.PT(1, 0), m.locks.Rmap(7))
			case *pvmDirectMMU:
				own = append(own, m.locks.Meta, m.locks.Coarse, m.locks.PT(1, 0), m.locks.Rmap(7))
			case *sptMMU:
				own = append(own, m.mmuLock)
			case *eptNestedMMU:
				own = append(own, m.l1Lock)
			}
			if cfg.Nested() {
				if o := g.VM().MMULock.Owner(); o != nil {
					t.Fatalf("L1 instance mmu_lock owned by vCPU %d", o.ID())
				}
			} else {
				own = append(own, g.VM().MMULock)
			}
			for _, l := range own {
				if l.Owner() != c {
					t.Fatalf("%s not owned by the bound vCPU", l.Name())
				}
			}
		})
	}
}
