package backend

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/guest"
)

// opScript drives a reproducible pseudo-random operation sequence against a
// process: mmap/touch/munmap/syscall/privop/fork-exit, the full platform
// surface.
func opScript(seed int64, n int) func(p *guest.Process) {
	return func(p *guest.Process) {
		rng := rand.New(rand.NewSource(seed))
		type region struct {
			base  arch.VA
			pages int
		}
		var regions []region
		for i := 0; i < n; i++ {
			switch rng.Intn(10) {
			case 0, 1, 2:
				pages := rng.Intn(24) + 1
				base := p.Mmap(pages)
				regions = append(regions, region{base, pages})
			case 3, 4, 5:
				if len(regions) > 0 {
					r := regions[rng.Intn(len(regions))]
					off := rng.Intn(r.pages)
					p.Touch(r.base+arch.VA(off)*arch.PageSize, rng.Intn(2) == 0)
				}
			case 6:
				if len(regions) > 0 {
					idx := rng.Intn(len(regions))
					r := regions[idx]
					if err := p.Munmap(r.base, r.pages); err != nil {
						panic(err)
					}
					regions = append(regions[:idx], regions[idx+1:]...)
				}
			case 7:
				p.Getpid()
			case 8:
				p.PrivOp(arch.OpHypercall)
			case 9:
				child, err := p.Fork(nil)
				if err != nil {
					panic(err)
				}
				if err := child.Exit(); err != nil {
					panic(err)
				}
			}
		}
		for _, r := range regions {
			if err := p.Munmap(r.base, r.pages); err != nil {
				panic(err)
			}
		}
	}
}

// TestPropertyRandomOpsInvariants runs random scripts on every configuration
// and checks system-wide invariants: no guest frame leaks, prefault/fault
// accounting consistency, PVM's zero-L0-exit memory path, and determinism.
func TestPropertyRandomOpsInvariants(t *testing.T) {
	for _, cfg := range Configs() {
		for seed := int64(1); seed <= 3; seed++ {
			run := func() (int64, *System) {
				s := NewSystem(cfg, DefaultOptions())
				g, err := s.NewGuest("prop")
				if err != nil {
					t.Fatal(err)
				}
				release := s.Eng.Hold()
				for w := 0; w < 3; w++ {
					g.Run(0, 8, opScript(seed+int64(w)*100, 60))
				}
				release()
				s.Eng.Wait()
				return s.Eng.Makespan(), s
			}
			m1, s := run()
			m2, _ := run()
			if m1 != m2 {
				t.Fatalf("%v seed %d: nondeterministic makespan %d vs %d", cfg, seed, m1, m2)
			}
			for _, g := range s.Guests() {
				if got := g.Kern.GPA.InUse(); got != 0 {
					t.Errorf("%v seed %d: guest frames leaked: %d", cfg, seed, got)
				}
			}
			snap := s.Ctr.Snapshot()
			if snap.Prefaults > snap.GuestFaults {
				t.Errorf("%v seed %d: prefaults (%d) exceed guest faults (%d)",
					cfg, seed, snap.Prefaults, snap.GuestFaults)
			}
			if cfg == PVMNST && snap.L0Exits != 0 {
				t.Errorf("pvm (NST) seed %d: %d L0 exits on a memory/syscall-only script",
					seed, snap.L0Exits)
			}
			if snap.WorldSwitches == 0 || snap.GuestFaults == 0 {
				t.Errorf("%v seed %d: suspiciously quiet run: %s", cfg, seed, snap)
			}
		}
	}
}

// TestPropertyFutureVariantsInvariants repeats the invariant run on the §5
// extension variants.
func TestPropertyFutureVariantsInvariants(t *testing.T) {
	variants := []func(*Options){
		func(o *Options) { o.SwitcherFaultClassify = true },
		func(o *Options) { o.CollaborativeSync = true },
		func(o *Options) { o.DirectPaging = true },
		func(o *Options) { o.HugePagesEPT = true },
	}
	for vi, mut := range variants {
		opt := DefaultOptions()
		mut(&opt)
		s := NewSystem(PVMNST, opt)
		g, err := s.NewGuest("prop")
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < 3; w++ {
			g.Run(0, 8, opScript(int64(vi+1), 60))
		}
		s.Eng.Wait()
		for _, g := range s.Guests() {
			if got := g.Kern.GPA.InUse(); got != 0 {
				t.Errorf("variant %d: guest frames leaked: %d", vi, got)
			}
		}
		if s.Ctr.Snapshot().L0Exits != 0 {
			t.Errorf("variant %d: unexpected L0 exits", vi)
		}
	}
}
