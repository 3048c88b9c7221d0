package backend

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/interrupt"
)

func TestBlockIOChoreography(t *testing.T) {
	// One batch = one kick + one completion interrupt, with the
	// per-configuration exit paths around them.
	type want struct {
		l0Min, l0Max int64 // L0 exits for kick+completion
	}
	cases := map[Config]want{
		KVMEPTBM:  {2, 4},  // kick exit + completion interrupt exit
		KVMEPTNST: {5, 12}, // nested kick (2 legs + L1→L0 I/O) + nested interrupt
		PVMNST:    {1, 2},  // only L1's own virtio leg + injection exit
		PVMBM:     {0, 0},  // PVM is the host: everything local
	}
	for cfg, w := range cases {
		var d int64
		runOne(t, cfg, DefaultOptions(), func(s *System, p *guest.Process) {
			before := s.Ctr.Snapshot().L0Exits
			p.BlockIO(1, 4096)
			d = s.Ctr.Snapshot().L0Exits - before
		})
		if d < w.l0Min || d > w.l0Max {
			t.Errorf("%v: block I/O L0 exits = %d, want in [%d, %d]", cfg, d, w.l0Min, w.l0Max)
		}
	}
}

func TestBlockIOBatchingReducesExits(t *testing.T) {
	exits := func(n int) int64 {
		var d int64
		runOne(t, KVMEPTNST, DefaultOptions(), func(s *System, p *guest.Process) {
			before := s.Ctr.Snapshot().L0Exits
			p.BlockIO(n, 4096)
			d = s.Ctr.Snapshot().L0Exits - before
		})
		return d
	}
	one := exits(1)
	hundred := exits(100) // fits one 128-deep ring: still one kick
	if hundred > one {
		t.Errorf("100 ring-batched requests took %d exits vs %d for one", hundred, one)
	}
	twoBatches := exits(200) // two kicks
	if twoBatches <= hundred {
		t.Errorf("200 requests (%d exits) should exceed one batch (%d)", twoBatches, hundred)
	}
}

func TestInterruptPathCosts(t *testing.T) {
	// §3.3.3: one L0 exit per interrupt under PVM; several under
	// hardware-assisted nesting; none of PVM's subsequent handling
	// touches L0.
	measure := func(cfg Config) (l0 int64, elapsed int64) {
		runOne(t, cfg, DefaultOptions(), func(s *System, p *guest.Process) {
			before := s.Ctr.Snapshot().L0Exits
			start := p.CPU.Now()
			p.Interrupt(interrupt.VectorTimer)
			elapsed = p.CPU.Now() - start
			l0 = s.Ctr.Snapshot().L0Exits - before
		})
		return
	}
	pvmL0, pvmT := measure(PVMNST)
	kvmL0, kvmT := measure(KVMEPTNST)
	if pvmL0 != 1 {
		t.Errorf("pvm (NST) interrupt L0 exits = %d, want exactly 1 (injection into L1)", pvmL0)
	}
	if kvmL0 < 3 {
		t.Errorf("kvm (NST) interrupt L0 exits = %d, want several", kvmL0)
	}
	if pvmT >= kvmT {
		t.Errorf("pvm interrupt (%d ns) should be cheaper than nested kvm (%d ns)", pvmT, kvmT)
	}
}

func TestSharedIFGatesInjectionState(t *testing.T) {
	runOne(t, PVMNST, DefaultOptions(), func(s *System, p *guest.Process) {
		m := s.Guests()[0].mmu.(*pvmMMU)
		reads := m.Switcher().SharedIF.HostReads.Load()
		p.Interrupt(interrupt.VectorTimer)
		if m.Switcher().SharedIF.HostReads.Load() != reads+1 {
			t.Error("PVM did not consult the shared IF word before injecting")
		}
	})
}

// TestSharedIFConcurrentVCPUs: the shared IF word belongs to the guest, not
// to one vCPU. Two vCPUs of one PVM guest inject interrupts and complete
// I/O between their gates, so Get runs on both at once; under -race this
// pins the word's atomic counters, and every read is counted.
func TestSharedIFConcurrentVCPUs(t *testing.T) {
	const rounds = 200
	s := NewSystem(PVMNST, DefaultOptions())
	g, err := s.NewGuest("g0")
	if err != nil {
		t.Fatal(err)
	}
	release := s.Eng.Hold()
	for i := 0; i < 2; i++ {
		g.Run(int64(i)*100, 2, func(p *guest.Process) {
			for r := 0; r < rounds; r++ {
				// The Compute commits past the peer's slot, so the
				// peer runs while this vCPU injects.
				p.Compute(1000)
				p.Interrupt(interrupt.VectorTimer)
			}
		})
	}
	release()
	s.Eng.Wait()
	if err := s.Eng.Err(); err != nil {
		t.Fatal(err)
	}
	sif := g.mmu.(*pvmMMU).Switcher().SharedIF
	if got := sif.HostReads.Load(); got != 2*rounds {
		t.Fatalf("host reads = %d, want %d", got, 2*rounds)
	}
}

func TestNetIOUsesNetDevice(t *testing.T) {
	runOne(t, PVMNST, DefaultOptions(), func(s *System, p *guest.Process) {
		p.NetIO(4, 1400)
		g := s.Guests()[0]
		if g.NetDevice().Stats().Requests != 4 {
			t.Errorf("net requests = %d, want 4", g.NetDevice().Stats().Requests)
		}
		if g.BlockDevice().Stats().Requests != 0 {
			t.Error("net I/O hit the block device")
		}
	})
}
