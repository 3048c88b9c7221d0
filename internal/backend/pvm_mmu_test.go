package backend

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/vclock"
)

// Without the PCID-mapping optimization PVM degrades to the traditional
// whole-VPID shootdown: the flush hypercall kicks every other live vCPU with
// an IPI under the meta lock. The per-remote cost must scale linearly with
// LiveProcs and the flush must empty the process's TLB.

// flushCost measures the virtual time of one flushRange(pages) with `procs`
// live processes in the guest, PCID mapping disabled.
func flushCost(t *testing.T, cfg Config, procs, pages int) (elapsed, hypercalls int64) {
	t.Helper()
	opt := DefaultOptions()
	opt.PCIDMap = false
	s := NewSystem(cfg, opt)
	g, err := s.NewGuest("g0")
	if err != nil {
		t.Fatal(err)
	}
	s.Eng.Go(0, func(c *vclock.CPU) {
		p, err := g.Kern.NewProcess(c)
		if err != nil {
			panic(err)
		}
		for i := 1; i < procs; i++ {
			if _, err := g.Kern.NewProcess(c); err != nil {
				panic(err)
			}
		}
		if got := g.LiveProcs(); got != procs {
			t.Errorf("live procs = %d, want %d", got, procs)
		}
		before := s.Ctr.Snapshot().Hypercalls
		start := c.Now()
		g.mmu.flushRange(p, pages)
		elapsed = c.Now() - start
		hypercalls = s.Ctr.Snapshot().Hypercalls - before
	})
	s.Eng.Wait()
	return elapsed, hypercalls
}

func TestPVMFlushRangeShootdownScalesWithLiveProcs(t *testing.T) {
	const pages = 16
	for _, cfg := range []Config{PVMBM, PVMNST} {
		one, hc1 := flushCost(t, cfg, 1, pages)
		three, hc3 := flushCost(t, cfg, 3, pages)
		if hc1 != 1 || hc3 != 1 {
			t.Errorf("%v: flush hypercalls = %d/%d, want 1 each", cfg, hc1, hc3)
		}
		ipi := NewSystem(cfg, DefaultOptions()).Prm.ShootdownIPI
		if got := three - one; got != 2*ipi {
			t.Errorf("%v: 3-proc flush costs %d more than 1-proc, want 2×ShootdownIPI = %d",
				cfg, got, 2*ipi)
		}
	}
}

func TestPVMFlushRangeShootdownEmptiesTLB(t *testing.T) {
	opt := DefaultOptions()
	opt.PCIDMap = false
	s := NewSystem(PVMNST, opt)
	g, err := s.NewGuest("g0")
	if err != nil {
		t.Fatal(err)
	}
	s.Eng.Go(0, func(c *vclock.CPU) {
		p, err := g.Kern.NewProcess(c)
		if err != nil {
			panic(err)
		}
		base := p.Mmap(8)
		p.TouchRange(base, 8, true)
		d := pd(p)
		if d.tlb.Len() == 0 {
			t.Fatal("TLB empty after touching 8 pages")
		}
		g.mmu.flushRange(p, 8)
		if got := d.tlb.Len(); got != 0 {
			t.Errorf("TLB entries after VPID shootdown = %d, want 0", got)
		}
	})
	s.Eng.Wait()
}

// releasePage must return the backing frame to its allocator (L1
// guest-physical when nested, host-physical on bare metal), drop the
// gpa→frame mapping, and tolerate double release (free-page reporting can
// race with exit teardown in the modeled kernel).
func TestPVMReleasePageFreesBackingFrame(t *testing.T) {
	for _, cfg := range []Config{PVMBM, PVMNST} {
		s := NewSystem(cfg, DefaultOptions())
		g, err := s.NewGuest("g0")
		if err != nil {
			t.Fatal(err)
		}
		alloc := s.Host.HPA
		if cfg.Nested() {
			alloc = s.L1.GPA
		}
		s.Eng.Go(0, func(c *vclock.CPU) {
			p, err := g.Kern.NewProcess(c)
			if err != nil {
				panic(err)
			}
			m := g.mmu.(*pvmMMU)
			base := p.Mmap(4)
			p.TouchRange(base, 4, true)
			backed := m.backing.len()
			if backed != 4 {
				t.Errorf("%v: backed frames after 4 touches = %d, want 4", cfg, backed)
			}
			inUse := alloc.InUse()

			ge, ok := p.GPT.Lookup(base)
			if !ok {
				t.Fatalf("%v: touched page not in GPT", cfg)
			}
			m.releasePage(p, base, ge.PFN)
			if got := m.backing.len(); got != backed-1 {
				t.Errorf("%v: backed frames after release = %d, want %d", cfg, got, backed-1)
			}
			if got := alloc.InUse(); got != inUse-1 {
				t.Errorf("%v: allocator in-use after release = %d, want %d", cfg, got, inUse-1)
			}

			// Double release: the mapping is gone, so it must be a no-op.
			m.releasePage(p, base, ge.PFN)
			if got := alloc.InUse(); got != inUse-1 {
				t.Errorf("%v: double release freed again: in-use %d, want %d", cfg, got, inUse-1)
			}
		})
		s.Eng.Wait()
	}
}

// The munmap path must drive releasePage for every page so that exit leaves
// no backing frames behind (checked against the sharded frame map).
func TestPVMMunmapDrainsFrameMap(t *testing.T) {
	runOne(t, PVMNST, DefaultOptions(), func(s *System, p *guest.Process) {
		m := s.Guests()[0].mmu.(*pvmMMU)
		base := p.Mmap(16)
		p.TouchRange(base, 16, true)
		if got := m.backing.len(); got == 0 {
			t.Fatal("no backed frames after touch")
		}
		if err := p.Munmap(base, 16); err != nil {
			panic(err)
		}
		if got := m.backing.len(); got != 0 {
			t.Errorf("backed frames after munmap = %d, want 0", got)
		}
	})
}
