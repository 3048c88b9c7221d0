package hv

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/cost"
	"repro/internal/metrics"
	"repro/internal/vclock"
)

func newHost() (*Host, *vclock.Engine, *metrics.Counters) {
	eng := vclock.NewEngine()
	ctr := &metrics.Counters{}
	return NewHost(eng, cost.Default(), ctr), eng, ctr
}

func TestEPTViolationChoreography(t *testing.T) {
	h, eng, ctr := newHost()
	vm, err := h.NewVM("vm0", 0)
	if err != nil {
		t.Fatal(err)
	}
	eng.Go(0, func(c *vclock.CPU) {
		hpa, violated := vm.EnsureBacking(c, 42)
		if !violated {
			t.Error("first touch should violate")
		}
		hpa2, violated2 := vm.EnsureBacking(c, 42)
		if violated2 {
			t.Error("second touch should not violate")
		}
		if hpa != hpa2 {
			t.Error("backing frame changed")
		}
	})
	eng.Wait()
	if ctr.L0Exits.Load() != 1 {
		t.Errorf("L0 exits = %d, want 1", ctr.L0Exits.Load())
	}
	if ctr.EPTViolations.Load() != 1 {
		t.Errorf("EPT violations = %d, want 1", ctr.EPTViolations.Load())
	}
	if got := ctr.WorldSwitches(); got != 2 {
		t.Errorf("world switches = %d, want 2", got)
	}
	if vm.EPTViolations() != 1 {
		t.Errorf("vm violation count = %d, want 1", vm.EPTViolations())
	}
	// The violation costs two hardware switches plus the lock'd fix.
	p := cost.Default()
	want := 2*p.SwitchHW + p.FrameAlloc + p.EPTFix
	if got := eng.Makespan(); got != want {
		t.Errorf("violation cost = %d, want %d", got, want)
	}
}

func TestWarmHostInstallsSilently(t *testing.T) {
	h, eng, ctr := newHost()
	h.Warm = true
	vm, err := h.NewVM("vm0", 0)
	if err != nil {
		t.Fatal(err)
	}
	eng.Go(0, func(c *vclock.CPU) {
		if _, violated := vm.EnsureBacking(c, 7); violated {
			t.Error("warm host should not take violations")
		}
	})
	eng.Wait()
	if ctr.L0Exits.Load() != 0 || eng.Makespan() != 0 {
		t.Errorf("warm install cost exits=%d time=%d, want 0/0",
			ctr.L0Exits.Load(), eng.Makespan())
	}
	if !vm.HasBacking(7) {
		t.Error("warm install did not map")
	}
}

func TestReleaseBackingFreesHostFrame(t *testing.T) {
	h, eng, _ := newHost()
	vm, err := h.NewVM("vm0", 0)
	if err != nil {
		t.Fatal(err)
	}
	eng.Go(0, func(c *vclock.CPU) {
		vm.EnsureBacking(c, 9)
		inUse := vm.Frames.InUse()
		if !vm.ReleaseBacking(c, 9) {
			t.Error("release of backed frame failed")
		}
		if vm.HasBacking(9) {
			t.Error("backing survives release")
		}
		if vm.Frames.InUse() != inUse-1 {
			t.Error("host frame not freed")
		}
		if vm.ReleaseBacking(c, 9) {
			t.Error("double release reported success")
		}
	})
	eng.Wait()
}

func TestVMIdentity(t *testing.T) {
	h, _, _ := newHost()
	a, err := h.NewVM("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.NewVM("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.VPID == b.VPID {
		t.Error("VMs share a VPID")
	}
	if a.MMULock == b.MMULock {
		t.Error("VMs share an mmu_lock")
	}
	if len(h.VMs()) != 2 {
		t.Errorf("VM count = %d, want 2", len(h.VMs()))
	}
	if a.VMCS01.VPID != a.VPID {
		t.Error("VMCS01 VPID not initialized")
	}
}

func TestMMULockSerializesEPTFixes(t *testing.T) {
	h, eng, _ := newHost()
	vm, err := h.NewVM("vm0", 0)
	if err != nil {
		t.Fatal(err)
	}
	const procs = 4
	// Admit every vCPU before any runs: a vCPU admitted at time 0 while an
	// earlier one runs ahead could probe EPT01 beside its mmu_lock body.
	release := eng.Hold()
	for i := 0; i < procs; i++ {
		gpa := arch.PFN(i * 100)
		eng.Go(0, func(c *vclock.CPU) {
			for k := arch.PFN(0); k < 10; k++ {
				vm.EnsureBacking(c, gpa+k)
			}
		})
	}
	release()
	eng.Wait()
	st := vm.MMULock.Stats()
	if st.Acquisitions != procs*10 {
		t.Errorf("lock acquisitions = %d, want %d", st.Acquisitions, procs*10)
	}
	if st.Contended == 0 {
		t.Error("expected contention on the shared mmu_lock")
	}
}
