package vmx

import (
	"testing"

	"repro/internal/arch"
)

func TestExitReasonMapping(t *testing.T) {
	cases := map[arch.PrivOp]ExitReason{
		arch.OpHypercall: ExitHypercall,
		arch.OpException: ExitException,
		arch.OpMSRAccess: ExitMSRAccess,
		arch.OpCPUID:     ExitCPUID,
		arch.OpPIO:       ExitIO,
		arch.OpHLT:       ExitHLT,
		arch.OpWriteCR3:  ExitCR3Write,
		arch.OpIret:      ExitException,
	}
	for op, want := range cases {
		if got := ExitForPrivOp(op); got != want {
			t.Errorf("ExitForPrivOp(%v) = %v, want %v", op, got, want)
		}
	}
	for r := ExitReason(0); r < numExitReasons; r++ {
		if r.String() == "" {
			t.Errorf("exit reason %d has no name", r)
		}
	}
}

func TestVMCSTrappedAccesses(t *testing.T) {
	// The L1 handler's VMREADs and VMWRITEs are counted in bulk, shadowed
	// or not: whether they trap is the caller's charge (without VMCS
	// shadowing, the 40–50 exits per nested world switch the paper cites,
	// §2.1), and the counts are what it charges from.
	v := NewVMCS("vmcs12")
	v.Access(1, 1)
	v.Access(19, 18)
	if r, w := v.Accesses(); r != 20 || w != 19 {
		t.Errorf("accesses = (%d, %d), want (20, 19)", r, w)
	}
	v.Shadowed = true
	v.Access(2, 0)
	if r, w := v.Accesses(); r != 22 || w != 19 {
		t.Errorf("accesses after shadowed reads = (%d, %d), want (22, 19)", r, w)
	}
}

func TestMergeBuildsVMCS02(t *testing.T) {
	vmcs01 := NewVMCS("vmcs01")
	vmcs01.HostState = CPUState{CR3: 0x100, Ring: arch.Ring0}
	vmcs12 := NewVMCS("vmcs12")
	vmcs12.GuestState = CPUState{CR3: 0x200, Ring: arch.Ring3, PCID: 7}
	vmcs12.VPID = 9
	vmcs12.InjectEvent(14, true, 0xdead000)

	vmcs02 := NewVMCS("vmcs02")
	vmcs02.EPTP = 0x300 // compressed EPT02 installed by L0
	Merge(vmcs02, vmcs01, vmcs12)

	if vmcs02.GuestState != vmcs12.GuestState {
		t.Error("guest state not taken from VMCS12")
	}
	if vmcs02.HostState != vmcs01.HostState {
		t.Error("host state not taken from VMCS01")
	}
	if vmcs02.VPID != 9 || vmcs02.EPTP != 0x300 {
		t.Errorf("vpid/eptp = %d/%#x", vmcs02.VPID, vmcs02.EPTP)
	}
	ev, ok := vmcs02.TakeEvent()
	if !ok || ev.Vector != 14 || !ev.IsFault || ev.Addr != 0xdead000 {
		t.Errorf("pending event not merged: %+v %v", ev, ok)
	}
	if _, ok := vmcs02.TakeEvent(); ok {
		t.Error("event not consumed")
	}
	if vmcs02.Merges() != 1 {
		t.Errorf("merge count = %d, want 1", vmcs02.Merges())
	}
}

func TestSwitcherStateScrubsRegisters(t *testing.T) {
	var s PerVCPUSwitcherState
	s.SaveGuest(CPUState{CR3: 5, Ring: arch.Ring3})
	if s.ScrubbedGPRs != arch.ScrubbedGPRs {
		t.Errorf("scrubbed = %d, want %d", s.ScrubbedGPRs, arch.ScrubbedGPRs)
	}
	got := s.RestoreGuest()
	if got.CR3 != 5 {
		t.Error("guest state lost across save/restore")
	}
	if s.Saves != 1 || s.Restores != 1 {
		t.Errorf("saves/restores = %d/%d", s.Saves, s.Restores)
	}
}
