// Package vmx emulates the Intel VT-x machinery the simulator's
// hardware-assisted configurations depend on: VM-exit reasons, per-vCPU VM
// control structures (VMCS), and the VMCS shadowing scheme used by nested
// virtualization (VMCS01 / VMCS12 / merged VMCS02, §2.1 of the paper).
package vmx

import (
	"fmt"
	"sync/atomic"

	"repro/internal/arch"
)

// ExitReason classifies a VM exit.
type ExitReason uint8

const (
	ExitNone ExitReason = iota
	ExitHypercall
	ExitException
	ExitMSRAccess
	ExitCPUID
	ExitIO
	ExitHLT
	ExitPageFault    // #PF while shadow paging is active
	ExitEPTViolation // GPA missing from the active EPT
	ExitExternalInterrupt
	ExitVMResume // L1 executed VMLAUNCH/VMRESUME (traps to L0)
	ExitVMAccess // L1 executed VMREAD/VMWRITE without shadowing
	ExitCR3Write // MOV to CR3 intercepted (shadow paging)
	numExitReasons
)

var exitNames = [numExitReasons]string{
	"none", "hypercall", "exception", "msr", "cpuid", "io", "hlt",
	"page-fault", "ept-violation", "external-interrupt", "vmresume",
	"vmaccess", "cr3-write",
}

func (r ExitReason) String() string {
	if int(r) < len(exitNames) {
		return exitNames[r]
	}
	return fmt.Sprintf("exit(%d)", uint8(r))
}

// ExitForPrivOp maps a privileged guest operation to the VM-exit reason it
// raises under hardware-assisted virtualization.
func ExitForPrivOp(op arch.PrivOp) ExitReason {
	switch op {
	case arch.OpHypercall:
		return ExitHypercall
	case arch.OpException:
		return ExitException
	case arch.OpMSRAccess:
		return ExitMSRAccess
	case arch.OpCPUID:
		return ExitCPUID
	case arch.OpPIO:
		return ExitIO
	case arch.OpHLT:
		return ExitHLT
	case arch.OpWriteCR3:
		return ExitCR3Write
	default:
		return ExitException
	}
}

// Event is a pending event to be injected into a guest on VM entry.
type Event struct {
	Valid   bool
	Vector  uint8
	IsFault bool
	Addr    arch.VA // faulting address for #PF-class events
}

// CPUState is the register slice VMCS save/restore cares about.
type CPUState struct {
	CR3     arch.PFN
	PCID    arch.PCID
	Ring    arch.Ring
	FlagsIF bool
}

// VMCS is one VM control structure. Reads and writes are counted; when the
// structure is *not* hardware-shadowed and the accessor runs in non-root
// mode, each access traps to L0. The caller charges those traps (the
// backend adds one L0 exit and round trip per access to the nested exit it
// models). This reproduces the motivation for VMCS shadowing: handling one
// L2 world switch touches the VMCS dozens of times (§2.1, 40–50 exits
// without shadowing).
type VMCS struct {
	Name string

	GuestState CPUState
	HostState  CPUState
	EPTP       arch.PFN
	VPID       arch.VPID
	Pending    Event
	Reason     ExitReason

	// Shadowed marks the VMCS as covered by hardware VMCS shadowing:
	// non-root VMREAD/VMWRITE do not trap.
	Shadowed bool

	reads  atomic.Int64
	writes atomic.Int64
	merges atomic.Int64
}

// NewVMCS returns a named, zeroed VMCS.
func NewVMCS(name string) *VMCS { return &VMCS{Name: name} }

// Access counts reads VMREADs and writes VMWRITEs, both in one step.
func (v *VMCS) Access(reads, writes int) {
	v.reads.Add(int64(reads))
	v.writes.Add(int64(writes))
}

// Accesses returns total reads and writes.
func (v *VMCS) Accesses() (reads, writes int64) {
	return v.reads.Load(), v.writes.Load()
}

// Merges returns how many times this VMCS was the target of a merge.
func (v *VMCS) Merges() int64 { return v.merges.Load() }

// InjectEvent records a pending event for the next entry.
func (v *VMCS) InjectEvent(vector uint8, isFault bool, addr arch.VA) {
	v.Pending = Event{Valid: true, Vector: vector, IsFault: isFault, Addr: addr}
}

// TakeEvent consumes the pending event, if any.
func (v *VMCS) TakeEvent() (Event, bool) {
	ev := v.Pending
	v.Pending = Event{}
	return ev, ev.Valid
}

// Merge builds/refreshes the shadow VMCS02 from VMCS01 (L0's view of L1) and
// VMCS12 (L1's software VMCS for L2), as L0 does on every real entry to L2:
// guest state comes from VMCS12, host state from VMCS01's host context, and
// control fields are combined.
func Merge(dst *VMCS, vmcs01, vmcs12 *VMCS) {
	dst.GuestState = vmcs12.GuestState
	dst.HostState = vmcs01.HostState
	dst.VPID = vmcs12.VPID
	// EPTP of the merged context is the *compressed* EPT02, installed by
	// the caller; keep vmcs12's value when the caller has not overridden.
	if dst.EPTP == 0 {
		dst.EPTP = vmcs12.EPTP
	}
	dst.Pending = vmcs12.Pending
	dst.merges.Add(1)
}

// PerVCPUSwitcherState is the PVM analogue of a VMCS: the per-CPU entry-area
// state the switcher saves/restores on every world switch (§3.2). It lives
// here because tests compare it against VMCS behaviour.
type PerVCPUSwitcherState struct {
	Guest CPUState
	Host  CPUState

	// VirtRing is the simulated privilege level of the de-privileged L2
	// guest (v_ring0 for the kernel, v_ring3 for user); the hardware ring
	// is always Ring3.
	VirtRing arch.VirtRing

	// SharedIF is the 8-byte shared word virtualizing RFLAGS.IF between
	// the L2 guest and the PVM hypervisor (§3.3.3).
	SharedIF bool

	// ScrubbedGPRs counts registers cleared on the last VM exit; PVM
	// clears all general-purpose registers except RSP and RAX.
	ScrubbedGPRs int

	Saves, Restores int64
}

// SaveGuest records a guest→hypervisor transition, scrubbing registers.
func (s *PerVCPUSwitcherState) SaveGuest(st CPUState) {
	s.Guest = st
	s.ScrubbedGPRs = arch.ScrubbedGPRs
	s.Saves++
}

// RestoreGuest records a hypervisor→guest transition.
func (s *PerVCPUSwitcherState) RestoreGuest() CPUState {
	s.Restores++
	return s.Guest
}
