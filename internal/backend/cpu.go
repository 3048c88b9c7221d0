package backend

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/insn"
	"repro/internal/metrics"
)

// hwCPU is hardware-assisted CPU virtualization (VMX): used by kvm-ept and
// kvm-spt, single-level or nested. With shadow paging and KPTI, guest
// syscalls trap on their CR3 loads (sptCR3Trap).
type hwCPU struct {
	g          *Guest
	nested     bool
	sptCR3Trap bool
}

func newHWCPU(g *Guest, nested, sptCR3Trap bool) *hwCPU {
	return &hwCPU{g: g, nested: nested, sptCR3Trap: sptCR3Trap}
}

// roundTrip charges a full guest→hypervisor→guest trip with the given
// handler cost (run at the immediate hypervisor).
func (u *hwCPU) roundTrip(p *guest.Process, handler int64) {
	g := u.g
	c := p.CPU
	prm := &g.Sys.Prm
	if u.nested {
		g.l2ToL1(c)
		c.AdvanceLazy(prm.NestedExitHousekeeping + handler)
		g.l1ToL2(c)
		return
	}
	g.exitHW(c)
	c.AdvanceLazy(handler)
	g.entryHW(c)
}

func (u *hwCPU) syscall(p *guest.Process, body int64) {
	g := u.g
	c := p.CPU
	prm := &g.Sys.Prm
	if u.sptCR3Trap && g.Sys.Opt.KPTI {
		// KPTI under shadow paging: the entry and exit CR3 loads each
		// trap to the shadowing hypervisor to switch shadow roots.
		u.roundTrip(p, prm.SPTCR3Switch)
		c.AdvanceLazy(prm.SyscallBody + body)
		u.roundTrip(p, prm.SPTCR3Switch)
		return
	}
	base := prm.SyscallHWNoKPTI
	if g.Sys.Opt.KPTI {
		base = prm.SyscallHW
	}
	g.order(c, base+prm.SyscallBody+body)
}

func (u *hwCPU) privOp(p *guest.Process, op arch.PrivOp) {
	g := u.g
	c := p.CPU
	prm := &g.Sys.Prm
	ctr := g.Sys.Ctr
	switch op {
	case arch.OpHypercall:
		ctr.Hypercalls.Add(1)
		u.roundTrip(p, prm.HandlerHypercall)
	case arch.OpException:
		ctr.Emulations.Add(1)
		u.roundTrip(p, prm.HandlerException)
	case arch.OpMSRAccess:
		if !u.nested {
			// KVM allows direct MSR access in non-root mode: no exit.
			g.order(c, prm.HandlerMSRKVM)
			return
		}
		ctr.Emulations.Add(1)
		u.roundTrip(p, prm.HandlerMSRKVM)
	case arch.OpCPUID:
		ctr.Emulations.Add(1)
		u.roundTrip(p, prm.HandlerCPUID)
	case arch.OpPIO:
		ctr.Emulations.Add(1)
		u.roundTrip(p, prm.HandlerPIO+prm.HandlerPIOUser)
		if u.nested {
			// Userspace device emulation in L1 and interrupt-window
			// re-entries add full nested trips.
			for i := 0; i < prm.PIONestedExtraTrips; i++ {
				g.l2ToL1(c)
				g.l1ToL2(c)
			}
		}
	case arch.OpHLT:
		u.halt(p)
	case arch.OpWriteCR3:
		if u.sptCR3Trap {
			// Shadow paging intercepts CR3 loads to switch shadow
			// roots.
			ctr.Emulations.Add(1)
			u.roundTrip(p, prm.SPTCR3Switch)
			return
		}
		// Under EPT, guest CR3 loads do not exit.
		g.order(c, prm.SyscallHWNoKPTI)
	default:
		ctr.Emulations.Add(1)
		u.roundTrip(p, prm.HandlerCPUID)
	}
}

func (u *hwCPU) halt(p *guest.Process) {
	// HLT exits to the hypervisor; the wakeup re-arms through root mode.
	u.roundTrip(p, u.g.Sys.Prm.HaltWakeHW)
}

func (u *hwCPU) interrupt(p *guest.Process, vector uint8) {
	g := u.g
	c := p.CPU
	prm := &g.Sys.Prm
	if u.nested {
		// External interrupt: exit to L0, injection forwarded into L1,
		// which re-injects into L2 — with additional exits for the
		// interrupt window (§3.3.3).
		g.l2ToL1(c)
		c.AdvanceLazy(prm.InterruptInjectKVM)
		g.l1ToL2(c)
		g.l2ToL1(c)
		g.l1ToL2(c)
		return
	}
	g.exitHW(c)
	c.AdvanceLazy(prm.InterruptInjectKVM)
	g.entryHW(c)
}

func (u *hwCPU) ioKick(p *guest.Process) {
	g := u.g
	c := p.CPU
	prm := &g.Sys.Prm
	if u.nested {
		// Doorbell exits to L0, forwarded to vhost in L1; L1 performs
		// the real I/O through its own virtio to L0.
		g.l2ToL1(c)
		c.AdvanceLazy(prm.VirtioKick)
		g.l1ToL2(c)
		g.Sys.Ctr.Switch(metrics.SwitchHW)
		g.Sys.Ctr.Switch(metrics.SwitchHW)
		g.Sys.Ctr.L0Exits.Add(1)
		c.AdvanceLazy(2*prm.SwitchHW + prm.VirtioKick)
		return
	}
	g.exitHW(c)
	c.AdvanceLazy(prm.VirtioKick)
	g.entryHW(c)
}

func (u *hwCPU) ioComplete(p *guest.Process) {
	p.CPU.AdvanceLazy(u.g.Sys.Prm.VirtioComplete)
	u.interrupt(p, 40 /* virtio-blk vector */)
}

// pvmCPU is PVM's software CPU virtualization (§3.3.1): the de-privileged
// guest traps everything into the switcher; 22 hot privileged operations are
// served as hypercalls, the rest through the instruction simulator. Nested
// or bare-metal only changes where the backing world sits — the exit paths
// never touch L0 except for PIO device emulation and external interrupts.
type pvmCPU struct {
	g      *Guest
	nested bool

	// em is PVM's instruction simulator, executing the privileged
	// instructions that have no hypercall fast path against the vCPU
	// architectural state.
	em *insn.Emulator
}

func newPVMCPU(g *Guest, nested bool) *pvmCPU {
	u := &pvmCPU{g: g, nested: nested}
	u.em = insn.NewEmulator(&arch.Registers{Ring: arch.Ring3, Mode: arch.NonRootMode})
	u.em.Hooks.OnSetIF = func(enabled bool) {
		// IF changes propagate to the shared word the hypervisor reads
		// before injecting virtual interrupts (§3.3.3).
		u.mmu().Switcher().SharedIF.Set(enabled)
	}
	return u
}

// Emulator exposes the instruction simulator (for inspection and tests).
func (u *pvmCPU) Emulator() *insn.Emulator { return u.em }

// msrPerfGlobalCtrl is the MSR the Table 1 microbenchmark accesses.
const msrPerfGlobalCtrl = 0x38f

// pvmTransitions is the slice of the PVM mmu strategies the CPU strategy
// needs: switcher transitions and the switcher itself. Implemented by both
// pvmMMU (shadow paging) and pvmDirectMMU (§5 direct paging).
type pvmTransitions interface {
	exit(p *guest.Process)
	enter(p *guest.Process, toKernel bool)
	Switcher() *core.Switcher
}

// mmu returns the paired PVM mmu strategy (for switcher state).
func (u *pvmCPU) mmu() pvmTransitions { return u.g.mmu.(pvmTransitions) }

// roundTrip charges a switcher exit into the PVM hypervisor, handler work,
// and the entry back to the guest.
func (u *pvmCPU) roundTrip(p *guest.Process, handler int64) {
	m := u.mmu()
	m.exit(p)
	p.CPU.AdvanceLazy(handler)
	m.enter(p, false)
}

func (u *pvmCPU) syscall(p *guest.Process, body int64) {
	g := u.g
	c := p.CPU
	prm := &g.Sys.Prm
	ctr := g.Sys.Ctr
	d := pd(p)
	if g.Sys.Opt.DirectSwitch {
		// Direct switch (§3.2, Figure 8): the switcher emulates the
		// syscall and sysret entirely at h_ring0, never entering the
		// PVM hypervisor proper. Two world switches.
		ctr.DirectSwitches.Add(2)
		ctr.Switch(metrics.SwitchDirect)
		ctr.Switch(metrics.SwitchDirect)
		extra := int64(0)
		if !g.Sys.Opt.PCIDMap {
			extra = 2 * prm.TLBFlushPenalty
			d.tlb.FlushVPID(g.VPID)
			ctr.TLBFlushes.Add(2)
		}
		c.AdvanceLazy(2*prm.SwitchDirect + prm.SyscallFrameSetup + prm.SyscallBody + body + extra)
		return
	}
	// Full exit path: switcher → PVM hypervisor → guest kernel → sysret
	// hypercall → switcher → guest user. Four world switches.
	m := u.mmu()
	m.exit(p)
	c.AdvanceLazy(prm.PVMSyscallForward)
	m.enter(p, true)
	c.AdvanceLazy(prm.SyscallBody + body)
	ctr.Hypercalls.Add(1) // sysret hypercall
	m.exit(p)
	m.enter(p, false)
}

func (u *pvmCPU) privOp(p *guest.Process, op arch.PrivOp) {
	g := u.g
	c := p.CPU
	prm := &g.Sys.Prm
	ctr := g.Sys.Ctr
	switch op {
	case arch.OpHypercall:
		ctr.Hypercalls.Add(1)
		u.roundTrip(p, prm.PVMHandlerHypercall)
	case arch.OpException:
		ctr.Emulations.Add(1)
		u.roundTrip(p, prm.PVMHandlerException)
	case arch.OpMSRAccess:
		// Privileged instruction at h_ring3: #GP into the switcher,
		// decoded and executed by PVM's instruction simulator.
		ctr.Emulations.Add(1)
		raw := insn.Encode(insn.Instruction{Op: insn.WRMSR, Imm: msrPerfGlobalCtrl, Reg: 1})
		if _, err := u.em.ExecuteBytes(raw); err != nil {
			panic(fmt.Sprintf("backend/pvm: msr emulation: %v", err))
		}
		u.roundTrip(p, prm.PVMEmulatePriv+prm.PVMHandlerMSR)
	case arch.OpCPUID:
		ctr.Hypercalls.Add(1)
		u.roundTrip(p, prm.PVMHandlerCPUID)
	case arch.OpPIO:
		ctr.Emulations.Add(1)
		u.roundTrip(p, prm.PVMHandlerPIO)
		if u.nested {
			// The L1 VMM's device emulation itself exits to L0.
			ctr.Switch(metrics.SwitchHW)
			ctr.Switch(metrics.SwitchHW)
			ctr.L0Exits.Add(1)
			c.AdvanceLazy(prm.PIONestedL0Work)
		}
	case arch.OpHLT:
		u.halt(p)
	case arch.OpIret:
		ctr.Hypercalls.Add(1)
		u.roundTrip(p, prm.PVMHandlerHypercall)
	case arch.OpWriteCR3:
		// load_cr3 hypercall: switch the active shadow root; with PCID
		// mapping no flush is needed.
		ctr.Hypercalls.Add(1)
		extra := prm.TLBFlushPCID
		if g.Sys.Opt.PCIDMap {
			extra = 0
		}
		u.roundTrip(p, prm.PVMHandlerHypercall+prm.SPTCR3Switch/2+extra)
	default:
		ctr.Emulations.Add(1)
		u.roundTrip(p, prm.PVMEmulatePriv)
	}
}

func (u *pvmCPU) halt(p *guest.Process) {
	// HLT is a hypercall; the sleep/wake stays inside L1 — no root-mode
	// transition, the reason PVM wins on blocking-synchronization
	// workloads (§4.3, fluidanimate).
	u.g.Sys.Ctr.Hypercalls.Add(1)
	u.roundTrip(p, u.g.Sys.Prm.HaltWakePVM)
}

func (u *pvmCPU) interrupt(p *guest.Process, vector uint8) {
	g := u.g
	c := p.CPU
	prm := &g.Sys.Prm
	m := u.mmu()
	if u.nested {
		// One exit to L0, which injects the interrupt into the L1 VM
		// (hardware path); from there PVM's customized IDT handles
		// everything between L1 and L2 (§3.3.3).
		g.Sys.Ctr.Switch(metrics.SwitchHW)
		g.Sys.Ctr.Switch(metrics.SwitchHW)
		g.Sys.Ctr.L0Exits.Add(1)
		c.AdvanceLazy(2 * prm.SwitchHW)
	}
	// The interrupted guest enters the switcher's customized IDT, which
	// transitions into PVM; PVM converts the interrupt to a virtual one,
	// checks the shared IF word, and injects it into the L2 guest kernel,
	// which returns via the iret hypercall.
	m.exit(p)
	m.Switcher().SharedIF.Get()
	c.AdvanceLazy(prm.InterruptInjectPVM)
	m.enter(p, true)
	g.Sys.Ctr.Hypercalls.Add(1) // iret hypercall
	m.exit(p)
	m.enter(p, false)
}

func (u *pvmCPU) ioKick(p *guest.Process) {
	g := u.g
	c := p.CPU
	prm := &g.Sys.Prm
	u.roundTrip(p, prm.VirtioKick)
	if u.nested {
		// L1's vhost performs the real I/O through its own virtio to L0.
		g.Sys.Ctr.Switch(metrics.SwitchHW)
		g.Sys.Ctr.Switch(metrics.SwitchHW)
		g.Sys.Ctr.L0Exits.Add(1)
		c.AdvanceLazy(2*prm.SwitchHW + prm.VirtioKick)
	}
}

func (u *pvmCPU) ioComplete(p *guest.Process) {
	p.CPU.AdvanceLazy(u.g.Sys.Prm.VirtioComplete)
	u.interrupt(p, 40 /* virtio-blk vector */)
}
