package backend

import (
	"repro/internal/arch"
	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// newL2GPASpace creates the guest-physical frame space of one nested (L2)
// guest. Frames are identifiers within the guest; their L1 backing is
// established lazily by the nested mmu strategies.
func newL2GPASpace(name string, frames int64) *mem.Allocator {
	return mem.NewAllocator("l2gpa:"+name, frames, 0x1000)
}

// Transition helpers. Each directed transition between adjacent layers of
// the stack is one world switch, matching the paper's counting (§2.2): an
// L2→L1 trip under hardware-assisted nesting is *two* world switches (L2→L0,
// L0→L1) and one L0 exit.

// exitHW charges a single-level VM exit: guest → immediate hardware
// hypervisor (which is L0).
func (g *Guest) exitHW(c *vclock.CPU) {
	g.Sys.Ctr.Switch(metrics.SwitchHW)
	g.Sys.Ctr.L0Exits.Add(1)
	g.Sys.Ctr.WorldExits.Add(1)
	g.Sys.trace(c, trace.KindSwitch, trace.FormVMExit, g.Name, 0, 0, 0, "")
	c.AdvanceLazy(g.Sys.Prm.SwitchHW)
}

// entryHW charges a single-level VM entry: hypervisor → guest. The entry
// gates (eager Advance): guest code always resumes in its vCPU's virtual-time
// slot, so unordered reads of shared hypervisor state (EPT01 backings, EPT02
// residency) that follow in the next fault's walk observe exactly the
// mutations committed before that slot. Exit legs and hypervisor-internal
// work stay lazy; the entry is the one ordering point per round trip. In a
// bound guest that state is the guest's own, and every System-shared read
// carries its own gate, so the entry is a private charge (Guest.Bind).
func (g *Guest) entryHW(c *vclock.CPU) {
	g.Sys.Ctr.Switch(metrics.SwitchHW)
	g.Sys.Ctr.WorldEntries.Add(1)
	g.order(c, g.Sys.Prm.SwitchHW)
}

// l2ToL1 charges a nested L2→L1 trip: the L2 trap exits to L0, which injects
// the event into L1 and resumes it. Two world switches, one L0 exit, one
// arrival at the L1 hypervisor. While handling the exit, L1 reads and
// writes the guest's VMCS12; without hardware VMCS shadowing each of those
// accesses is a further trap to L0 (§2.1: 40–50 exits per switch).
func (g *Guest) l2ToL1(c *vclock.CPU) {
	ctr := g.Sys.Ctr
	prm := &g.Sys.Prm
	ctr.Switch(metrics.SwitchNestedHop)
	ctr.Switch(metrics.SwitchNestedHop)
	ctr.L0Exits.Add(1)
	ctr.L1Exits.Add(1)
	ctr.WorldExits.Add(1)
	g.Sys.trace(c, trace.KindSwitch, trace.FormNestedTrip, g.Name, 0, 0, 0, "")
	c.AdvanceLazy(prm.NestedSwitchOneWay())
	if g.vmcs12 == nil {
		return
	}
	for i := 0; i < prm.VMCSAccessesPerExit; i++ {
		if i%2 == 0 {
			g.vmcs12.Read(arch.NonRootMode)
		} else {
			g.vmcs12.Write(arch.NonRootMode)
		}
	}
	if !g.vmcs12.Shadowed {
		n := int64(prm.VMCSAccessesPerExit)
		ctr.L0Exits.Add(n)
		c.AdvanceLazy(n * (2*prm.SwitchHW + prm.VMCSAccess))
	}
}

// l1ToL2 charges the nested return: L1's VMRESUME traps to L0, which merges
// VMCS02 and performs the real entry. Two world switches, one L0 exit.
// Like entryHW, the return into L2 gates so guest code resumes in its
// virtual-time slot, unless the guest is bound (see entryHW).
func (g *Guest) l1ToL2(c *vclock.CPU) {
	ctr := g.Sys.Ctr
	ctr.Switch(metrics.SwitchNestedHop)
	ctr.Switch(metrics.SwitchNestedHop)
	ctr.L0Exits.Add(1)
	ctr.WorldEntries.Add(1)
	g.order(c, g.Sys.Prm.NestedReturnOneWay())
}

// pvmExit charges a switcher transition from the L2 guest into the PVM
// hypervisor: one world switch, one arrival at L1, no L0 involvement.
func (g *Guest) pvmExit(c *vclock.CPU) {
	g.Sys.Ctr.Switch(metrics.SwitchPVM)
	g.Sys.Ctr.L1Exits.Add(1)
	g.Sys.Ctr.WorldExits.Add(1)
	g.Sys.trace(c, trace.KindSwitch, trace.FormSwitcherExit, g.Name, 0, 0, 0, "")
	c.AdvanceLazy(g.Sys.Prm.SwitchPVM)
}

// pvmEntry charges the switcher transition back into the L2 guest (user or
// kernel). Without the PCID-mapping optimization the CR3 load implicitly
// flushes the guest's TLB context; the hot-set refill penalty is charged
// here and the simulated TLB is actually flushed.
func (g *Guest) pvmEntry(c *vclock.CPU, p *guest.Process) {
	g.Sys.Ctr.Switch(metrics.SwitchPVM)
	g.Sys.Ctr.WorldEntries.Add(1)
	d := pd(p)
	extra := int64(0)
	if !g.Sys.Opt.PCIDMap {
		extra = g.Sys.Prm.TLBFlushPenalty
		d.tlb.FlushVPID(g.VPID)
		g.Sys.Ctr.TLBFlushes.Add(1)
	}
	c.AdvanceLazy(g.Sys.Prm.SwitchPVM + extra)
}
