package backend

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/guest"
	"repro/internal/pagetable"
	"repro/internal/tlb"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// eptMMU is single-level hardware memory virtualization (kvm-ept (BM)): the
// guest manages its own page table, the hardware walks GPT×EPT01, guest page
// faults are handled entirely inside the guest, and only EPT01 violations
// exit to the hypervisor.
type eptMMU struct {
	g *Guest
}

func newEPTMMU(g *Guest) *eptMMU { return &eptMMU{g: g} }

func (m *eptMMU) register(p *guest.Process) {
	p.PlatformData = &procData{
		tlb:      tlb.New(m.g.Sys.Opt.TLBEntries),
		missPT:   p.GPT,
		pcidUser: arch.PCID(p.PID) % arch.MaxPCID,
	}
	// GPT updates do not trap: no OnWrite hook.
}

// bind has nothing to hand over: the only lock is the guest VM's mmu_lock,
// which Guest.Bind owns through the VM.
func (m *eptMMU) bind(*vclock.CPU) {}

func (m *eptMMU) unregister(p *guest.Process) {
	// Nothing to tear down: EPT backings are released page by page via
	// releasePage as the kernel frees frames.
}

// resolve handles one page whose TLB probe missed: guest walk (with
// guest-internal fault handling), EPT01 backing, and the TLB refill.
func (m *eptMMU) resolve(p *guest.Process, d *procData, va arch.VA, write bool, r *pagetable.Reader) {
	g := m.g
	c := p.CPU
	prm := &g.Sys.Prm

	e, _, fault := r.Walk(va, write, true)
	if fault != nil {
		// Guest-internal #PF: delivered through the guest IDT without
		// any VM exit — the defining advantage of hardware-assisted
		// memory virtualization.
		g.Sys.Ctr.GuestFaults.Add(1)
		g.Sys.trace(c, trace.KindFault, trace.FormInternalFault, g.Name, p.PID, uint64(va), 0, "")
		c.AdvanceLazy(prm.ExceptionDelivery)
		if _, err := g.Kern.HandleFault(p, va, write); err != nil {
			panic(fmt.Sprintf("backend/ept: %v", err))
		}
		var f2 *pagetable.Fault
		e, _, f2 = r.Walk(va, write, true)
		if f2 != nil {
			panic(fmt.Sprintf("backend/ept: fault persists after handling: %v", f2))
		}
	}

	// Second-dimension leg: EPT01 violations trap to the hypervisor.
	g.vm.EnsureBacking(c, e.PFN)

	// PML: the logging walk appends the dirtied page to the vCPU ring.
	g.pmlRecord(c, d, va, write, false)

	g.refill(c, d, va, e, write, true)
}

func (m *eptMMU) dirtyStart(p *guest.Process) { m.g.pmlDirtyStart(p, false) }

func (m *eptMMU) dirtyCollect(p *guest.Process) []arch.VA {
	return m.g.pmlDirtyCollect(p, false)
}

func (m *eptMMU) dirtyStop(p *guest.Process) { m.g.pmlDirtyStop(p, false) }

func (m *eptMMU) releasePage(p *guest.Process, va arch.VA, gpa arch.PFN) {
	m.g.vm.ReleaseBacking(p.CPU, gpa)
}

// flushRange is guest-internal under hardware-assisted virtualization: the
// guest invalidates its own TLB entries without any exit.
func (m *eptMMU) flushRange(p *guest.Process, pages int) {
	p.CPU.AdvanceLazy(int64(pages) * m.g.Sys.Prm.FlushPTEScan)
}
