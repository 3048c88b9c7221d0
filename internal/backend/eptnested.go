package backend

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/guest"
	"repro/internal/metrics"
	"repro/internal/pagetable"
	"repro/internal/tlb"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// gpaVA maps a guest-physical frame into the index space of an EPT.
func gpaVA(gpa arch.PFN) arch.VA { return arch.VA(gpa.Addr()) }

// eptNestedMMU implements EPT-on-EPT (§2.2, Figure 3b), the state-of-the-art
// hardware-assisted nested memory virtualization in KVM: the L2 guest
// updates its own page table freely, L1 maintains EPT12 (made read-only by
// L0, so every store is emulated by L0), and L0 maintains the compressed
// EPT02 under its per-L1-VM mmu_lock — the lock every L2 guest of the
// instance contends on, which is the scalability collapse of Figures 10–12.
type eptNestedMMU struct {
	g *Guest

	// ept12 maps L2 guest-physical to L1 guest-physical; maintained by
	// the L1 hypervisor, write-protected by L0.
	ept12 *pagetable.PageTable

	// ept02 maps L2 guest-physical to host-physical; maintained by L0.
	ept02 *pagetable.PageTable

	// ept12M and ept02M are cached-leaf write cursors for the violation
	// fix paths. ept12M is touched only under l1Lock and ept02M only
	// under the L0 mmu_lock, matching the tables they cover; releasePage
	// unmaps in place under the same locks, keeping the caches coherent.
	ept12M pagetable.Mapper
	ept02M pagetable.Mapper

	// l1Lock is L1 kvm's mmu_lock for this L2 guest.
	l1Lock *vclock.Lock

	// cur is the vCPU currently executing inside l1Lock (EPT12 stores
	// must be charged to it from the OnWrite hook).
	cur *vclock.CPU

	// suppress disables the EPT12 write-protection hook during
	// asynchronous free-page-reporting zaps.
	suppress bool

	// backing maps l2gpa → l1gpa.
	backing *frameMap
}

func newEPTNestedMMU(g *Guest) *eptNestedMMU {
	m := &eptNestedMMU{
		g:       g,
		ept12:   newShadowPT(g.Sys.L1.GPA),
		ept02:   newShadowPT(g.Sys.L1.Frames),
		l1Lock:  g.Sys.Eng.NewLock("l1-mmu:" + g.Name),
		backing: newFrameMap(),
	}
	// EPT12 is read-only to L1: every store traps to L0, which emulates
	// it and updates its shadow structures under the L0 mmu_lock
	// (Figure 3b steps 5–7).
	m.ept12.OnWrite = m.onEPT12Write
	m.ept12M = m.ept12.NewMapper()
	m.ept02M = m.ept02.NewMapper()
	return m
}

// onEPT12Write emulates one write-protected EPT12 store: L1 exits to L0,
// which applies the store and refreshes its shadow under the L0 mmu_lock.
func (m *eptNestedMMU) onEPT12Write(ev pagetable.WriteEvent) {
	if m.suppress {
		return
	}
	c := m.cur
	if c == nil {
		panic("backend/eptnested: EPT12 store outside violation handling")
	}
	g := m.g
	prm := &g.Sys.Prm
	ctr := g.Sys.Ctr
	ctr.PTEWriteTraps.Add(1)
	// L1 → L0 exit and return: two world switches, one L0 exit.
	ctr.Switch(metrics.SwitchHW)
	ctr.Switch(metrics.SwitchHW)
	ctr.L0Exits.Add(1)
	c.AdvanceLazy(2 * prm.SwitchHW)
	g.vm.MMULock.With(c, prm.EPT02Compress, nil)
}

// bind owns L1's per-guest mmu_lock; the L0 mmu_lock belongs to the shared
// L1 instance and keeps gating.
func (m *eptNestedMMU) bind(c *vclock.CPU) { m.l1Lock.Own(c) }

func (m *eptNestedMMU) register(p *guest.Process) {
	p.PlatformData = &procData{
		tlb:      tlb.New(m.g.Sys.Opt.TLBEntries),
		missPT:   p.GPT,
		pcidUser: arch.PCID(p.PID) % arch.MaxPCID,
	}
	// GPT2 updates are free: no hook (the whole point of EPT-on-EPT).
}

func (m *eptNestedMMU) unregister(p *guest.Process) {
	// EPT12/EPT02 are per-guest (guest-physical) structures; per-process
	// teardown releases nothing here. Frames are reported page by page
	// via releasePage.
}

// resolve handles one page whose TLB probe missed: guest walk (with
// guest-internal fault handling), EPT02 residency check, and TLB refill.
func (m *eptNestedMMU) resolve(p *guest.Process, d *procData, va arch.VA, write bool, r *pagetable.Reader) {
	g := m.g
	c := p.CPU
	prm := &g.Sys.Prm

	e, _, fault := r.Walk(va, write, true)
	if fault != nil {
		// Guest-internal #PF: no exits (Figure 3b steps 1–3).
		g.Sys.Ctr.GuestFaults.Add(1)
		g.Sys.trace(c, trace.KindFault, trace.FormInternalFault, g.Name, p.PID, uint64(va), 0, "")
		c.AdvanceLazy(prm.ExceptionDelivery)
		if _, err := g.Kern.HandleFault(p, va, write); err != nil {
			panic(fmt.Sprintf("backend/eptnested: %v", err))
		}
		var f2 *pagetable.Fault
		e, _, f2 = r.Walk(va, write, true)
		if f2 != nil {
			panic(fmt.Sprintf("backend/eptnested: fault persists: %v", f2))
		}
	}

	if _, ok := m.ept02.Lookup(gpaVA(e.PFN)); !ok {
		m.ept02Violation(p, e.PFN)
	}

	// PML: L1's logging walk appends the dirtied page to the vCPU ring; a
	// full ring drains through a complete L2→L1 trip.
	g.pmlRecord(c, d, va, write, true)

	g.refill(c, d, va, e, write, true)
}

func (m *eptNestedMMU) dirtyStart(p *guest.Process) { m.g.pmlDirtyStart(p, true) }

func (m *eptNestedMMU) dirtyCollect(p *guest.Process) []arch.VA {
	return m.g.pmlDirtyCollect(p, true)
}

func (m *eptNestedMMU) dirtyStop(p *guest.Process) { m.g.pmlDirtyStop(p, true) }

// ept02Violation runs the full Figure 3b choreography for an L2
// guest-physical page missing from EPT02: in total 2n+6 world switches and
// n+3 exits to L0, where n is the number of EPT12 levels written.
func (m *eptNestedMMU) ept02Violation(p *guest.Process, gpa arch.PFN) {
	g := m.g
	c := p.CPU
	prm := &g.Sys.Prm

	// Steps 1–3: EPT violation exits to L0, which injects it into L1.
	g.l2ToL1(c)

	// Step 4: L1's handler allocates the backing L1 frame and builds the
	// EPT12 entry under L1's mmu_lock; every EPT12 store traps to L0
	// (steps 5–7, via onEPT12Write).
	var l1gpa arch.PFN
	m.l1Lock.With(c, 0, func() {
		var alloced bool
		l1gpa, alloced = m.backing.getOrAlloc(gpa, g.Sys.L1.GPA.MustAlloc)
		hold := prm.EPTFix
		if alloced {
			hold += prm.FrameAlloc
		}
		m.cur = c
		if _, err := m.ept12M.Map(gpaVA(gpa), l1gpa, pagetable.Writable|pagetable.User); err != nil {
			panic(err)
		}
		m.cur = nil
		c.AdvanceLazy(hold)
	})

	// Steps 8–10: L1 resumes L2; the VMRESUME traps to L0, which merges
	// VMCS02 and performs the real entry.
	g.l1ToL2(c)

	// Step 11: the access faults again on EPT02 and exits to L0.
	g.exitHW(c)

	// Step 12: L0 compresses EPT12 with EPT01 into EPT02 under its
	// per-L1-VM mmu_lock — shared by every L2 guest of the instance.
	hpa, _ := g.Sys.L1.EnsureBacking(c, l1gpa)
	g.vm.MMULock.With(c, prm.EPT02Compress, func() {
		if _, err := m.ept02M.Map(gpaVA(gpa), hpa, pagetable.Writable|pagetable.User); err != nil {
			panic(err)
		}
	})
	g.Sys.Ctr.EPTViolations.Add(1)

	// Step 13: real entry back into L2.
	g.entryHW(c)
}

// releasePage propagates a guest frame release down the stack (free page
// reporting): EPT12 and EPT02 entries are zapped by asynchronous workers
// (brief critical sections, no exits) and the L1 frame is returned — so the
// next use of the guest-physical page refaults the whole nested path.
func (m *eptNestedMMU) releasePage(p *guest.Process, va arch.VA, gpa arch.PFN) {
	g := m.g
	c := p.CPU
	prm := &g.Sys.Prm
	l1gpa, ok := m.backing.remove(gpa)
	if !ok {
		return
	}
	// The zap touches only this guest's EPT12 (Unmap frees no table frame,
	// and the write-protection hook is suppressed).
	m.l1Lock.WithPrivate(c, prm.EPTFix/2, func() {
		m.suppress = true
		m.ept12.Unmap(gpaVA(gpa))
		m.suppress = false
	})
	g.vm.MMULock.With(c, prm.EPTFix/2, func() {
		m.ept02.Unmap(gpaVA(gpa))
	})
	g.Sys.L1.ReleaseBacking(c, l1gpa)
	if _, err := g.Sys.L1.GPA.Free(l1gpa); err != nil {
		panic(err)
	}
}

// flushRange is guest-internal under EPT-on-EPT: the guest's INVLPG does
// not exit (VPID-tagged hardware TLB).
func (m *eptNestedMMU) flushRange(p *guest.Process, pages int) {
	p.CPU.AdvanceLazy(int64(pages) * m.g.Sys.Prm.FlushPTEScan)
}
