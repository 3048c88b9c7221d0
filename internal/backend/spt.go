package backend

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/tlb"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// newShadowPT allocates a shadow page table: same radix structure as a
// guest table, maintained by a hypervisor from its own memory.
func newShadowPT(alloc *mem.Allocator) *pagetable.PageTable {
	pt, err := pagetable.New(alloc)
	if err != nil {
		panic(fmt.Sprintf("backend: allocating shadow table: %v", err))
	}
	return pt
}

// sptMMU implements traditional shadow paging: kvm-spt (BM) when nested is
// false, SPT-on-EPT (§2.2, Figure 3a) when nested is true. The guest's page
// table is write-protected; every guest PTE store and every shadow fault
// traps to the hypervisor maintaining SPT12 — bouncing through L0 on every
// leg in the nested case.
type sptMMU struct {
	g      *Guest
	nested bool

	// mmuLock is the shadowing hypervisor's global mmu_lock: the host
	// kvm's per-VM lock on bare metal, the L1 kvm's per-L2-guest lock
	// when nested.
	mmuLock *vclock.Lock

	// backing maps L2 guest-physical frames to the frames the shadow
	// leaves point at (Guest.machineFrames).
	backing *frameMap
}

func newSPTMMU(g *Guest, nested bool) *sptMMU {
	m := &sptMMU{g: g, nested: nested, backing: newFrameMap()}
	if nested {
		m.mmuLock = g.Sys.Eng.NewLock("l1-mmu:" + g.Name)
	} else {
		m.mmuLock = g.vm.MMULock
	}
	return m
}

// hold scales a critical-section hold time: a nested shadowing hypervisor's
// emulation code reads L2 state through two translation layers, inflating
// every hold (cost.Params.NestedSPTHoldPct).
func (m *sptMMU) hold(ns int64) int64 {
	if !m.nested {
		return ns
	}
	return ns * m.g.Sys.Prm.NestedSPTHoldPct / 100
}

// exit and entry are one leg of a guest↔hypervisor trip in this
// configuration's stack position.
func (m *sptMMU) exit(c *vclock.CPU) {
	if m.nested {
		m.g.l2ToL1(c)
	} else {
		m.g.exitHW(c)
	}
}

func (m *sptMMU) entry(c *vclock.CPU, p *guest.Process) {
	if m.nested {
		m.g.l1ToL2(c)
	} else {
		m.g.entryHW(c)
	}
}

func (m *sptMMU) register(p *guest.Process) {
	d := &procData{
		tlb:      tlb.New(m.g.Sys.Opt.TLBEntries),
		pcidUser: arch.PCID(p.PID) % arch.MaxPCID,
	}
	d.sptUser = newShadowPT(m.g.machineFrames())
	d.missPT = d.sptUser
	d.sptMapper = d.sptUser.NewMapper()
	if m.g.Sys.Opt.KPTI {
		d.sptKernel = newShadowPT(m.g.machineFrames())
	}
	p.PlatformData = d
	// Write-protect the guest page table: every store traps.
	p.GPT.OnWrite = func(ev pagetable.WriteEvent) { m.onGPTWrite(p, ev) }
}

// bind owns the nested per-guest mmu_lock; on bare metal the mmu_lock is the
// guest VM's, which Guest.Bind owns through the VM.
func (m *sptMMU) bind(c *vclock.CPU) {
	if m.nested {
		m.mmuLock.Own(c)
	}
}

func (m *sptMMU) unregister(p *guest.Process) {
	p.GPT.OnWrite = nil
	d := pd(p)
	// Unshadowing: zap and free the shadow tables under the mmu_lock.
	prm := &m.g.Sys.Prm
	hold := m.hold(prm.SPTFix) + int64(d.sptUser.CountMapped())*prm.SPTZapLeaf
	d.sptMapper.Reset() // cached leaf must not outlive Destroy
	m.g.withFrames(m.mmuLock, p.CPU, hold, func() {
		if err := d.sptUser.Destroy(); err != nil {
			panic(err)
		}
		if d.sptKernel != nil {
			if err := d.sptKernel.Destroy(); err != nil {
				panic(err)
			}
		}
	})
}

// onGPTWrite emulates one write-protected guest PTE store: a full trap to
// the shadowing hypervisor, the write applied and the shadow synchronized
// under the mmu_lock, and a return to the guest.
func (m *sptMMU) onGPTWrite(p *guest.Process, ev pagetable.WriteEvent) {
	g := m.g
	c := p.CPU
	d := pd(p)
	g.Sys.Ctr.PTEWriteTraps.Add(1)
	m.exit(c)
	// The zap touches only this process's shadow table (Unmap frees no
	// table frame): private to a bound guest's vCPU.
	m.mmuLock.WithPrivate(c, m.hold(g.Sys.Prm.SPTEmulWrite), func() {
		if ev.Leaf {
			d.sptMapper.Unmap(ev.VA) // zap; refixed on next access
		}
	})
	if ev.Leaf {
		d.tlb.FlushPage(g.VPID, d.pcidUser, ev.VA)
	}
	m.entry(c, p)
}

// resolve runs the shadow-fault choreography for a page with no shadow leaf
// that permits the access: trap to the shadowing hypervisor, classify
// against the guest table, optionally deliver a guest fault, fix the shadow
// leaf, and refill the TLB.
func (m *sptMMU) resolve(p *guest.Process, d *procData, va arch.VA, write bool, _ *pagetable.Reader) {
	g := m.g
	c := p.CPU
	prm := &g.Sys.Prm

	// #PF on the shadow table: trap to the shadowing hypervisor.
	m.exit(c)
	c.AdvanceLazy(int64(arch.PTLevels) * prm.PageWalkLevel) // software GPT walk to classify

	ge, gok := p.GPT.Lookup(va)
	if !gok || (write && !ge.Flags.Has(pagetable.Writable)) {
		// True guest fault: inject #PF and let the guest kernel fix
		// its page table (each store traps via onGPTWrite), then the
		// re-access faults on the shadow table again.
		g.Sys.Ctr.GuestFaults.Add(1)
		g.Sys.trace(c, trace.KindFault, trace.FormGuestFault, g.Name, p.PID, uint64(va), 0, "")
		m.entry(c, p)
		if _, err := g.Kern.HandleFault(p, va, write); err != nil {
			panic(fmt.Sprintf("backend/spt: %v", err))
		}
		m.exit(c)
	}
	m.fixSPT(p, d, va)
	m.entry(c, p)

	e, ok := d.sptMapper.Lookup(va)
	if !ok {
		panic("backend/spt: shadow entry missing after fix")
	}
	g.refill(c, d, va, e, write, m.nested)
}

// fixSPT builds the shadow leaf for va under the mmu_lock: resolve the
// guest mapping, find/allocate the backing frame, and map the shadow entry
// with permissions matching the guest PTE (so COW pages stay read-only in
// the shadow).
func (m *sptMMU) fixSPT(p *guest.Process, d *procData, va arch.VA) {
	g := m.g
	c := p.CPU
	prm := &g.Sys.Prm
	ge, ok := p.GPT.Lookup(va)
	if !ok {
		panic("backend/spt: fixSPT with no guest mapping")
	}
	var l1gpa arch.PFN
	hold := m.hold(prm.SPTFix)
	m.g.withFrames(m.mmuLock, c, 0, func() {
		target, alloced := m.backing.getOrAlloc(ge.PFN, m.g.machineFrames().MustAlloc)
		if alloced {
			hold += prm.FrameAlloc
		}
		l1gpa = target
		flags := pagetable.User
		if ge.Flags.Has(pagetable.Writable) {
			flags |= pagetable.Writable
		}
		if _, err := d.sptMapper.Map(va, target, flags); err != nil {
			panic(err)
		}
		c.AdvanceLazy(hold)
	})
	g.Sys.Ctr.ShadowFaults.Add(1)
	if m.nested {
		// The L1 frame the shadow points at needs EPT01 backing
		// (silent under the warm-instance assumption).
		g.Sys.L1.EnsureBacking(c, l1gpa)
	}
}

func (m *sptMMU) releasePage(p *guest.Process, va arch.VA, gpa arch.PFN) {
	g := m.g
	t, ok := m.backing.remove(gpa)
	if !ok {
		return
	}
	g.withFrames(m.mmuLock, p.CPU, g.Sys.Prm.EPTFix/2, func() {
		if _, err := g.machineFrames().Free(t); err != nil {
			panic(err)
		}
	})
}

// dirtyOps binds the write-protect dirty-log lane to this configuration's
// exit/entry legs and mmu_lock (with nested hold scaling on the sweep).
func (m *sptMMU) dirtyOps(p *guest.Process) shadowDirtyOps {
	c := p.CPU
	d := pd(p)
	prm := &m.g.Sys.Prm
	return shadowDirtyOps{
		exit:  func() { m.exit(c) },
		entry: func() { m.entry(c, p) },
		sweep: func() {
			// Write-protects leaves of the process's own shadow table.
			m.mmuLock.WithPrivate(c, 0, func() {
				n := d.sptUser.WriteProtectLeaves(dirtyLogged)
				c.AdvanceLazy(m.hold(int64(n) * prm.DirtyLogProtect))
			})
		},
	}
}

func (m *sptMMU) dirtyStart(p *guest.Process) { m.g.shadowDirtyStart(p, m.dirtyOps(p)) }

func (m *sptMMU) dirtyCollect(p *guest.Process) []arch.VA {
	return m.g.shadowDirtyCollect(p, m.dirtyOps(p))
}

func (m *sptMMU) dirtyStop(p *guest.Process) { m.g.shadowDirtyStop(p, m.dirtyOps(p)) }

// flushRange under traditional shadow paging: the guest's flush request
// traps to the shadowing hypervisor, which — lacking per-address-space TLB
// tags for the guest — must shoot down every vCPU of the guest under the
// mmu_lock. In a nested deployment each remote kick is a full nested switch
// (the cold-start penalty PVM's PCID mapping removes, §3.3.2).
func (m *sptMMU) flushRange(p *guest.Process, pages int) {
	g := m.g
	c := p.CPU
	prm := &g.Sys.Prm
	// The live-process count is shared mutable state read outside any
	// virtual lock: gate, then read immediately — before any charge — so
	// the read happens at the gate's virtual instant. (Interposing even a
	// lazy charge would break the eager-charging mode, where every charge
	// is itself a gate that can admit a concurrent fork or exit.)
	c.Sync()
	remote := int64(g.LiveProcs() - 1)
	if remote < 0 {
		remote = 0
	}
	m.exit(c)
	kick := prm.ShootdownIPI
	if m.nested {
		kick = prm.NestedSwitchOneWay()
	}
	hold := m.hold(int64(pages)*prm.FlushPTEScan) + remote*kick
	m.mmuLock.WithPrivate(c, hold, func() {
		pd(p).tlb.FlushVPID(g.VPID) // the process's own TLB
	})
	m.entry(c, p)
}
