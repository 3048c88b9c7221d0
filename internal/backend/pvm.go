package backend

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/metrics"
	"repro/internal/pagetable"
	"repro/internal/tlb"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/vmx"
)

// pvmMMU implements PVM-on-EPT (§3.3.2, Figure 9): dual shadow page tables
// (guest user / guest kernel) maintained entirely by the L1 PVM hypervisor,
// with the prefault, PCID-mapping, and fine-grained-locking optimizations
// from package core. The same choreography runs on bare metal (PVM as L0);
// only the layer the backing frames come from differs.
type pvmMMU struct {
	g      *Guest
	nested bool

	sw    *core.Switcher
	locks *core.LockSet

	// backing maps L2 guest-physical frames to the frames the shadow
	// leaves point at (Guest.machineFrames).
	backing *frameMap
}

func newPVMMMU(g *Guest, nested bool) *pvmMMU {
	mode := core.CoarseLock
	if g.Sys.Opt.FineLock {
		mode = core.FineLock
	}
	m := &pvmMMU{
		g:       g,
		nested:  nested,
		locks:   core.NewLockSet(g.Sys.Eng, g.Name, mode),
		backing: newFrameMap(),
	}
	m.sw = core.NewSwitcher(g.machineFrames())
	return m
}

// Switcher exposes the guest's switcher (for inspection and tests).
func (m *pvmMMU) Switcher() *core.Switcher { return m.sw }

// Locks exposes the guest's shadow lock set.
func (m *pvmMMU) Locks() *core.LockSet { return m.locks }

func (m *pvmMMU) register(p *guest.Process) {
	g := m.g
	d := &procData{
		tlb:      tlb.New(g.Sys.Opt.TLBEntries),
		switcher: m.sw.NewVCPUState(),
	}
	if g.Sys.Opt.PCIDMap {
		d.pcidUser, d.pcidKernel = g.Sys.PCIDs.Alloc()
	} else {
		d.pcidUser = arch.PCID(p.PID) % arch.MaxPCID
		d.pcidKernel = d.pcidUser
	}
	// Dual shadow page tables: PVM simulates KPTI for the L2 guest at
	// the hypervisor level, isolating guest user from guest kernel
	// (§3.3.2); the switcher is mapped global into both.
	d.shadow = core.NewShadowSpace(g.machineFrames(), m.sw)
	d.sptUser = d.shadow.User
	d.sptKernel = d.shadow.Kernel
	d.missPT = d.shadow.User
	p.PlatformData = d
	p.GPT.OnWrite = func(ev pagetable.WriteEvent) { m.onGPTWrite(p, ev) }
}

func (m *pvmMMU) bind(c *vclock.CPU) { m.locks.Own(c) }

func (m *pvmMMU) unregister(p *guest.Process) {
	p.GPT.OnWrite = nil
	d := pd(p)
	prm := &m.g.Sys.Prm
	hold := prm.PVMSPTFix + int64(d.shadow.MappedLeaves())*prm.SPTZapLeaf
	lock := m.locks.Coarse
	if m.locks.Mode == core.FineLock {
		lock = m.locks.Meta
	}
	m.g.withFrames(lock, p.CPU, hold, func() {
		if err := d.shadow.Destroy(); err != nil {
			panic(err)
		}
	})
}

// exit transitions L2 → PVM hypervisor through the switcher, saving guest
// state into the per-CPU switcher state (scrubbing registers).
func (m *pvmMMU) exit(p *guest.Process) {
	d := pd(p)
	d.switcher.SaveGuest(vmx.CPUState{CR3: p.GPT.Root(), PCID: d.pcidUser, Ring: arch.Ring3})
	m.g.pvmExit(p.CPU)
}

// enter transitions PVM hypervisor → L2 (user or kernel).
func (m *pvmMMU) enter(p *guest.Process, toKernel bool) {
	d := pd(p)
	d.switcher.RestoreGuest()
	if toKernel {
		d.switcher.VirtRing = arch.VRing0
	} else {
		d.switcher.VirtRing = arch.VRing3
	}
	m.g.pvmEntry(p.CPU, p)
}

// onGPTWrite handles one guest PTE store. In the default (write-protected)
// design it is a switcher trap into PVM with the shadow synchronized under
// the fine-grained (or coarse) locks. With CollaborativeSync (§5) the store
// does not trap: it is appended to the process's shared update log and
// replayed at the next synchronization point.
func (m *pvmMMU) onGPTWrite(p *guest.Process, ev pagetable.WriteEvent) {
	g := m.g
	c := p.CPU
	d := pd(p)
	prm := &g.Sys.Prm
	if g.Sys.Opt.CollaborativeSync {
		// Log entry in the shared ring: one cache-line store.
		c.AdvanceLazy(prm.PTEWrite)
		d.syncLog = append(d.syncLog, ev)
		return
	}
	g.Sys.Ctr.PTEWriteTraps.Add(1)
	m.exit(p)
	// The zap touches only this process's shadow table (Zap frees no table
	// frame): private to a bound guest's vCPU.
	if m.locks.Mode == core.FineLock {
		if ev.Leaf {
			m.locks.Rmap(ev.Entry.PFN).With(c, prm.RmapHold, nil)
		}
		m.locks.PT(p.PID, ev.VA).WithPrivate(c, prm.PVMEmulWrite, func() {
			if ev.Leaf {
				d.shadow.Zap(ev.VA)
			}
		})
	} else {
		m.locks.Coarse.WithPrivate(c, prm.PVMEmulWrite+prm.RmapHold, func() {
			if ev.Leaf {
				d.shadow.Zap(ev.VA)
			}
		})
	}
	if ev.Leaf {
		d.tlb.FlushPage(g.VPID, d.pcidUser, ev.VA)
	}
	m.enter(p, true)
}

// resolve runs the PVM fault choreography (Figure 9) for a page with no
// shadow leaf that permits the access.
func (m *pvmMMU) resolve(p *guest.Process, d *procData, va arch.VA, write bool, _ *pagetable.Reader) {
	g := m.g
	c := p.CPU
	prm := &g.Sys.Prm

	// Classification: guest fault (the guest's own table lacks a valid
	// mapping) or shadow-only fault.
	ge, gok := p.GPT.Lookup(va)
	guestFault := !gok || (write && !ge.Flags.Has(pagetable.Writable))

	if guestFault && g.Sys.Opt.SwitcherFaultClassify {
		// §5 extension: the switcher itself distinguishes guest from
		// shadow faults and vectors the #PF straight into the L2
		// guest kernel — no PVM hypervisor entry on the way in.
		g.Sys.Ctr.GuestFaults.Add(1)
		g.Sys.trace(c, trace.KindFault, trace.FormSwitcherFault, g.Name, p.PID, uint64(va), 0, "")
		g.Sys.Ctr.Switch(metrics.SwitchDirect)
		g.Sys.Ctr.DirectSwitches.Add(1)
		c.AdvanceLazy(prm.SwitchDirect + int64(arch.PTLevels)*prm.PageWalkLevel)
		if _, err := g.Kern.HandleFault(p, va, write); err != nil {
			panic(fmt.Sprintf("backend/pvm: %v", err))
		}
		g.Sys.Ctr.Hypercalls.Add(1) // iret hypercall
		m.exit(p)
		m.syncReplay(p, d)
		if g.Sys.Opt.Prefault {
			m.fixSPT(p, d, va, true)
		}
		m.enter(p, false)
		if !g.Sys.Opt.Prefault {
			m.refault(p, d, va)
		}
	} else if guestFault {
		// #PF: hardware vectors through the switcher's IDT into PVM
		// (one world switch, no L0 involvement); PVM injects it into
		// the guest kernel (Figure 9 steps 1–5), which fixes GPT2.
		m.exit(p)
		c.AdvanceLazy(int64(arch.PTLevels) * prm.PageWalkLevel)
		g.Sys.Ctr.GuestFaults.Add(1)
		g.Sys.trace(c, trace.KindFault, trace.FormGuestFault, g.Name, p.PID, uint64(va), 0, "")
		m.enter(p, true)
		if _, err := g.Kern.HandleFault(p, va, write); err != nil {
			panic(fmt.Sprintf("backend/pvm: %v", err))
		}
		// Guest kernel returns via the iret hypercall (step 7).
		g.Sys.Ctr.Hypercalls.Add(1)
		m.exit(p)
		m.syncReplay(p, d)
		if g.Sys.Opt.Prefault {
			// Prefault (step 8): install the shadow leaf before
			// returning to user, avoiding the refault.
			m.fixSPT(p, d, va, true)
			m.enter(p, false)
		} else {
			m.enter(p, false)
			m.refault(p, d, va)
		}
	} else {
		// Shadow-only fault: fix SPT12 and return.
		m.exit(p)
		c.AdvanceLazy(int64(arch.PTLevels) * prm.PageWalkLevel)
		m.syncReplay(p, d)
		m.fixSPT(p, d, va, false)
		m.enter(p, false)
	}

	e, ok := d.shadow.Lookup(va)
	if !ok {
		panic("backend/pvm: shadow entry missing after fix")
	}
	g.refill(c, d, va, e, write, m.nested)
}

// refault runs the second fault round taken when prefault is disabled: the
// re-access misses the shadow table and traps again.
func (m *pvmMMU) refault(p *guest.Process, d *procData, va arch.VA) {
	m.exit(p)
	m.fixSPT(p, d, va, false)
	m.enter(p, false)
}

// syncReplay applies the pending collaborative-sync log (§5): PVM walks the
// shared ring and synchronizes the shadow with the guest's accumulated PTE
// updates under the pt_locks — the batched replacement for per-store traps.
func (m *pvmMMU) syncReplay(p *guest.Process, d *procData) {
	if len(d.syncLog) == 0 {
		return
	}
	g := m.g
	c := p.CPU
	prm := &g.Sys.Prm
	log := d.syncLog
	d.syncLog = d.syncLog[:0]
	// Replay cost: a fraction of the trapped-emulation cost per entry
	// (no decode, no exit — just validation and shadow sync).
	per := prm.PVMEmulWrite / 3
	lock := m.locks.Coarse
	if m.locks.Mode == core.FineLock {
		lock = m.locks.PT(p.PID, log[0].VA)
	}
	// Zaps of the process's own shadow table and TLB only.
	lock.WithPrivate(c, int64(len(log))*per, func() {
		for _, ev := range log {
			if ev.Leaf {
				d.shadow.Zap(ev.VA)
				d.tlb.FlushPage(g.VPID, d.pcidUser, ev.VA)
			}
		}
	})
}

// dirtyOps binds the write-protect dirty-log lane to the PVM switcher legs,
// the collaborative-sync replay, and the meta (or coarse) lock. The sweep
// covers the user half only: PVM's dual tables install guest leaves solely
// into shadow.User, and the kernel half holds nothing but switcher state.
func (m *pvmMMU) dirtyOps(p *guest.Process) shadowDirtyOps {
	c := p.CPU
	d := pd(p)
	prm := &m.g.Sys.Prm
	lock := m.locks.Coarse
	if m.locks.Mode == core.FineLock {
		lock = m.locks.Meta
	}
	return shadowDirtyOps{
		exit:   func() { m.exit(p) },
		entry:  func() { m.enter(p, false) },
		replay: func() { m.syncReplay(p, d) },
		sweep: func() {
			// Write-protects leaves of the process's own shadow table.
			lock.WithPrivate(c, 0, func() {
				n := d.sptUser.WriteProtectLeaves(dirtyLogged)
				c.AdvanceLazy(int64(n) * prm.DirtyLogProtect)
			})
		},
	}
}

func (m *pvmMMU) dirtyStart(p *guest.Process) { m.g.shadowDirtyStart(p, m.dirtyOps(p)) }

func (m *pvmMMU) dirtyCollect(p *guest.Process) []arch.VA {
	return m.g.shadowDirtyCollect(p, m.dirtyOps(p))
}

func (m *pvmMMU) dirtyStop(p *guest.Process) { m.g.shadowDirtyStop(p, m.dirtyOps(p)) }

// fixSPT installs the shadow leaf for va. With fine-grained locking, the
// inter-shadow-page structures are touched under the short meta-lock, the
// shadow page itself under its pt_lock, and the reverse mapping under the
// per-GFN rmap_lock; with coarse locking everything serializes on one
// mmu_lock.
func (m *pvmMMU) fixSPT(p *guest.Process, d *procData, va arch.VA, prefault bool) {
	g := m.g
	c := p.CPU
	prm := &g.Sys.Prm
	ge, ok := p.GPT.Lookup(va)
	if !ok {
		panic("backend/pvm: fixSPT with no guest mapping")
	}
	fixBody := prm.PVMSPTFix
	if prefault {
		fixBody = prm.Prefault
	}
	install := func() (target arch.PFN) {
		var alloced bool
		target, alloced = m.backing.getOrAlloc(ge.PFN, g.machineFrames().MustAlloc)
		hold := fixBody
		if alloced {
			hold += prm.FrameAlloc
		}
		d.shadow.Install(va, target, ge.Flags)
		c.AdvanceLazy(hold)
		return target
	}
	var target arch.PFN
	if m.locks.Mode == core.FineLock {
		m.locks.Meta.With(c, prm.MetaHold, nil)
		g.withFrames(m.locks.PT(p.PID, va), c, 0, func() { target = install() })
		m.locks.Rmap(ge.PFN).With(c, prm.RmapHold, nil)
	} else {
		g.withFrames(m.locks.Coarse, c, prm.MetaHold+prm.RmapHold, func() { target = install() })
	}
	if prefault {
		g.Sys.Ctr.Prefaults.Add(1)
	}
	g.Sys.Ctr.ShadowFaults.Add(1)
	if m.nested {
		g.Sys.L1.EnsureBacking(c, target)
	}
}

func (m *pvmMMU) releasePage(p *guest.Process, va arch.VA, gpa arch.PFN) {
	g := m.g
	t, ok := m.backing.remove(gpa)
	if !ok {
		return
	}
	lock := m.locks.Coarse
	if m.locks.Mode == core.FineLock {
		lock = m.locks.Rmap(gpa)
	}
	g.withFrames(lock, p.CPU, g.Sys.Prm.RmapHold, func() {
		if _, err := g.machineFrames().Free(t); err != nil {
			panic(err)
		}
	})
}

// flushRange under PVM: with the PCID-mapping optimization each L2 address
// space owns a host PCID, so the flush is one PCID-targeted invalidation via
// hypercall — no remote shootdown. Without it, PVM degrades to the
// traditional whole-VPID shootdown.
func (m *pvmMMU) flushRange(p *guest.Process, pages int) {
	g := m.g
	c := p.CPU
	prm := &g.Sys.Prm
	d := pd(p)
	g.Sys.Ctr.Hypercalls.Add(1) // flush_tlb_range hypercall
	var remote int64
	if !g.Sys.Opt.PCIDMap {
		// The shootdown branch reads the live-process count — shared
		// mutable state outside any virtual lock. Gate, then read
		// immediately — before any charge — so the read lands at the
		// gate's virtual instant. (Interposing even a lazy charge would
		// break the eager-charging mode, where every charge is itself a
		// gate that can admit a concurrent fork or exit.)
		c.Sync()
		remote = int64(g.LiveProcs() - 1)
		if remote < 0 {
			remote = 0
		}
	}
	m.exit(p)
	m.syncReplay(p, d)
	if g.Sys.Opt.PCIDMap {
		c.AdvanceLazy(prm.TLBFlushPCID + int64(pages)*prm.FlushPTEScan)
		d.tlb.FlushPCID(g.VPID, d.pcidUser)
	} else {
		lock := m.locks.Coarse
		if m.locks.Mode == core.FineLock {
			lock = m.locks.Meta
		}
		lock.WithPrivate(c, int64(pages)*prm.FlushPTEScan+remote*prm.ShootdownIPI, func() {
			d.tlb.FlushVPID(g.VPID) // the process's own TLB
		})
	}
	m.enter(p, false)
}
