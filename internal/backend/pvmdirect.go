package backend

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/pagetable"
	"repro/internal/tlb"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/vmx"
)

// pvmDirectMMU is the §5 "direct paging" future-work design: a Xen-style
// paravirtual MMU on KVM. The guest's page table — once validated — is used
// directly by the hardware (its leaves name hypervisor-granted frames), and
// guest updates are applied through *batched* mmu_update hypercalls at
// synchronization points instead of per-store write-protection traps.
//
// Compared with PVM-on-EPT shadow paging, a guest fault costs a constant
// four world switches regardless of how many page-table levels were
// written, and there is no duplicate shadow structure to maintain.
type pvmDirectMMU struct {
	g      *Guest
	nested bool

	sw    *core.Switcher
	locks *core.LockSet

	// backing maps l2gpa → machine frame (Guest.machineFrames).
	backing *frameMap
}

func newPVMDirectMMU(g *Guest, nested bool) *pvmDirectMMU {
	mode := core.CoarseLock
	if g.Sys.Opt.FineLock {
		mode = core.FineLock
	}
	m := &pvmDirectMMU{
		g:       g,
		nested:  nested,
		locks:   core.NewLockSet(g.Sys.Eng, g.Name, mode),
		backing: newFrameMap(),
	}
	m.sw = core.NewSwitcher(g.machineFrames())
	return m
}

// Switcher exposes the guest's switcher.
func (m *pvmDirectMMU) Switcher() *core.Switcher { return m.sw }

func (m *pvmDirectMMU) register(p *guest.Process) {
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
	mpt := newShadowPT(g.machineFrames())
	m.sw.MapInto(mpt)
	d.sptUser = mpt // reuse the slot: the validated machine table
	d.missPT = mpt
	d.sptMapper = mpt.NewMapper()
	p.PlatformData = d
	// No write protection: stores append to the shared mmu_update batch.
	p.GPT.OnWrite = func(ev pagetable.WriteEvent) {
		p.CPU.AdvanceLazy(g.Sys.Prm.PTEWrite)
		d.syncLog = append(d.syncLog, ev)
	}
}

func (m *pvmDirectMMU) bind(c *vclock.CPU) { m.locks.Own(c) }

func (m *pvmDirectMMU) unregister(p *guest.Process) {
	p.GPT.OnWrite = nil
	d := pd(p)
	prm := &m.g.Sys.Prm
	hold := prm.PVMSPTFix + int64(d.sptUser.CountMapped())*prm.DirectZapLeaf
	d.sptMapper.Reset() // cached leaf must not outlive Destroy
	lock := m.locks.Coarse
	if m.locks.Mode == core.FineLock {
		lock = m.locks.Meta
	}
	m.g.withFrames(lock, p.CPU, hold, func() {
		if err := d.sptUser.Destroy(); err != nil {
			panic(err)
		}
	})
}

func (m *pvmDirectMMU) exit(p *guest.Process) {
	d := pd(p)
	d.switcher.SaveGuest(vmx.CPUState{CR3: p.GPT.Root(), PCID: d.pcidUser, Ring: arch.Ring3})
	m.g.pvmExit(p.CPU)
}

func (m *pvmDirectMMU) enter(p *guest.Process, toKernel bool) {
	d := pd(p)
	d.switcher.RestoreGuest()
	if toKernel {
		d.switcher.VirtRing = arch.VRing0
	} else {
		d.switcher.VirtRing = arch.VRing3
	}
	m.g.pvmEntry(p.CPU, p)
}

// resolve runs the direct-paging fault choreography for a page with no
// validated machine leaf that permits the access.
func (m *pvmDirectMMU) resolve(p *guest.Process, d *procData, va arch.VA, write bool, _ *pagetable.Reader) {
	g := m.g
	c := p.CPU
	prm := &g.Sys.Prm

	// #PF through the switcher into PVM.
	m.exit(p)
	c.AdvanceLazy(int64(arch.PTLevels) * prm.PageWalkLevel)

	ge, gok := p.GPT.Lookup(va)
	if !gok || (write && !ge.Flags.Has(pagetable.Writable)) {
		// Guest fault: inject into the guest kernel, whose PTE
		// updates accumulate in the mmu_update batch.
		g.Sys.Ctr.GuestFaults.Add(1)
		g.Sys.trace(c, trace.KindFault, trace.FormGuestFault, g.Name, p.PID, uint64(va), 0, "")
		m.enter(p, true)
		if _, err := g.Kern.HandleFault(p, va, write); err != nil {
			panic(fmt.Sprintf("backend/pvmdirect: %v", err))
		}
		// The iret hypercall carries the whole batch: validate and
		// apply in one trip.
		g.Sys.Ctr.Hypercalls.Add(1)
		m.exit(p)
		m.applyBatch(p, d)
		m.enter(p, false)
	} else {
		// Validation fault (e.g. inherited table after fork): the
		// mapping exists in the guest table but has not been
		// validated; validate it in place.
		m.applyBatch(p, d)
		m.validate(p, d, va, ge)
		m.enter(p, false)
	}

	e, ok := d.sptMapper.Lookup(va)
	if !ok {
		panic("backend/pvmdirect: mapping missing after validation")
	}
	g.refill(c, d, va, e, write, m.nested)
}

// applyBatch validates and applies the pending mmu_update entries under the
// pt_lock, installing leaf mappings directly (there is no later prefault or
// refault round — the batch IS the table update).
func (m *pvmDirectMMU) applyBatch(p *guest.Process, d *procData) {
	g := m.g
	c := p.CPU
	prm := &g.Sys.Prm
	if len(d.syncLog) == 0 {
		return
	}
	log := d.syncLog
	d.syncLog = d.syncLog[:0]
	g.Sys.Ctr.PTEWriteTraps.Add(int64(len(log))) // validated, not trapped
	lock := m.locks.Coarse
	if m.locks.Mode == core.FineLock {
		lock = m.locks.PT(p.PID, log[0].VA)
	}
	per := prm.PVMEmulWrite / 3
	g.withFrames(lock, c, int64(len(log))*per, func() {
		for _, ev := range log {
			if !ev.Leaf {
				continue
			}
			if !ev.Entry.Flags.Has(pagetable.Present) {
				d.sptUser.Unmap(ev.VA)
				d.tlb.FlushPage(g.VPID, d.pcidUser, ev.VA)
				continue
			}
			m.install(p, d, ev.VA, ev.Entry)
		}
	})
}

// validate installs a single already-present guest mapping (under lock).
func (m *pvmDirectMMU) validate(p *guest.Process, d *procData, va arch.VA, ge pagetable.Entry) {
	lock := m.locks.Coarse
	if m.locks.Mode == core.FineLock {
		lock = m.locks.PT(p.PID, va)
	}
	m.g.withFrames(lock, p.CPU, m.g.Sys.Prm.PVMSPTFix, func() {
		m.install(p, d, va, ge)
	})
	m.g.Sys.Ctr.ShadowFaults.Add(1)
}

// install writes the validated machine mapping for va.
func (m *pvmDirectMMU) install(p *guest.Process, d *procData, va arch.VA, ge pagetable.Entry) {
	target, _ := m.backing.getOrAlloc(ge.PFN, m.g.machineFrames().MustAlloc)
	flags := pagetable.User
	if ge.Flags.Has(pagetable.Writable) {
		flags |= pagetable.Writable
	}
	if _, err := d.sptMapper.Map(va, target, flags); err != nil {
		panic(err)
	}
	if m.nested {
		m.g.Sys.L1.EnsureBacking(p.CPU, target)
	}
}

// dirtyOps binds the write-protect dirty-log lane to the switcher legs, the
// mmu_update batch replay, and the meta (or coarse) lock. The sweep runs on
// the validated machine table; its match skips the switcher's global
// kernel-half leaves, so only guest mappings are protected.
func (m *pvmDirectMMU) dirtyOps(p *guest.Process) shadowDirtyOps {
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
		replay: func() { m.applyBatch(p, d) },
		sweep: func() {
			// Write-protects leaves of the process's own machine table.
			lock.WithPrivate(c, 0, func() {
				n := d.sptUser.WriteProtectLeaves(dirtyLogged)
				c.AdvanceLazy(int64(n) * prm.DirtyLogProtect)
			})
		},
	}
}

func (m *pvmDirectMMU) dirtyStart(p *guest.Process) { m.g.shadowDirtyStart(p, m.dirtyOps(p)) }

func (m *pvmDirectMMU) dirtyCollect(p *guest.Process) []arch.VA {
	return m.g.shadowDirtyCollect(p, m.dirtyOps(p))
}

func (m *pvmDirectMMU) dirtyStop(p *guest.Process) { m.g.shadowDirtyStop(p, m.dirtyOps(p)) }

func (m *pvmDirectMMU) releasePage(p *guest.Process, va arch.VA, gpa arch.PFN) {
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

// flushRange is the batched mmu_update + flush hypercall: one trip applies
// all pending updates (including the munmap's PTE clears) and performs a
// PCID-targeted invalidation.
func (m *pvmDirectMMU) flushRange(p *guest.Process, pages int) {
	g := m.g
	c := p.CPU
	prm := &g.Sys.Prm
	d := pd(p)
	g.Sys.Ctr.Hypercalls.Add(1)
	m.exit(p)
	m.applyBatch(p, d)
	c.AdvanceLazy(prm.TLBFlushPCID + int64(pages)*prm.FlushPTEScan)
	d.tlb.FlushPCID(g.VPID, d.pcidUser)
	m.enter(p, false)
}
