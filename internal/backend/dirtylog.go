package backend

import (
	"sort"

	"repro/internal/arch"
	"repro/internal/guest"
	"repro/internal/pagetable"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// Dirty-page logging (pre-copy live migration support). Two lanes implement
// the same epoch-based API:
//
//   - Shadow lanes (spt, pvm, pvmdirect): the hypervisor already interposes
//     on the table the hardware walks, so arming write-protects every logged
//     leaf (the COW protect choreography of pagetable.Clone applied in bulk)
//     and the first write per page re-enters the ordinary shadow-fault path,
//     which records the page before restoring write access.
//
//   - PML lanes (ept, eptnested): hardware Page Modification Logging appends
//     the page to a per-vCPU ring on the first dirtying write; a full ring
//     forces a VM exit to drain it. Arming only needs a TLB flush so cached
//     writable translations re-miss and pass through the logging walk.
//
// Both lanes gate TLB inserts while armed: a translation inserted on a read
// miss must not cache write permission, or a later write would hit the TLB
// and dirty the page unrecorded. This also ends the ranged-access fast
// path's write runs at unlogged pages — LookupRange stops a write run at the
// first entry without cached write permission.
//
// Epoch state lives in procData and dies with it on exec/exit; collectors
// re-arm after exec if they want to keep logging.

// pmlRingSize is the hardware PML ring capacity in entries (512 on Intel).
const pmlRingSize = 512

// dirtyState is one process's dirty-log epoch state.
type dirtyState struct {
	// armed is set between StartDirtyLog and StopDirtyLog.
	armed bool

	// set holds the pages dirtied this epoch (guest VA page base).
	set map[arch.VA]struct{}

	// ring is the in-flight PML ring (PML lanes only): pages recorded
	// since the last drain. Always a subset of set.
	ring []arch.VA
}

// dirtyArmed reports whether dirty logging is armed for this process. It is
// the hot-path guard: nil until the first StartDirtyLog, so un-logged runs
// pay one pointer test.
func (d *procData) dirtyArmed() bool { return d.dirty != nil && d.dirty.armed }

// record adds va to the epoch's dirty set, reporting whether it was newly
// added (the first dirtying write this epoch).
func (s *dirtyState) record(va arch.VA) bool {
	if _, ok := s.set[va]; ok {
		return false
	}
	s.set[va] = struct{}{}
	return true
}

// take returns the epoch's dirty pages in ascending VA order and clears the
// set (and ring) for the next epoch.
func (s *dirtyState) take() []arch.VA {
	vas := make([]arch.VA, 0, len(s.set))
	for va := range s.set {
		vas = append(vas, va)
	}
	sort.Slice(vas, func(i, j int) bool { return vas[i] < vas[j] })
	clear(s.set)
	s.ring = s.ring[:0]
	return vas
}

// dirtyLogged is the dirty-log arming predicate: user-space guest mappings
// only, skipping hypervisor state (the switcher's global kernel-half pages).
func dirtyLogged(va arch.VA, e pagetable.Entry) bool {
	return !e.Flags.Has(pagetable.Global) && va < arch.KernelSpaceStart
}

// dirtySweep write-protects every logged leaf of pt. The swept tables are
// the shadow/machine tables the hardware walks — never hooked — so the
// batched one-pass sweep applies; the per-leaf reference sweep is retained
// behind the VMA bypass for the equivalence grids (both strip the same
// leaves in the same order with the same stats; see WriteProtectLeavesBulk).
// Returns the number of leaves protected: the arming sweep's charge unit.
func dirtySweep(pt *pagetable.PageTable) int {
	if guest.VMABypass() {
		return pt.WriteProtectLeaves(dirtyLogged)
	}
	return pt.WriteProtectLeavesBulk(dirtyLogged)
}

// dirtyRecordShadow records one write in a shadow lane. Called at the top of
// the strategies' resolve paths: a dirtying write either hits a shadow leaf
// whose write permission survived (already recorded — record dedups) or
// takes the shadow fault that restores it; both funnel through resolve.
func (g *Guest) dirtyRecordShadow(c *vclock.CPU, d *procData, va arch.VA, write bool) {
	if !write || !d.dirtyArmed() {
		return
	}
	if d.dirty.record(va) {
		g.Sys.Ctr.DirtyMarks.Add(1)
		c.AdvanceLazy(g.Sys.Prm.DirtyLogMark)
	}
}

// pmlRecord records one write in a PML lane: the hardware appends the page
// to the ring during the logging walk, and a full ring forces a VM exit
// (nested: a full L2→L1 trip) to drain it into the hypervisor's dirty set.
func (g *Guest) pmlRecord(c *vclock.CPU, d *procData, va arch.VA, write bool, nested bool) {
	if !write || !d.dirtyArmed() {
		return
	}
	st := d.dirty
	if !st.record(va) {
		return
	}
	prm := &g.Sys.Prm
	g.Sys.Ctr.DirtyMarks.Add(1)
	c.AdvanceLazy(prm.PMLRecord)
	st.ring = append(st.ring, va)
	if len(st.ring) < pmlRingSize {
		return
	}
	// Ring-full drain: the one PML event that costs a world switch.
	g.Sys.Ctr.DirtyPMLDrains.Add(1)
	if nested {
		g.l2ToL1(c)
	} else {
		g.exitHW(c)
	}
	c.AdvanceLazy(prm.PMLDrainBase + int64(len(st.ring))*prm.PMLDrainEntry)
	st.ring = st.ring[:0]
	if nested {
		g.l1ToL2(c)
	} else {
		g.entryHW(c)
	}
}

// shadowDirtyOps parameterizes the write-protect lane's Start/Collect/Stop
// choreography over the three shadow strategies: how to leave/re-enter the
// guest, how to drain any pending PTE-update log first (so the sweep sees a
// synchronized table), and how to run the charged protect sweep.
type shadowDirtyOps struct {
	exit   func()
	entry  func()
	replay func() // nil when the strategy has no update log
	sweep  func()
}

// shadowDirtyStart arms the write-protect lane: trap to the hypervisor,
// synchronize the shadow, write-protect all logged leaves, and flush the
// process's cached translations so every next write re-faults.
func (g *Guest) shadowDirtyStart(p *guest.Process, ops shadowDirtyOps) {
	d := pd(p)
	if d.dirty == nil {
		d.dirty = &dirtyState{set: make(map[arch.VA]struct{})}
	}
	c := p.CPU
	prm := &g.Sys.Prm
	ops.exit()
	if ops.replay != nil {
		ops.replay()
	}
	c.AdvanceLazy(prm.DirtyLogArm)
	ops.sweep()
	c.AdvanceLazy(prm.TLBFlushPCID)
	d.tlb.FlushPCID(g.VPID, d.pcidUser)
	d.dirty.armed = true
	ops.entry()
}

// shadowDirtyCollect harvests one epoch from the write-protect lane and
// re-arms it: the faulted-in writable leaves are protected again and the
// cached translations flushed, so the next epoch records from scratch.
func (g *Guest) shadowDirtyCollect(p *guest.Process, ops shadowDirtyOps) []arch.VA {
	d := pd(p)
	c := p.CPU
	prm := &g.Sys.Prm
	ops.exit()
	if ops.replay != nil {
		ops.replay()
	}
	vas := d.dirty.take()
	c.AdvanceLazy(int64(len(vas))*prm.DirtyCollectPage + prm.DirtyLogArm)
	ops.sweep()
	c.AdvanceLazy(prm.TLBFlushPCID)
	d.tlb.FlushPCID(g.VPID, d.pcidUser)
	ops.entry()
	return vas
}

// shadowDirtyStop disarms the write-protect lane. The swept leaves stay
// write-protected: restoring them eagerly would cost a full sweep for pages
// the workload may never write again, so they heal lazily through the
// ordinary shadow-fault path (fixSPT re-derives write permission from the
// guest PTE).
func (g *Guest) shadowDirtyStop(p *guest.Process, ops shadowDirtyOps) {
	d := pd(p)
	c := p.CPU
	prm := &g.Sys.Prm
	ops.exit()
	if ops.replay != nil {
		ops.replay()
	}
	d.dirty.armed = false
	d.dirty.take()
	c.AdvanceLazy(prm.TLBFlushPCID)
	d.tlb.FlushPCID(g.VPID, d.pcidUser)
	ops.entry()
}

// pmlDirtyStart arms the PML lane: one trip to the hypervisor to enable PML
// on the vCPU plus a flush of the process's cached translations, so every
// next write re-misses through the logging walk.
func (g *Guest) pmlDirtyStart(p *guest.Process, nested bool) {
	d := pd(p)
	if d.dirty == nil {
		d.dirty = &dirtyState{set: make(map[arch.VA]struct{})}
	}
	c := p.CPU
	prm := &g.Sys.Prm
	if nested {
		g.l2ToL1(c)
	} else {
		g.exitHW(c)
	}
	c.AdvanceLazy(prm.DirtyLogArm + prm.TLBFlushPCID)
	d.tlb.FlushPCID(g.VPID, d.pcidUser)
	d.dirty.armed = true
	if nested {
		g.l1ToL2(c)
	} else {
		g.entryHW(c)
	}
}

// pmlDirtyCollect harvests one epoch from the PML lane: the collector's trip
// drains whatever the ring holds (not a forced drain — DirtyPMLDrains counts
// only ring-full events), hands the epoch's set out, and flushes cached
// translations so the next epoch's writes re-log.
func (g *Guest) pmlDirtyCollect(p *guest.Process, nested bool) []arch.VA {
	d := pd(p)
	c := p.CPU
	prm := &g.Sys.Prm
	st := d.dirty
	if nested {
		g.l2ToL1(c)
	} else {
		g.exitHW(c)
	}
	if len(st.ring) > 0 {
		c.AdvanceLazy(prm.PMLDrainBase + int64(len(st.ring))*prm.PMLDrainEntry)
		st.ring = st.ring[:0]
	}
	vas := st.take()
	c.AdvanceLazy(int64(len(vas))*prm.DirtyCollectPage + prm.DirtyLogArm)
	c.AdvanceLazy(prm.TLBFlushPCID)
	d.tlb.FlushPCID(g.VPID, d.pcidUser)
	if nested {
		g.l1ToL2(c)
	} else {
		g.entryHW(c)
	}
	return vas
}

// pmlDirtyStop disarms the PML lane, draining any residual ring entries.
func (g *Guest) pmlDirtyStop(p *guest.Process, nested bool) {
	d := pd(p)
	c := p.CPU
	prm := &g.Sys.Prm
	st := d.dirty
	if nested {
		g.l2ToL1(c)
	} else {
		g.exitHW(c)
	}
	if len(st.ring) > 0 {
		c.AdvanceLazy(prm.PMLDrainBase + int64(len(st.ring))*prm.PMLDrainEntry)
	}
	st.armed = false
	st.take()
	c.AdvanceLazy(prm.TLBFlushPCID)
	d.tlb.FlushPCID(g.VPID, d.pcidUser)
	if nested {
		g.l1ToL2(c)
	} else {
		g.entryHW(c)
	}
}

// --- guest.Platform implementation ---

// StartDirtyLog implements guest.Platform: it arms dirty-page logging for
// the process, beginning an epoch. A no-op when already armed.
func (g *Guest) StartDirtyLog(p *guest.Process) {
	if pd(p).dirtyArmed() {
		return
	}
	g.mmu.dirtyStart(p)
	g.Sys.trace(p.CPU, trace.KindDirty, trace.FormDirtyStart, g.Name, p.PID, 0, 0, "")
}

// CollectDirty implements guest.Platform: it returns the pages dirtied since
// the last Start/Collect in ascending VA order and begins the next epoch.
// Nil when logging is not armed.
func (g *Guest) CollectDirty(p *guest.Process) []arch.VA {
	if !pd(p).dirtyArmed() {
		return nil
	}
	vas := g.mmu.dirtyCollect(p)
	g.Sys.Ctr.DirtyEpochs.Add(1)
	g.Sys.Ctr.DirtyPagesCollected.Add(int64(len(vas)))
	g.Sys.trace(p.CPU, trace.KindDirty, trace.FormDirtyCollect, g.Name, p.PID, uint64(len(vas)), 0, "")
	return vas
}

// StopDirtyLog implements guest.Platform: it disarms logging, discarding the
// current epoch. A no-op when not armed.
func (g *Guest) StopDirtyLog(p *guest.Process) {
	if !pd(p).dirtyArmed() {
		return
	}
	g.mmu.dirtyStop(p)
	g.Sys.trace(p.CPU, trace.KindDirty, trace.FormDirtyStop, g.Name, p.PID, 0, 0, "")
}
