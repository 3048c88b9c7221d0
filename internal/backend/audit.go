package backend

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/guest"
	"repro/internal/pagetable"
	"repro/internal/tlb"
)

// This file implements the structural invariant audits behind
// Guest.AuditProcess. The Guest owns the TLB front end, so it runs the two
// TLB audits every configuration shares: tag consistency and, while dirty
// logging is armed, the insert gate's invariant. Each strategy then adds its
// own coherence checks between the simulated TLB, the table the refill path
// reads (shadow, machine, or guest table), and the guest's own page table.
// The checks are pure reads — no stats, no cursor caches, no virtual-time
// charges — so an audit never perturbs the simulation it inspects.

// AuditProcess runs the structural invariant audit for one process: TLB tag
// consistency, the dirty-log insert gate, then the strategy's audit — TLB
// coherence against the table the refill path resolves translations from,
// guest page-table A/D sanity, and shadow-vs-guest coherence where the
// configuration maintains a shadow structure. It must be called from p's
// own vCPU, between guest operations: the vclock engine then guarantees
// exclusive access to the process-local state the audit reads.
func (g *Guest) AuditProcess(p *guest.Process) error {
	d := pd(p)
	err := auditTLBTags(g, d)
	if err == nil {
		err = auditDirty(d)
	}
	if err == nil {
		err = g.mmu.audit(p)
	}
	if err != nil {
		return fmt.Errorf("%s: pid %d: %w", g.Sys.Cfg, p.PID, err)
	}
	return nil
}

// tlbVA recovers the page-aligned virtual address of a TLB tag.
func tlbVA(k tlb.Key) arch.VA { return arch.VA(k.VPN) << arch.PageShift }

// auditTLBTags checks that every simulated-TLB entry is tagged with the
// owning guest's VPID and the process's user PCID — the only tag the
// backends' refill paths ever insert under.
func auditTLBTags(g *Guest, d *procData) error {
	var err error
	d.tlb.Range(func(k tlb.Key, _ tlb.Entry) bool {
		switch {
		case k.VPID != g.VPID:
			err = fmt.Errorf("tlb: entry for va %#x tagged VPID %d, owner is %d",
				tlbVA(k), k.VPID, g.VPID)
		case k.PCID != d.pcidUser && k.PCID != d.pcidKernel:
			err = fmt.Errorf("tlb: entry for va %#x tagged PCID %d, address space owns %d/%d",
				tlbVA(k), k.PCID, d.pcidUser, d.pcidKernel)
		}
		return err == nil
	})
	return err
}

// auditTLBAgainst checks every non-global user-PCID TLB entry against the
// table the refill path reads. Presence and Write ⇒ Writable must always
// hold at an operation boundary: every table zap is paired with a TLB page
// flush, and every permission downgrade ends in a guest-requested flush
// before the operation returns. PFN equality is additionally required when
// strictPFN is set; the direct-paging machine table re-targets leaves in
// place on COW remaps (the guest flushes by PCID only at the next flush
// request), so read-only entries there may point at the pre-COW frame.
func auditTLBAgainst(d *procData, table string,
	lookup func(arch.VA) (pagetable.Entry, bool), strictPFN bool) error {
	var err error
	d.tlb.Range(func(k tlb.Key, ent tlb.Entry) bool {
		if ent.Global || k.PCID != d.pcidUser {
			return true
		}
		va := tlbVA(k)
		e, ok := lookup(va)
		switch {
		case !ok:
			err = fmt.Errorf("tlb: entry for va %#x, but %s has no leaf (missed zap flush?)",
				va, table)
		case ent.Write && !e.Flags.Has(pagetable.Writable):
			err = fmt.Errorf("tlb: writable entry for va %#x, but %s leaf is read-only",
				va, table)
		case (strictPFN || ent.Write) && ent.PFN != e.PFN:
			err = fmt.Errorf("tlb: entry for va %#x caches frame %d, %s maps %d",
				va, ent.PFN, table, e.PFN)
		}
		return err == nil
	})
	return err
}

// auditGuestAD checks the guest page table's accessed/dirty discipline:
// Walk sets Accessed on every touch and Dirty only on permitted writes,
// while Map and Protect replace flags wholesale — so a Dirty leaf must be
// Accessed and Writable.
func auditGuestAD(p *guest.Process) error {
	var err error
	p.GPT.Range(func(va arch.VA, e pagetable.Entry) bool {
		if e.Flags.Has(pagetable.Dirty) && !e.Flags.Has(pagetable.Accessed) {
			err = fmt.Errorf("gpt: va %#x dirty but not accessed", va)
		} else if e.Flags.Has(pagetable.Dirty) && !e.Flags.Has(pagetable.Writable) {
			err = fmt.Errorf("gpt: va %#x dirty but not writable", va)
		}
		return err == nil
	})
	return err
}

// auditShadowAgainstGuest checks the hypervisor-maintained table against the
// guest's: every user-space leaf must map a VA the guest maps, must not
// exceed the guest's write permission, and must point at the machine frame
// backing the guest's frame. Switcher and kernel-half mappings are
// hypervisor state, not shadowed guest state, and are skipped.
func auditShadowAgainstGuest(p *guest.Process, table string,
	shadow *pagetable.PageTable, backing *frameMap) error {
	var err error
	shadow.Range(func(va arch.VA, e pagetable.Entry) bool {
		if e.Flags.Has(pagetable.Global) || va >= arch.KernelSpaceStart {
			return true
		}
		ge, ok := p.GPT.Lookup(va)
		if !ok {
			err = fmt.Errorf("%s: leaf at va %#x, but guest table has none (missed zap?)",
				table, va)
			return false
		}
		if e.Flags.Has(pagetable.Writable) && !ge.Flags.Has(pagetable.Writable) {
			err = fmt.Errorf("%s: writable leaf at va %#x, but guest leaf is read-only",
				table, va)
			return false
		}
		target, ok := backing.get(ge.PFN)
		if !ok {
			err = fmt.Errorf("%s: va %#x maps guest frame %d, which has no backing frame",
				table, va, ge.PFN)
			return false
		}
		if target != e.PFN {
			err = fmt.Errorf("%s: va %#x maps frame %d, backing of guest frame %d is %d",
				table, va, e.PFN, ge.PFN, target)
			return false
		}
		return true
	})
	return err
}

// auditDirty checks the dirty-log lane's defining invariant while logging is
// armed: every writable user-PCID TLB entry caches a page the current epoch
// has already recorded. Inserts are write-gated while armed and flushes only
// remove entries, so a TLB-hit write can never dirty an unlogged page. (The
// converse — every writable shadow leaf being logged — is deliberately not
// an invariant: a read fault may demand-zero a writable leaf mid-epoch; the
// insert gate in Guest.refill is what keeps that safe.)
func auditDirty(d *procData) error {
	if !d.dirtyArmed() {
		return nil
	}
	var err error
	d.tlb.Range(func(k tlb.Key, ent tlb.Entry) bool {
		if ent.Global || !ent.Write || k.PCID != d.pcidUser {
			return true
		}
		va := tlbVA(k)
		if va >= arch.KernelSpaceStart {
			return true
		}
		if _, ok := d.dirty.set[va]; !ok {
			err = fmt.Errorf("dirty-log: writable tlb entry for va %#x missing from the armed epoch's dirty set", va)
		}
		return err == nil
	})
	return err
}

// audit (eptMMU): the hardware walks the guest table directly, guest PTE
// stores do not trap, and INVLPG is guest-internal (cost-only in this
// simulator) — so simulated-TLB entries may be stale by design and only the
// Guest's TLB audits (tags and, when armed, the dirty-log write gate) hold.
func (m *eptMMU) audit(*guest.Process) error { return nil }

// audit (eptNestedMMU): as for eptMMU at the TLB. EPT12/EPT02 are per-guest
// structures shared by every process of the guest, and their two-phase
// violation/release choreographies leave other vCPUs suspended between the
// tables' updates — so cross-table EPT coherence is not a per-process
// operation-boundary invariant and is not audited here.
func (m *eptNestedMMU) audit(*guest.Process) error { return nil }

// audit (sptMMU): the guest table is write-protected, so the shadow and TLB
// track it strictly — every zap is paired with a page flush, and every
// shadow leaf mirrors the guest leaf it was fixed from.
func (m *sptMMU) audit(p *guest.Process) error {
	d := pd(p)
	if err := auditTLBAgainst(d, "spt", d.sptUser.Lookup, true); err != nil {
		return err
	}
	if err := auditGuestAD(p); err != nil {
		return err
	}
	return auditShadowAgainstGuest(p, "spt", d.sptUser, m.backing)
}

// audit (pvmMMU): strict like sptMMU, except under collaborative sync the
// shadow lawfully lags the guest table until the next synchronization point
// replays the log — shadow-vs-guest coherence is only asserted when the log
// is drained. TLB-vs-shadow coherence holds regardless: the TLB is filled
// from the shadow and flushed with every zap, so the two lag together.
func (m *pvmMMU) audit(p *guest.Process) error {
	d := pd(p)
	if err := auditTLBAgainst(d, "pvm-spt", d.sptUser.Lookup, true); err != nil {
		return err
	}
	if err := auditGuestAD(p); err != nil {
		return err
	}
	if len(d.syncLog) > 0 {
		return nil
	}
	return auditShadowAgainstGuest(p, "pvm-spt", d.sptUser, m.backing)
}

// audit (pvmDirectMMU): the validated machine table must stay within what
// the guest table grants (machine ⊆ guest — validation is lazy, so the
// guest may map more). COW remaps re-target machine leaves in place and the
// guest only flushes by PCID at its next flush request, so read-only TLB
// entries may cache the pre-COW frame: PFN equality is enforced for
// writable entries only.
func (m *pvmDirectMMU) audit(p *guest.Process) error {
	d := pd(p)
	if err := auditTLBAgainst(d, "machine-pt", d.sptUser.Lookup, false); err != nil {
		return err
	}
	if err := auditGuestAD(p); err != nil {
		return err
	}
	if len(d.syncLog) > 0 {
		return nil
	}
	return auditShadowAgainstGuest(p, "machine-pt", d.sptUser, m.backing)
}
