// Package hv implements the simulator's L0 host hypervisor: a KVM-like
// kernel module that, for each hosted VM, owns the host-physical frames it
// spends on that VM and the extended page table (EPT01) translating the
// VM's guest-physical addresses to them.
//
// In nested deployments the L0 hypervisor additionally owns the per-L1-VM
// mmu_lock under which *all* nested EPT maintenance for that VM's L2 guests
// serializes — the contention point behind the kvm-ept (NST) collapse in the
// paper's Figures 10–12. PVM never takes this path: its L1 VM looks like an
// ordinary VM to L0.
package hv

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/cost"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/pagetable"
	"repro/internal/vclock"
	"repro/internal/vmx"
)

// Host is the L0 hypervisor plus the physical machine it owns.
type Host struct {
	Eng *vclock.Engine
	Prm cost.Params
	Ctr *metrics.Counters

	// Warm, when set, installs EPT01 translations silently (no exit, no
	// cost), modeling the paper's standing assumption that the L1 VM has
	// been up long enough that EPT01 violations are negligible (§4.1).
	Warm bool

	// HugeEPT, when set, backs guest memory with 2 MiB EPT mappings:
	// one violation populates a whole 512-frame block, cutting EPT
	// violations ~512× for streaming workloads (one of the "advanced
	// cloud-native features" of KVM the paper builds on). A release of
	// any page in a block zaps the whole block (KVM-style huge-spte
	// invalidation), so later touches refault it.
	HugeEPT bool

	vms      []*VM
	nextVPID arch.VPID
}

// NewHost creates a host.
func NewHost(eng *vclock.Engine, prm cost.Params, ctr *metrics.Counters) *Host {
	return &Host{
		Eng:      eng,
		Prm:      prm,
		Ctr:      ctr,
		nextVPID: 1,
	}
}

// VM is one virtual machine hosted by L0: either a secure container's VM in
// a bare-metal deployment, or the single big L1 instance in a nested one.
type VM struct {
	Name string
	Host *Host

	// Frames are the host-physical frames L0 spends on this VM: EPT01's
	// tables and backing frames, the backing and shadow-table frames of a
	// bare-metal spt, pvm or pvm-direct guest, and on the L1 instance the
	// EPT02 tables of its L2 guests. Which host frame backs a page is
	// observable nowhere (no trace field, metric or charge reads it), so
	// each VM numbers its frames on its own: numbers are unique per VM,
	// and no structure holds two VMs' host frames.
	Frames *mem.Allocator

	// EPT01 maps the VM's guest-physical pages to host-physical pages.
	// It is indexed by GPA expressed as an address.
	EPT01 *pagetable.PageTable

	// MMULock is L0's kvm->mmu_lock for this VM. Every EPT01 fix, every
	// nested EPT12 write emulation, and every nested EPT02 fix for this
	// VM's L2 guests serializes on it.
	MMULock *vclock.Lock

	VMCS01 *vmx.VMCS
	VPID   arch.VPID

	// GPA is the VM's guest-physical frame space.
	GPA *mem.Allocator

	eptViolations int64
}

// NewVM registers a VM with gpaFrames of guest-physical memory (0 =
// unlimited).
func (h *Host) NewVM(name string, gpaFrames int64) (*VM, error) {
	frames := mem.NewAllocator("hpa:"+name, 0, 0x100000)
	ept, err := pagetable.New(frames)
	if err != nil {
		return nil, fmt.Errorf("hv: allocating EPT01 for %s: %w", name, err)
	}
	vm := &VM{
		Name:    name,
		Host:    h,
		Frames:  frames,
		EPT01:   ept,
		MMULock: h.Eng.NewLock("l0-mmu:" + name),
		VMCS01:  vmx.NewVMCS("vmcs01:" + name),
		VPID:    h.nextVPID,
		GPA:     mem.NewAllocator("gpa:"+name, gpaFrames, 0x1000),
	}
	vm.VMCS01.VPID = vm.VPID
	h.nextVPID++
	h.vms = append(h.vms, vm)
	return vm, nil
}

// VMs returns the hosted VMs.
func (h *Host) VMs() []*VM { return h.vms }

// Bind dedicates the VM to vCPU c: the VM of a sandbox guest whose every
// process runs on c, so its EPT01, host frames and mmu_lock are reachable
// from c alone. The mmu_lock becomes c's (vclock.Lock.Own), and
// EnsureBacking and ReleaseBacking stop ordering c's EPT01 probes, exit legs
// and frame draws and returns globally. Never bind the nested L1 instance,
// which every L2 guest shares.
func (vm *VM) Bind(c *vclock.CPU) { vm.MMULock.Own(c) }

// ownedBy reports whether vm is bound to c.
func (vm *VM) ownedBy(c *vclock.CPU) bool { return vm.MMULock.Owner() == c }

// EPTViolations returns how many EPT01 violations this VM has taken.
func (vm *VM) EPTViolations() int64 { return vm.eptViolations }

// gpaKey maps a guest-physical frame into the EPT01 index space.
func gpaKey(gpa arch.PFN) arch.VA { return arch.VA(gpa.Addr()) }

// HasBacking reports whether gpa already has a host frame in EPT01.
func (vm *VM) HasBacking(gpa arch.PFN) bool {
	_, ok := vm.Backing(gpa)
	return ok
}

// Backing returns the host frame backing gpa, if any (huge or 4K mapping).
func (vm *VM) Backing(gpa arch.PFN) (arch.PFN, bool) {
	if vm.Host.HugeEPT {
		if e, ok := vm.EPT01.LookupLarge(gpaKey(gpa)); ok {
			return e.PFN + gpa&(arch.EntriesPerTable-1), true
		}
	}
	e, ok := vm.EPT01.Lookup(gpaKey(gpa))
	if !ok {
		return 0, false
	}
	return e.PFN, true
}

// EnsureBacking guarantees gpa has a host frame, running the EPT-violation
// choreography on c if needed: a VM exit to L0 (two hardware switches), and
// frame allocation plus EPT01 fix under the VM's mmu_lock. It reports
// whether a violation was taken. With Host.Warm set, missing translations
// are installed silently.
func (vm *VM) EnsureBacking(c *vclock.CPU, gpa arch.PFN) (arch.PFN, bool) {
	// EPT01 is shared by every vCPU of the VM (and, with huge pages, a
	// neighbour's 2 MiB mapping can cover this gpa), so the presence check
	// must be ordered into the virtual schedule: gate first, so whether a
	// concurrent vCPU's map is visible is a function of virtual time, not
	// of how far this vCPU's goroutine has raced ahead in real time. A VM
	// bound to c has no concurrent vCPU: its probe and legs are private.
	owned := vm.ownedBy(c)
	c.Order(0, owned)
	if hpa, ok := vm.Backing(gpa); ok {
		return hpa, false
	}
	if vm.Host.Warm {
		return vm.mapBacking(gpa), false
	}
	p := &vm.Host.Prm
	ctr := vm.Host.Ctr
	// VM exit to L0.
	ctr.Switch(metrics.SwitchHW)
	ctr.L0Exits.Add(1)
	c.Order(p.SwitchHW, owned)
	var hpa arch.PFN
	// The body touches only this VM's EPT01 and frames: private to the
	// vCPU a VM is bound to, gated on any other (the L1 instance).
	vm.MMULock.WithPrivate(c, p.FrameAlloc+p.EPTFix, func() {
		// Re-check under the lock: another vCPU that missed the same
		// frame (or its huge-page block) in the gate-to-grant window has
		// already installed the mapping; it still cost this vCPU a full
		// violation round trip, as on real hardware.
		var ok bool
		if hpa, ok = vm.Backing(gpa); !ok {
			hpa = vm.mapBacking(gpa)
		}
	})
	ctr.EPTViolations.Add(1)
	vm.eptViolations++
	// VM entry back.
	ctr.Switch(metrics.SwitchHW)
	c.Order(p.SwitchHW, owned)
	return hpa, true
}

// mapBacking installs the EPT01 mapping (huge or 4K) and returns gpa's host
// frame.
func (vm *VM) mapBacking(gpa arch.PFN) arch.PFN {
	if vm.Host.HugeEPT {
		// Reserve a 512-frame host block for the 2 MiB region; the
		// block's base frame stands for the whole allocation.
		base := vm.Frames.MustAlloc()
		if _, err := vm.EPT01.MapLarge(gpaKey(gpa), base, pagetable.Writable|pagetable.User); err != nil {
			panic(err)
		}
		return base + gpa&(arch.EntriesPerTable-1)
	}
	hpa := vm.Frames.MustAlloc()
	if _, err := vm.EPT01.Map(gpaKey(gpa), hpa, pagetable.Writable|pagetable.User); err != nil {
		panic(err)
	}
	return hpa
}

// ReleaseBacking drops gpa's host frame (free page reporting / ballooning:
// the guest returned the page). The zap itself is performed by an
// asynchronous worker in real systems; the caller charges only the brief
// critical section under the VM's mmu_lock.
func (vm *VM) ReleaseBacking(c *vclock.CPU, gpa arch.PFN) bool {
	// Gate before probing shared EPT01 state, as in EnsureBacking; the
	// release body, like EnsureBacking's, is private to a VM bound to c.
	c.Order(0, vm.ownedBy(c))
	if vm.Host.HugeEPT {
		if _, ok := vm.EPT01.LookupLarge(gpaKey(gpa)); !ok {
			return false
		}
		// KVM-style huge-spte invalidation: the whole block is zapped
		// and freed; surviving neighbours refault later.
		vm.MMULock.WithPrivate(c, vm.Host.Prm.EPTFix/2, func() {
			// A neighbour's release may have zapped the block in the
			// gate-to-grant window (the invalidation is then a no-op),
			// and a neighbour's fault may have mapped it afresh since:
			// free the block mapped now, not the one seen at the gate.
			e, ok := vm.EPT01.LookupLarge(gpaKey(gpa))
			if !ok {
				return
			}
			vm.EPT01.UnmapLarge(gpaKey(gpa))
			if _, err := vm.Frames.Free(e.PFN); err != nil {
				panic(err)
			}
		})
		return true
	}
	e, ok := vm.EPT01.Lookup(gpaKey(gpa))
	if !ok {
		return false
	}
	vm.MMULock.WithPrivate(c, vm.Host.Prm.EPTFix/2, func() {
		vm.EPT01.Unmap(gpaKey(gpa))
		if _, err := vm.Frames.Free(e.PFN); err != nil {
			panic(err)
		}
	})
	return true
}
