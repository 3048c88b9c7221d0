// Package hv implements the simulator's L0 host hypervisor: a KVM-like
// kernel module owning the machine's physical frames and, for each hosted
// VM, the extended page table (EPT01) translating that VM's guest-physical
// addresses to host-physical addresses.
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
	HPA *mem.Allocator // host-physical frames

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

// NewHost creates a host with hpaFrames of physical memory (0 = unlimited).
func NewHost(eng *vclock.Engine, prm cost.Params, ctr *metrics.Counters, hpaFrames int64) *Host {
	return &Host{
		Eng:      eng,
		Prm:      prm,
		Ctr:      ctr,
		HPA:      mem.NewAllocator("hpa", hpaFrames, 0x100000),
		nextVPID: 1,
	}
}

// VM is one virtual machine hosted by L0: either a secure container's VM in
// a bare-metal deployment, or the single big L1 instance in a nested one.
type VM struct {
	Name string
	Host *Host

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
	ept, err := pagetable.New(h.HPA)
	if err != nil {
		return nil, fmt.Errorf("hv: allocating EPT01 for %s: %w", name, err)
	}
	vm := &VM{
		Name:    name,
		Host:    h,
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
// process runs on c, so its EPT01 and mmu_lock are reachable from c alone.
// The mmu_lock becomes c's (vclock.Lock.Own), and EnsureBacking and
// ReleaseBacking stop ordering c's EPT01 probes and exit legs globally; the
// host frames they draw or return still gate. Never bind the nested L1
// instance, which every L2 guest shares.
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
		if owned {
			c.Sync() // the silent install draws a host frame
		}
		hpa := vm.mapBacking(gpa)
		return hpa, false
	}
	p := &vm.Host.Prm
	ctr := vm.Host.Ctr
	// VM exit to L0.
	ctr.Switch(metrics.SwitchHW)
	ctr.L0Exits.Add(1)
	c.Order(p.SwitchHW, owned)
	var hpa arch.PFN
	vm.MMULock.With(c, p.FrameAlloc+p.EPTFix, func() {
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
		base := vm.Host.HPA.MustAlloc()
		if _, err := vm.EPT01.MapLarge(gpaKey(gpa), base, pagetable.Writable|pagetable.User); err != nil {
			panic(err)
		}
		return base + gpa&(arch.EntriesPerTable-1)
	}
	hpa := vm.Host.HPA.MustAlloc()
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
	// Gate before probing shared EPT01 state, as in EnsureBacking. The
	// frame release itself runs in a With body, which gates even on a VM
	// bound to c.
	c.Order(0, vm.ownedBy(c))
	if vm.Host.HugeEPT {
		if _, ok := vm.EPT01.LookupLarge(gpaKey(gpa)); !ok {
			return false
		}
		// KVM-style huge-spte invalidation: the whole block is zapped
		// and freed; surviving neighbours refault later.
		vm.MMULock.With(c, vm.Host.Prm.EPTFix/2, func() {
			// A neighbour's release may have zapped the block in the
			// gate-to-grant window (the invalidation is then a no-op),
			// and a neighbour's fault may have mapped it afresh since:
			// free the block mapped now, not the one seen at the gate.
			e, ok := vm.EPT01.LookupLarge(gpaKey(gpa))
			if !ok {
				return
			}
			vm.EPT01.UnmapLarge(gpaKey(gpa))
			if _, err := vm.Host.HPA.Free(e.PFN); err != nil {
				panic(err)
			}
		})
		return true
	}
	e, ok := vm.EPT01.Lookup(gpaKey(gpa))
	if !ok {
		return false
	}
	vm.MMULock.With(c, vm.Host.Prm.EPTFix/2, func() {
		vm.EPT01.Unmap(gpaKey(gpa))
		if _, err := vm.Host.HPA.Free(e.PFN); err != nil {
			panic(err)
		}
	})
	return true
}
