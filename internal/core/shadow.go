package core

import (
	"fmt"
	"sync"

	"repro/internal/arch"
	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/vclock"
)

// ShadowSpace is the pair of shadow page tables PVM maintains per L2
// process: one for the guest user context and one for the guest kernel
// context, simulating KPTI for the guest at the hypervisor level (§3.3.2).
// The user table carries the translations workloads touch; the kernel table
// exists to isolate guest-kernel mappings from guest user space.
type ShadowSpace struct {
	User   *pagetable.PageTable
	Kernel *pagetable.PageTable

	// userMapper is a cached-leaf write cursor over User: runs of cold
	// faults install shadow leaves in ascending VA order, and the cursor
	// resolves one upper-level walk per 2 MiB span. Zap unmaps in place,
	// so the cache stays coherent. The owner serializes Install/Lookup
	// (they run under the shadow locks on the process's vCPU).
	userMapper pagetable.Mapper
}

// NewShadowSpace builds both shadow tables from hypervisor memory and maps
// the switcher into each.
func NewShadowSpace(alloc *mem.Allocator, sw *Switcher) *ShadowSpace {
	u, err := pagetable.New(alloc)
	if err != nil {
		panic(fmt.Sprintf("core: allocating user shadow table: %v", err))
	}
	k, err := pagetable.New(alloc)
	if err != nil {
		panic(fmt.Sprintf("core: allocating kernel shadow table: %v", err))
	}
	s := &ShadowSpace{User: u, Kernel: k}
	if sw != nil {
		sw.MapInto(u)
		sw.MapInto(k)
	}
	s.userMapper = u.NewMapper()
	return s
}

// Install writes a user-space shadow leaf with permissions mirroring the
// guest PTE flags.
func (s *ShadowSpace) Install(va arch.VA, target arch.PFN, guestFlags pagetable.Flags) {
	flags := pagetable.User
	if guestFlags.Has(pagetable.Writable) {
		flags |= pagetable.Writable
	}
	if _, err := s.userMapper.Map(va, target, flags); err != nil {
		panic(fmt.Sprintf("core: installing shadow leaf: %v", err))
	}
}

// Zap drops the user-space shadow leaf for va (write-protection sync). It
// goes through the span-cached cursor: zap storms land on consecutive pages
// (munmap/mprotect sweeps), and a cursor unmap performs exactly the leaf
// store a direct Unmap would (see pagetable.Mapper).
func (s *ShadowSpace) Zap(va arch.VA) bool { return s.userMapper.Unmap(va) }

// Lookup peeks at the user-space shadow leaf.
func (s *ShadowSpace) Lookup(va arch.VA) (pagetable.Entry, bool) {
	return s.userMapper.Lookup(va)
}

// Destroy releases both tables' frames.
func (s *ShadowSpace) Destroy() error {
	s.userMapper.Reset() // cached leaf must not outlive User's frames
	if err := s.User.Destroy(); err != nil {
		return err
	}
	return s.Kernel.Destroy()
}

// MappedLeaves returns the number of live user-space shadow leaves.
func (s *ShadowSpace) MappedLeaves() int { return s.User.CountMapped() }

// LockMode selects between KVM's traditional global mmu_lock and PVM's
// fine-grained scheme.
type LockMode uint8

const (
	// CoarseLock serializes all shadow maintenance on one mmu_lock.
	CoarseLock LockMode = iota
	// FineLock uses the paper's three-way split: meta-lock for
	// inter-shadow-page structures, per-shadow-page pt_locks for
	// intra-shadow-page updates, per-GFN rmap_locks for reverse
	// mappings.
	FineLock
)

func (m LockMode) String() string {
	if m == FineLock {
		return "fine"
	}
	return "coarse"
}

// ptKey identifies one shadow page (the leaf-table span covering a VA) for
// the pt_lock map.
type ptKey struct {
	owner int // address-space identity (process id)
	span  arch.VA
}

// LockSet is the shadow-page-table lock hierarchy of one PVM guest.
type LockSet struct {
	Mode LockMode

	// Meta protects inter-shadow-page structures (shadow page
	// collections, parent/child links).
	Meta *vclock.Lock

	// Coarse is the single mmu_lock used in CoarseLock mode.
	Coarse *vclock.Lock

	eng *vclock.Engine

	// owner, once set by Own, owns every lock of the set, including the
	// pt_locks and rmap_locks created later. Guarded by ptMu and rmapMu
	// (both held to write).
	owner *vclock.CPU

	ptMu    sync.Mutex
	ptLocks map[ptKey]*vclock.Lock

	rmapMu    sync.Mutex
	rmapLocks mem.FrameTable[*vclock.Lock] // by guest frame
}

// NewLockSet builds a lock set for one guest.
func NewLockSet(eng *vclock.Engine, guestName string, mode LockMode) *LockSet {
	return &LockSet{
		Mode:    mode,
		Meta:    eng.NewLock("pvm-meta:" + guestName),
		Coarse:  eng.NewLock("pvm-mmu:" + guestName),
		eng:     eng,
		ptLocks: map[ptKey]*vclock.Lock{},
	}
}

// PT returns the pt_lock covering va in the given address space.
func (ls *LockSet) PT(owner int, va arch.VA) *vclock.Lock {
	k := ptKey{owner: owner, span: va >> (arch.PageShift + arch.IndexBits)}
	ls.ptMu.Lock()
	defer ls.ptMu.Unlock()
	l, ok := ls.ptLocks[k]
	if !ok {
		l = ls.newLock("pvm-pt")
		ls.ptLocks[k] = l
	}
	return l
}

// Rmap returns the rmap_lock of a guest frame.
func (ls *LockSet) Rmap(gfn arch.PFN) *vclock.Lock {
	ls.rmapMu.Lock()
	defer ls.rmapMu.Unlock()
	l := ls.rmapLocks.Slot(gfn)
	if *l == nil {
		*l = ls.newLock("pvm-rmap")
	}
	return *l
}

// newLock creates a lock of the set, owned when the set is. Caller holds
// ptMu or rmapMu.
func (ls *LockSet) newLock(name string) *vclock.Lock {
	l := ls.eng.NewLock(name)
	if ls.owner != nil {
		l.Own(ls.owner)
	}
	return l
}

// Own hands every lock of the set, present and future, to vCPU c (see
// vclock.Lock.Own): the shadow state they protect belongs to one guest, so
// when all of that guest's processes run on c only c can reach it.
func (ls *LockSet) Own(c *vclock.CPU) {
	ls.ptMu.Lock()
	defer ls.ptMu.Unlock()
	ls.rmapMu.Lock()
	defer ls.rmapMu.Unlock()
	ls.owner = c
	ls.Meta.Own(c)
	ls.Coarse.Own(c)
	for _, l := range ls.ptLocks {
		l.Own(c)
	}
	ls.rmapLocks.Each(func(l *vclock.Lock) { l.Own(c) })
}

// PTLockCount returns how many distinct pt_locks have been created (a proxy
// for shadow-page granularity in tests).
func (ls *LockSet) PTLockCount() int {
	ls.ptMu.Lock()
	defer ls.ptMu.Unlock()
	return len(ls.ptLocks)
}

// PCIDAllocator implements the PCID-mapping optimization (§3.3.2): L1's
// unused PCIDs 32–47 are handed to L2 guest-kernel (v_ring0) address spaces
// and 48–63 to guest-user (v_ring3) ones, so the TLB can tell individual L2
// shadow address spaces apart and world switches need no flush.
type PCIDAllocator struct {
	mu         sync.Mutex
	nextUser   arch.PCID
	nextKernel arch.PCID
}

// NewPCIDAllocator returns an allocator positioned at the window bases.
func NewPCIDAllocator() *PCIDAllocator {
	return &PCIDAllocator{
		nextUser:   arch.PVMUserPCIDBase,
		nextKernel: arch.PVMKernelPCIDBase,
	}
}

// Alloc hands out a (user, kernel) PCID pair, wrapping within the windows.
func (a *PCIDAllocator) Alloc() (user, kernel arch.PCID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	user, kernel = a.nextUser, a.nextKernel
	a.nextUser++
	if a.nextUser >= arch.PVMUserPCIDBase+arch.PCID(arch.PVMUserPCIDLen) {
		a.nextUser = arch.PVMUserPCIDBase
	}
	a.nextKernel++
	if a.nextKernel >= arch.PVMKernelPCIDBase+arch.PCID(arch.PVMKernelPCIDLen) {
		a.nextKernel = arch.PVMKernelPCIDBase
	}
	return user, kernel
}
