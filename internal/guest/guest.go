// Package guest implements the simulated guest kernel that runs inside each
// secure container's VM: a process model with virtual memory areas, demand
// paging, copy-on-write fork, exec, and free-page reporting back to the
// virtualization stack (as the RunD/Kata high-density deployments the paper
// targets do).
//
// The guest kernel is virtualization-agnostic: every interaction with the
// stack below it — page-fault delivery, write-protected page-table stores,
// syscall transitions, privileged instructions, I/O kicks — goes through the
// Platform interface, implemented once per deployment configuration by
// package backend. This is the boundary at which the paper's five scenarios
// (kvm-ept/kvm-spt/pvm × bare-metal/nested) differ.
package guest

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/arch"
	"repro/internal/cost"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/pagetable"
	"repro/internal/vclock"
)

// Platform is the virtualization stack under the guest kernel. Implemented
// by package backend, one strategy per paper configuration.
type Platform interface {
	Params() *cost.Params
	Counters() *metrics.Counters
	Engine() *vclock.Engine
	KPTI() bool

	// RegisterProcess prepares per-process virtualization state (shadow
	// page tables, PCIDs, TLB context) and instruments the process's
	// guest page table so PTE stores can trap. Called once per address
	// space, after the initial page-table image is built.
	RegisterProcess(p *Process)
	// UnregisterProcess tears the per-process state down (exit/exec).
	UnregisterProcess(p *Process)

	// Access performs one memory access at va, running the configuration's
	// full translation/fault choreography (TLB, table walks, world
	// switches, guest fault handling via Kernel.HandleFault).
	Access(p *Process, va arch.VA, write bool)

	// AccessRange performs pages sequential accesses over the
	// contiguous range starting at va, equivalent to pages Access
	// calls on consecutive pages. Implementations resolve maximal
	// runs of same-outcome pages in one step (run-length TLB
	// resolution) but must remain observationally identical to the
	// per-page loop: same virtual time, same counters, same traces.
	AccessRange(p *Process, va arch.VA, pages int, write bool)

	// ReleasePage is invoked per page on munmap after the guest kernel
	// freed the frame: free-page reporting propagates the release down
	// the stack so the next use refaults.
	ReleasePage(p *Process, va arch.VA, gpa arch.PFN)

	// StartDirtyLog arms dirty-page logging for the process, beginning an
	// epoch: shadow-paging platforms write-protect the logged leaves, EPT
	// platforms enable hardware page-modification logging. A no-op when
	// already armed.
	StartDirtyLog(p *Process)
	// CollectDirty returns the pages dirtied since the last Start/Collect
	// in ascending VA order and begins the next epoch. Nil when logging
	// is not armed. The pre-copy migration driver iterates this.
	CollectDirty(p *Process) []arch.VA
	// StopDirtyLog disarms logging, discarding the current epoch. The
	// armed state does not survive exec (per-address-space platform state
	// is rebuilt); callers re-arm afterwards if needed.
	StopDirtyLog(p *Process)

	// FlushRange is the guest kernel's TLB range invalidation issued
	// once after a batch of PTE changes (munmap, fork COW protection).
	// Under traditional shadow paging this triggers a remote shootdown
	// of every vCPU in the guest; PVM's PCID mapping reduces it to a
	// single PCID-targeted flush.
	FlushRange(p *Process, pages int)

	// BeginRangedMutation / EndRangedMutation bracket one ranged VMA
	// mutation sweep (the structural munmap/mprotect lanes). Between
	// them the platform may defer the per-page TLB zaps its PTE-store
	// hooks would issue, coalescing them at End into ranged zaps over
	// the affected runs — an mmu_gather-style batching that changes no
	// virtual-time charge, gate, counter, or trace. End is called before
	// the mutation's FlushRange. The bracket must nest trivially: one
	// mutation at a time per process.
	BeginRangedMutation(p *Process)
	EndRangedMutation(p *Process)

	// SyscallRoundTrip charges a guest user→kernel→user transition plus
	// the in-kernel body cost.
	SyscallRoundTrip(p *Process, body int64)

	// PrivOp executes a privileged operation (Table 1 microbenchmarks).
	PrivOp(p *Process, op arch.PrivOp)

	// Halt parks the vCPU on HLT until the next event and charges the
	// configuration's sleep/wake path.
	Halt(p *Process)

	// BlockIO and NetIO submit n paravirtual I/O requests of the given
	// size, charging kick/completion choreography plus device service.
	BlockIO(p *Process, n int, bytes int64)
	NetIO(p *Process, n int, bytes int64)

	// DeliverInterrupt runs the external-interrupt injection path.
	DeliverInterrupt(p *Process, vector uint8)
}

// Layout constants for process address spaces.
const (
	ImageBase  arch.VA = 0x0000_0000_0040_0000 // text+data
	MmapBase   arch.VA = 0x0000_1000_0000_0000 // bump-allocated mmap region
	StackTop   arch.VA = 0x0000_7fff_ffff_0000 // stack grows down
	StackPages         = 16
)

// Kernel is one guest's kernel instance.
type Kernel struct {
	plat Platform

	// GPA is the guest-physical frame space (owned by the VM this kernel
	// runs in; shared with the platform strategy).
	GPA *mem.Allocator

	mu      sync.Mutex
	procs   map[int]*Process
	nextPID int

	// cpu, once set by Bind, is the only vCPU processes may run on.
	// Guarded by mu.
	cpu *vclock.CPU
}

// NewKernel boots a guest kernel on the given platform with the given
// guest-physical allocator.
func NewKernel(plat Platform, gpa *mem.Allocator) *Kernel {
	return &Kernel{plat: plat, GPA: gpa, procs: map[int]*Process{}, nextPID: 1}
}

// Bind restricts the kernel to one vCPU: every process from now on must run
// on cpu, and NewProcess and Fork refuse any other. It fails when a live
// process already runs elsewhere, or when the kernel is bound to another
// vCPU.
func (k *Kernel) Bind(cpu *vclock.CPU) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.cpu != nil && k.cpu != cpu {
		return fmt.Errorf("guest: kernel already bound to vCPU %d", k.cpu.ID())
	}
	for _, p := range k.procs {
		if p.CPU != cpu {
			return fmt.Errorf("guest: binding to vCPU %d: pid %d runs on vCPU %d", cpu.ID(), p.PID, p.CPU.ID())
		}
	}
	k.cpu = cpu
	return nil
}

// admit checks that a process may run on cpu (see Bind).
func (k *Kernel) admit(cpu *vclock.CPU) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.cpu != nil && cpu != k.cpu {
		return fmt.Errorf("guest: kernel bound to vCPU %d refuses a process on vCPU %d", k.cpu.ID(), cpu.ID())
	}
	return nil
}

// Platform returns the virtualization stack below this kernel.
func (k *Kernel) Platform() Platform { return k.plat }

// Procs returns the number of live processes.
func (k *Kernel) Procs() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.procs)
}

// VMA is one virtual memory area.
type VMA struct {
	Start, End arch.VA // [Start, End), page aligned
	Writable   bool
}

// Pages returns the VMA's page count.
func (v VMA) Pages() int { return int((v.End - v.Start) / arch.PageSize) }

func (v VMA) contains(va arch.VA) bool { return va >= v.Start && va < v.End }

// Process is one guest process: an address space bound to a vCPU.
type Process struct {
	K   *Kernel
	PID int
	CPU *vclock.CPU

	// GPT is the process's guest page table (GPT2 in the paper's nested
	// notation), mapping guest-virtual to guest-physical pages.
	GPT *pagetable.PageTable

	// gptMapper is a cached-leaf write cursor over GPT. Cold faults,
	// fork COW setup, and mprotect sweeps populate runs of PTEs in
	// ascending VA order; the cursor resolves one upper-level walk per
	// 2 MiB span instead of one per page while remaining observationally
	// identical to direct GPT calls (see pagetable.Mapper).
	gptMapper pagetable.Mapper

	vmas     []VMA // sorted by Start
	mmapNext arch.VA

	// PlatformData holds backend-private per-process state (shadow page
	// tables, PCIDs, TLB).
	PlatformData any

	alive bool
}

// perm converts a VMA to leaf PTE flags.
func (v VMA) perm() pagetable.Flags {
	f := pagetable.User
	if v.Writable {
		f |= pagetable.Writable
	}
	return f
}

// NewProcess creates a process with an empty address space on cpu, registers
// it with the platform, and maps nothing. Most callers want StartProcess.
func (k *Kernel) NewProcess(cpu *vclock.CPU) (*Process, error) {
	if err := k.admit(cpu); err != nil {
		return nil, err
	}
	// PID assignment and the root-table frame come from kernel-shared
	// pools: gate so concurrent process creation on other vCPUs orders
	// them by virtual time (ties by vCPU id), not by goroutine startup.
	cpu.Sync()
	gpt, err := pagetable.New(k.GPA)
	if err != nil {
		return nil, err
	}
	k.mu.Lock()
	pid := k.nextPID
	k.nextPID++
	k.mu.Unlock()
	p := &Process{
		K:         k,
		PID:       pid,
		CPU:       cpu,
		GPT:       gpt,
		gptMapper: gpt.NewMapper(),
		mmapNext:  MmapBase,
		alive:     true,
	}
	k.mu.Lock()
	k.procs[pid] = p
	k.mu.Unlock()
	k.plat.RegisterProcess(p)
	return p, nil
}

// StartProcess creates a process with a resident image of imagePages pages
// (text/data, touched) plus a stack, modeling a warmed-up program.
func (k *Kernel) StartProcess(cpu *vclock.CPU, imagePages int) (*Process, error) {
	p, err := k.NewProcess(cpu)
	if err != nil {
		return nil, err
	}
	p.mapImage(imagePages)
	return p, nil
}

// mapImage installs and touches the image + stack VMAs.
func (p *Process) mapImage(imagePages int) {
	if imagePages > 0 {
		img := VMA{Start: ImageBase, End: ImageBase + arch.VA(imagePages)*arch.PageSize, Writable: true}
		p.addVMA(img)
		p.K.plat.AccessRange(p, img.Start, imagePages, true)
	}
	stack := VMA{Start: StackTop - StackPages*arch.PageSize, End: StackTop, Writable: true}
	p.addVMA(stack)
	p.K.plat.AccessRange(p, stack.Start, StackPages, true)
}

// Alive reports whether the process has not exited.
func (p *Process) Alive() bool { return p.alive }

// ResidentPages returns the number of pages currently mapped in the GPT.
func (p *Process) ResidentPages() int { return p.GPT.CountMapped() }

func (p *Process) addVMA(v VMA) {
	idx := sort.Search(len(p.vmas), func(i int) bool { return p.vmas[i].Start >= v.Start })
	p.vmas = append(p.vmas, VMA{})
	copy(p.vmas[idx+1:], p.vmas[idx:])
	p.vmas[idx] = v
}

// FindVMA returns the VMA containing va.
func (p *Process) FindVMA(va arch.VA) (VMA, bool) {
	idx := sort.Search(len(p.vmas), func(i int) bool { return p.vmas[i].End > va })
	if idx < len(p.vmas) && p.vmas[idx].contains(va) {
		return p.vmas[idx], true
	}
	return VMA{}, false
}

// VMACount returns the number of memory areas.
func (p *Process) VMACount() int { return len(p.vmas) }

// Touch performs one memory access through the full virtualization stack.
func (p *Process) Touch(va arch.VA, write bool) {
	p.K.plat.Access(p, va, write)
}

// TouchRange accesses every page in [va, va+pages) through the platform's
// ranged fast path (run-length TLB resolution).
func (p *Process) TouchRange(va arch.VA, pages int, write bool) {
	p.K.plat.AccessRange(p, va, pages, write)
}

// TouchRangeByPage accesses every page in [va, va+pages) one Access call at
// a time. It is the per-page reference implementation TouchRange must be
// observationally indistinguishable from (see the backend equivalence
// tests); workloads should use TouchRange.
func (p *Process) TouchRangeByPage(va arch.VA, pages int, write bool) {
	for i := 0; i < pages; i++ {
		p.Touch(va+arch.VA(i)*arch.PageSize, write)
	}
}

// StartDirtyLog arms dirty-page logging for this process (epoch begin).
func (p *Process) StartDirtyLog() { p.K.plat.StartDirtyLog(p) }

// CollectDirty returns the pages dirtied since the last Start/Collect in
// ascending VA order and begins the next epoch (nil when not armed).
func (p *Process) CollectDirty() []arch.VA { return p.K.plat.CollectDirty(p) }

// StopDirtyLog disarms dirty-page logging for this process.
func (p *Process) StopDirtyLog() { p.K.plat.StopDirtyLog(p) }

// Syscall performs a generic syscall with the given in-kernel body cost.
func (p *Process) Syscall(body int64) {
	p.K.plat.SyscallRoundTrip(p, body)
}

// Getpid is the Table 2 microbenchmark syscall.
func (p *Process) Getpid() {
	p.Syscall(0) // transition costs + SyscallBody are charged by the platform
}

// Compute burns d nanoseconds of guest CPU time.
func (p *Process) Compute(d int64) { p.CPU.Compute(d) }

// PrivOp executes a privileged operation.
func (p *Process) PrivOp(op arch.PrivOp) { p.K.plat.PrivOp(p, op) }

// Halt executes HLT (blocking synchronization idle).
func (p *Process) Halt() { p.K.plat.Halt(p) }

// BlockIO submits n block requests of size bytes.
func (p *Process) BlockIO(n int, bytes int64) { p.K.plat.BlockIO(p, n, bytes) }

// NetIO submits n network requests of size bytes.
func (p *Process) NetIO(n int, bytes int64) { p.K.plat.NetIO(p, n, bytes) }

// Interrupt delivers an external interrupt to this vCPU.
func (p *Process) Interrupt(vector uint8) { p.K.plat.DeliverInterrupt(p, vector) }

// mmapBody is the in-kernel cost of an mmap/munmap syscall excluding paging.
const mmapBody = 600

// Mmap adds a pages-page anonymous writable area and returns its base. Pages
// are demand-faulted on first touch.
func (p *Process) Mmap(pages int) arch.VA {
	p.Syscall(mmapBody)
	base := p.mmapNext
	p.mmapNext += arch.VA(pages) * arch.PageSize
	p.addVMA(VMA{Start: base, End: base + arch.VA(pages)*arch.PageSize, Writable: true})
	return base
}

// forkBase is the in-kernel bookkeeping cost of fork excluding per-page
// work (task struct, fd table, scheduler).
const forkBase = 28000

// Fork creates a copy-on-write child. The child runs on childCPU; pass nil
// to run it sequentially on the parent's vCPU (the fork+exit microbenchmark
// pattern). Writable pages are write-protected in the parent (each store
// traps under shadow paging — the reason fork is expensive there) and shared
// with the child.
func (p *Process) Fork(childCPU *vclock.CPU) (*Process, error) {
	if childCPU == nil {
		childCPU = p.CPU
	}
	k := p.K
	if err := k.admit(childCPU); err != nil {
		return nil, err
	}
	k.plat.Counters().Forks.Add(1)

	// PID assignment and the child's root-table frame come from
	// kernel-shared pools: gate so concurrent forks on other vCPUs order
	// them by virtual time, not by how far ahead this vCPU has run.
	p.CPU.Sync()
	childGPT, err := pagetable.New(k.GPA)
	if err != nil {
		return nil, err
	}
	k.mu.Lock()
	pid := k.nextPID
	k.nextPID++
	k.mu.Unlock()
	child := &Process{
		K:         k,
		PID:       pid,
		CPU:       childCPU,
		GPT:       childGPT,
		gptMapper: childGPT.NewMapper(),
		vmas:      append([]VMA(nil), p.vmas...),
		mmapNext:  p.mmapNext,
		alive:     true,
	}

	// Enter the kernel once for the whole fork.
	p.Syscall(forkBase)

	// Copy the page-table image: parent's writable leaves become
	// read-only (COW) — these stores hit the parent's *shadowed* GPT and
	// trap; the child's fresh GPT is not yet shadowed, so building it
	// does not trap. The structural fast lane (lifecycle.go) clones whole
	// tables; the per-leaf reference path is retained for the equivalence
	// grids and must stay observationally identical.
	var (
		leaves int
		taken  []shareRun
		cerr   error
	)
	if lifecycleBypass {
		leaves, taken, cerr = p.forkCopyPerLeaf(child)
	} else {
		leaves, taken, cerr = p.forkCopyClone(child)
	}
	if cerr != nil {
		// Unwind the half-built child: its table frames and the reference
		// counts already taken must not leak (the child was never entered
		// into the process table or registered with the platform).
		return nil, forkError(cerr, p.abortFork(child, taken))
	}
	// One TLB range invalidation covers all the COW write-protections.
	k.plat.FlushRange(p, leaves)

	k.mu.Lock()
	k.procs[pid] = child
	k.mu.Unlock()
	k.plat.RegisterProcess(child)
	return child, nil
}

// execBase is the in-kernel cost of execve excluding paging (binary load,
// mm teardown bookkeeping).
const execBase = 180000

// Exec replaces the process image: the old address space is torn down
// (unshadowed, frames freed) and a new image of imagePages pages is mapped
// and entry pages touched.
func (p *Process) Exec(imagePages int) error {
	p.Syscall(execBase)
	p.K.plat.Counters().Execs.Add(1)
	if err := p.teardownAddressSpace(); err != nil {
		return err
	}
	gpt, err := pagetable.New(p.K.GPA)
	if err != nil {
		return err
	}
	p.GPT = gpt
	p.gptMapper = gpt.NewMapper()
	p.vmas = nil
	p.mmapNext = MmapBase
	p.K.plat.RegisterProcess(p)
	p.mapImage(imagePages)
	return nil
}

// Exit terminates the process, releasing its address space.
func (p *Process) Exit() error {
	if !p.alive {
		return nil
	}
	p.alive = false
	if err := p.teardownAddressSpace(); err != nil {
		return err
	}
	p.K.mu.Lock()
	delete(p.K.procs, p.PID)
	p.K.mu.Unlock()
	return nil
}

// teardownAddressSpace unregisters from the platform, then frees data
// frames and page-table frames. The platform hook is removed first so the
// teardown stores don't trap (real hypervisors unshadow the whole table).
func (p *Process) teardownAddressSpace() error {
	p.K.plat.UnregisterProcess(p)
	p.GPT.OnWrite = nil
	p.gptMapper.Reset() // cached leaf must not outlive the table teardown
	if lifecycleBypass {
		return p.teardownPerLeaf()
	}
	return p.teardownSubtree()
}

// HandleFault is the guest kernel's page-fault handler, invoked by the
// platform once the fault has been delivered into guest-kernel context. It
// resolves demand-zero and COW faults by updating the GPT (stores trap via
// the platform's hook when the table is shadowed) and returns the resolved
// guest-physical frame.
func (k *Kernel) HandleFault(p *Process, va arch.VA, write bool) (arch.PFN, error) {
	prm := k.plat.Params()
	c := p.CPU
	c.AdvanceLazy(prm.GuestFaultEntry)
	va = va.PageDown()
	vma, ok := p.FindVMA(va)
	if !ok {
		return 0, fmt.Errorf("guest: segfault: pid %d at %#x", p.PID, va)
	}
	if write && !vma.Writable {
		return 0, fmt.Errorf("guest: write to read-only vma: pid %d at %#x", p.PID, va)
	}
	if e, ok := p.gptMapper.Lookup(va); ok {
		if !write {
			// Read of a present page: nothing to fix at GPT level
			// (the fault was shadow-only; platform handles it).
			return e.PFN, nil
		}
		// Write to a present read-only page: COW break or re-enable.
		k.plat.Counters().COWBreaks.Add(1)
		if k.GPA.RefCount(e.PFN) > 1 {
			newPFN, err := k.GPA.Alloc()
			if err != nil {
				return 0, err
			}
			c.AdvanceLazy(prm.FrameAlloc + prm.CopyPage + prm.PTEWrite)
			if k.GPA.RefCount(e.PFN) == 1 {
				// Final reference: report the frame down the stack before
				// it reaches the free list, so a recycled frame always
				// refaults its backing instead of inheriting it from a
				// dead mapping.
				k.plat.ReleasePage(p, va, e.PFN)
			}
			if _, err := k.GPA.Free(e.PFN); err != nil {
				return 0, err
			}
			if _, err := p.gptMapper.Map(va, newPFN, vma.perm()); err != nil {
				return 0, err
			}
			return newPFN, nil
		}
		c.AdvanceLazy(prm.PTEWrite)
		p.gptMapper.Protect(va, vma.perm())
		return e.PFN, nil
	}
	// Demand-zero fault. Cold regions fault in ascending VA order, so the
	// process's cached cursor installs runs of PTEs within one leaf table
	// with a single upper-level walk (bulk population, ISSUE tentpole #2)
	// while emitting the same per-entry write events as a scalar Map.
	gpa, err := k.GPA.Alloc()
	if err != nil {
		return 0, err
	}
	writes, err := p.gptMapper.Map(va, gpa, vma.perm())
	if err != nil {
		// The frame was never published in the GPT; hand it straight back
		// so a fault aborted by table-frame exhaustion leaks nothing.
		// Partially built spine tables stay accounted in TableFrames and
		// return at teardown.
		if _, ferr := k.GPA.Free(gpa); ferr != nil {
			return 0, ferr
		}
		return 0, err
	}
	c.AdvanceLazy(prm.FrameAlloc + int64(writes)*prm.PTEWrite)
	return gpa, nil
}
