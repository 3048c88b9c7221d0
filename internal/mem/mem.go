// Package mem provides the physical-memory substrate of the simulator:
// refcounted page-frame allocators for each physical layer (host physical
// per VM, L1 guest physical, L2 guest physical), and FrameTable, which keeps
// a value per frame for the layers above them.
//
// Frames are identified by arch.PFN. The allocator tracks reference counts so
// higher layers can model copy-on-write sharing (fork) and page-table frame
// reclamation. Counts live in a dense slice indexed by pfn-base — frame
// numbers are handed out contiguously from base, so the slice is fully
// occupied and every refcount operation is an array access instead of a map
// probe; fork/exit refcount sweeps are the hottest consumers.
package mem

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/arch"
)

// ErrOutOfMemory is returned when an allocator has reached its frame limit.
var ErrOutOfMemory = errors.New("mem: out of physical frames")

// Allocator hands out page frames of one physical layer for one owner: one
// VM's guest-physical frames, one nested guest's, or the host frames L0
// spends on one VM (hv.VM.Frames). Frame numbers are unique within one
// allocator only, and no structure mixes two allocators' frames: a VM's
// EPT01, and on bare metal its guest's shadow tables, backing map and TLB
// entries, name that VM's host frames alone; a nested guest's EPT02 names
// the L1 instance's.
//
// Allocator is safe for concurrent use. Which frame a call returns depends
// on the order of calls, so determinism rests on that order being a
// function of virtual time: an allocator several vCPUs share (the L1
// instance's guest-physical and host frames, or those of a guest left
// unbound) is touched only right after a gate — a Sync, or the gate a
// virtual lock takes before its critical section — so calls land in
// (clock, id) order. The allocators of a
// guest bound to one vCPU (backend.Guest.Bind) — its guest-physical frames
// and, on bare metal, its VM's host frames — are touched by that vCPU alone
// and need no gate: program order fixes their sequence.
type Allocator struct {
	mu    sync.Mutex
	name  string
	limit int64 // max frames, 0 = unlimited
	base  arch.PFN
	next  arch.PFN
	free  []arch.PFN
	refs  []int32 // refs[pfn-base]; 0 = unallocated
	live  int64   // frames with a nonzero count

	allocs int64
	frees  int64
}

// NewAllocator creates an allocator named name with a capacity of limit
// frames (0 = unlimited). Frame numbers start at base so different layers
// can use visibly distinct ranges in traces.
func NewAllocator(name string, limit int64, base arch.PFN) *Allocator {
	return &Allocator{
		name:  name,
		limit: limit,
		base:  base,
		next:  base,
	}
}

// Name returns the allocator's diagnostic name.
func (a *Allocator) Name() string { return a.name }

// idx returns the refs index for pfn, or -1 if pfn was never handed out.
func (a *Allocator) idx(pfn arch.PFN) int {
	if pfn < a.base || pfn >= a.next {
		return -1
	}
	return int(pfn - a.base)
}

// Alloc returns a fresh (zeroed) frame with reference count 1.
func (a *Allocator) Alloc() (arch.PFN, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.limit > 0 && a.live >= a.limit {
		return 0, fmt.Errorf("%s (%d frames): %w", a.name, a.limit, ErrOutOfMemory)
	}
	var pfn arch.PFN
	if n := len(a.free); n > 0 {
		pfn = a.free[n-1]
		a.free = a.free[:n-1]
	} else {
		pfn = a.next
		a.next++
		a.refs = append(a.refs, 0)
	}
	a.refs[pfn-a.base] = 1
	a.live++
	a.allocs++
	return pfn, nil
}

// MustAlloc is Alloc for callers that treat exhaustion as a simulator bug.
func (a *Allocator) MustAlloc() arch.PFN {
	pfn, err := a.Alloc()
	if err != nil {
		panic(err)
	}
	return pfn
}

// Share increments the reference count of an allocated frame (COW sharing).
func (a *Allocator) Share(pfn arch.PFN) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	i := a.idx(pfn)
	if i < 0 || a.refs[i] == 0 {
		return fmt.Errorf("mem: %s: share of unallocated frame %#x", a.name, pfn)
	}
	a.refs[i]++
	return nil
}

// ShareRun increments the reference count of n consecutive frames starting
// at pfn under one lock acquisition — the batched form of n Share calls that
// fork's page-table clone issues for runs of sequentially allocated frames.
// The run is validated before any count changes, so a failed ShareRun leaves
// every count untouched.
func (a *Allocator) ShareRun(pfn arch.PFN, n int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	i := a.idx(pfn)
	if i < 0 || i+n > len(a.refs) {
		return fmt.Errorf("mem: %s: share of unallocated frame %#x", a.name, pfn+arch.PFN(n-1))
	}
	run := a.refs[i : i+n]
	for j, rc := range run {
		if rc == 0 {
			return fmt.Errorf("mem: %s: share of unallocated frame %#x", a.name, pfn+arch.PFN(j))
		}
	}
	for j := range run {
		run[j]++
	}
	return nil
}

// FreeRun decrements n consecutive frames starting at pfn under one lock
// acquisition, with per-frame Free semantics (released to the free list, in
// run order, when a count reaches zero). Fork's error unwind uses it to
// return the reference counts ShareRun took.
func (a *Allocator) FreeRun(pfn arch.PFN, n int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := 0; i < n; i++ {
		if _, err := a.freeLocked(pfn + arch.PFN(i)); err != nil {
			return err
		}
	}
	return nil
}

// FreeBatch decrements every listed frame under one lock acquisition, with
// per-frame Free semantics: frames whose count reaches zero go to the free
// list in slice order. Bulk teardown uses it for a leaf table's data frames
// and for the table frames themselves.
func (a *Allocator) FreeBatch(pfns []arch.PFN) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, pfn := range pfns {
		if _, err := a.freeLocked(pfn); err != nil {
			return err
		}
	}
	return nil
}

// FreeKeepLast is the teardown sweep over one batch of data frames: frames
// with more than one reference are decremented (a Free that cannot release);
// frames at their last reference are left allocated and their indices
// appended to idx. The caller releases the backing of each kept frame and
// then frees them with FreeBatch — preserving the invariant that a frame's
// backing is gone before the frame can reach the free list.
func (a *Allocator) FreeKeepLast(pfns []arch.PFN, idx []int) ([]int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, pfn := range pfns {
		j := a.idx(pfn)
		if j < 0 || a.refs[j] == 0 {
			return idx, fmt.Errorf("mem: %s: free of unallocated frame %#x", a.name, pfn)
		}
		if a.refs[j] > 1 {
			a.refs[j]--
			continue
		}
		idx = append(idx, i)
	}
	return idx, nil
}

// freeLocked is Free's body; the caller holds a.mu.
func (a *Allocator) freeLocked(pfn arch.PFN) (released bool, err error) {
	i := a.idx(pfn)
	if i < 0 || a.refs[i] == 0 {
		return false, fmt.Errorf("mem: %s: free of unallocated frame %#x", a.name, pfn)
	}
	if a.refs[i] > 1 {
		a.refs[i]--
		return false, nil
	}
	a.refs[i] = 0
	a.live--
	a.free = append(a.free, pfn)
	a.frees++
	return true, nil
}

// Free decrements the frame's reference count, returning it to the free list
// when it drops to zero. It reports whether the frame was actually released.
func (a *Allocator) Free(pfn arch.PFN) (released bool, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.freeLocked(pfn)
}

// RefCount returns the frame's reference count (0 if unallocated).
func (a *Allocator) RefCount(pfn arch.PFN) int32 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if i := a.idx(pfn); i >= 0 {
		return a.refs[i]
	}
	return 0
}

// InUse returns the number of live frames.
func (a *Allocator) InUse() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.live
}

// Stats is a snapshot of allocator activity.
type Stats struct {
	Name   string
	InUse  int64
	Allocs int64
	Frees  int64
	Limit  int64
}

// Stats returns a snapshot of allocator counters.
func (a *Allocator) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Stats{Name: a.name, InUse: a.live, Allocs: a.allocs, Frees: a.frees, Limit: a.limit}
}
