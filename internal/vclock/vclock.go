// Package vclock implements a deterministic discrete-virtual-time execution
// engine for the PVM simulator.
//
// Workload code runs one flow of control per simulated vCPU and advances a
// per-vCPU virtual clock (int64 nanoseconds) as it charges costs. The engine
// enforces a conservative ordering discipline: a vCPU may only perform an
// operation when its clock is the global minimum among runnable vCPUs (ties
// broken by vCPU id). Together with explicit virtual locks this makes every
// simulation deterministic regardless of how the host interleaves the vCPUs.
//
// A vCPU launched with Engine.Go is a coroutine. One dispatcher goroutine
// per engine resumes its coroutines one at a time from a FIFO ready queue: a
// vCPU that must wait yields to the dispatcher, and a wakeup queues it, so a
// handoff between two of them is a pair of direct coroutine switches with no
// scheduler wake. A vCPU made by NewCPU is driven by the caller's own
// goroutine, which parks on a channel instead. Both kinds mix freely in one
// engine; how a vCPU waits never changes what the engine decides.
//
// Virtual locks model serialization (e.g. KVM's global mmu_lock versus PVM's
// fine-grained shadow-page-table locks). Acquiring a contended lock advances
// the acquirer's clock to the release time of the previous holder and records
// contention statistics; this is exactly the mechanism behind the paper's
// Figure 10 scalability results.
//
// Runnable vCPUs are indexed by a binary min-heap keyed on (clock, id), so
// admitting a vCPU, advancing a clock, and acquiring a lock all cost
// O(log #vCPUs); the minimum is found in O(1). Wakeups are targeted: every
// state change signals only the vCPU that now holds the minimum clock, so
// each operation wakes at most one vCPU. The heap's key order is the
// same (now, id) tie-break a linear min-scan would use, so schedules are
// bit-identical to a reference O(n) implementation of the same discipline
// (asserted by TestHeapMatchesLinearReference).
//
// A Lock can be owned by one vCPU (Lock.Own): state only that vCPU can reach
// needs no global ordering, so the owner takes and drops the lock without
// parking or touching the heap, recording the same statistics at its exact
// time, and any other taker aborts the run. CPU.Order likewise elides an
// ordering point that guards only the caller's private state. The heap key
// of such a vCPU lags its exact time, which only makes every other vCPU wait
// longer; its next gated operation folds the key forward, and Done departs
// at its last ordering point, exactly where the gated run would have left
// it (see Done).
package vclock

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// state of a simulated vCPU with respect to the scheduler.
type state int

const (
	running  state = iota // participates in the min-clock computation
	lockWait              // blocked on a virtual lock; excluded from min
	done                  // finished; excluded from min
)

// Engine coordinates a set of simulated vCPUs.
type Engine struct {
	mu sync.Mutex

	cpus []*CPU

	// heap indexes the running vCPUs as a binary min-heap ordered by
	// (now, id). heap[0] is always the vCPU allowed to act next.
	heap []*CPU

	// cores bounds simulated hardware parallelism. Compute advances are
	// dilated when more vCPUs are runnable than cores. Zero means
	// unlimited (no dilation).
	cores int

	// aborted is set when a workload panics; every parked vCPU is woken
	// and unwound so Wait can drain the run instead of deadlocking on the
	// min-clock gate.
	aborted bool
	err     error

	// solo is the vCPU currently granted the solo fast path, or nil. When
	// exactly one vCPU is runnable and no lock intents or waiters exist,
	// that vCPU trivially holds the global minimum clock at every
	// operation, so Advance/Compute/Sync/Acquire/Release can skip e.mu and
	// the heap entirely (see CPU.soloFast). Guarded by e.mu; the grant is
	// published to the vCPU through its soloActive flag and revoked with
	// exitSoloLocked's handshake.
	solo *CPU

	// soloOff disables the solo fast path (SetSoloBypass); the tests use
	// it to pin the bypass against the fully gated engine.
	soloOff bool

	// hold, when non-nil, is the armed starting barrier (see Hold): the
	// dispatcher resumes no coroutine until it is released.
	hold chan struct{}

	// ready is the dispatcher's FIFO of Go-launched vCPUs to resume: each
	// one once at launch, then once per wakeup while it is parked. Entries
	// before readyHead are taken; the backing array is reused in place.
	ready     []*CPU
	readyHead int

	// live counts the Go-launched vCPUs whose coroutine has not finished.
	// dispatching is set while the dispatcher goroutine runs; it exits when
	// live reaches 0 with nothing ready. The dispatcher waits on turn, with
	// e.mu, while Hold is armed or every live vCPU is parked.
	live        int
	dispatching bool
	turn        sync.Cond

	// eager disables fused cost charging (SetEagerCharges): AdvanceLazy
	// becomes an immediate Advance. Schedules are bit-identical either
	// way; the metamorphic harness pins the fused accounting against the
	// fully eager engine.
	eager bool

	// soloGrants counts solo-mode entries (diagnostic; lets tests assert
	// the bypass actually engaged).
	soloGrants int64

	// lockWaiters counts vCPUs parked on lock waiter queues (state
	// lockWait). Solo mode is never granted while any exist: a release by
	// the would-be solo vCPU must go through the engine to hand the lock
	// off deterministically.
	lockWaiters int

	// owned lists the locks dedicated to one vCPU (Lock.Own), for Audit.
	owned []*Lock

	wg sync.WaitGroup
}

// NewEngine returns an engine with unlimited simulated cores.
func NewEngine() *Engine {
	e := &Engine{}
	e.turn.L = &e.mu
	return e
}

// SetCores bounds simulated hardware parallelism; see Engine.cores.
// Must be called before any vCPU starts executing.
func (e *Engine) SetCores(n int) { e.cores = n }

// SetSoloBypass enables or disables the solo-vCPU fast path (enabled by
// default). Schedules are bit-identical either way; the differential tests
// run both settings against the linear reference.
func (e *Engine) SetSoloBypass(on bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.soloOff = !on
	if !on && e.solo != nil {
		e.exitSoloLocked()
	}
	if on {
		e.maybeEnterSoloLocked()
	}
}

// SoloGrants returns how many times the engine entered solo mode
// (diagnostic, for tests).
func (e *Engine) SoloGrants() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.soloGrants
}

// Gates returns how many gated engine operations the run paid for: every
// Advance, Compute and Sync, every Acquire and Release of a lock the caller
// does not own, and the departure gate of a vCPU that elided ordering points
// (see Done). Owned acquisitions, AdvanceLazy and private Orders are free.
// Informational, like SoloGrants: the count measures how much global
// ordering a run bought, not what it computed. Call it after Wait.
func (e *Engine) Gates() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	var n int64
	for _, c := range e.cpus {
		n += c.gates
	}
	return n
}

// SetEagerCharges disables (on=true) or restores (on=false) fused cost
// charging: with eager charges every AdvanceLazy gates immediately like
// Advance. Deferred charges are always folded into the clock before any
// interaction with shared state, so the virtual-time observables — final
// clocks, makespan, lock statistics, trace timestamps — are bit-identical
// either way; the metamorphic harness uses this to pin the fused fast path
// against the fully eager engine. Must be set before the vCPUs it affects
// start executing.
func (e *Engine) SetEagerCharges(on bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.eager = on
}

// RevokeSolo force-revokes any standing solo-bypass grant (fault injection
// for the metamorphic harness). The engine re-grants naturally at the next
// gated operation if conditions still allow, so accounting is unaffected;
// only SoloGrants can differ.
func (e *Engine) RevokeSolo() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.exitSoloLocked()
}

// Clocks returns every vCPU's current virtual time (pending lazy charges
// folded in), indexed by vCPU id. Safe to call mid-run from a workload
// vCPU's own slot or after Wait.
func (e *Engine) Clocks() []int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]int64, len(e.cpus))
	for i, c := range e.cpus {
		out[i] = c.now + c.lazy
	}
	return out
}

// Audit verifies the engine's structural invariants: the heap is a valid
// (clock, id) min-heap with consistent back-indices, exactly the running
// vCPUs are indexed, the engine-wide lock-waiter count matches the parked
// vCPUs, any standing solo grant satisfies its preconditions (bypass
// enabled, exactly one runnable vCPU, no lock intents, no waiters), and no
// owned lock has waiters or a holder other than its owner. It is read-only
// and safe to call from a workload vCPU between operations.
func (e *Engine) Audit() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, c := range e.heap {
		if c.hi != i {
			return fmt.Errorf("vclock: heap[%d] is vCPU %d with back-index %d", i, c.id, c.hi)
		}
		if c.st != running {
			return fmt.Errorf("vclock: heap[%d] (vCPU %d) has state %d, want running", i, c.id, c.st)
		}
		if i > 0 {
			parent := e.heap[(i-1)/2]
			if cpuLess(c, parent) {
				return fmt.Errorf("vclock: heap order violated: heap[%d] (vCPU %d, t=%d) < parent (vCPU %d, t=%d)",
					i, c.id, c.now, parent.id, parent.now)
			}
		}
	}
	inHeap := 0
	waiters := 0
	for _, c := range e.cpus {
		switch c.st {
		case running:
			inHeap++
			if c.hi < 0 || c.hi >= len(e.heap) || e.heap[c.hi] != c {
				return fmt.Errorf("vclock: running vCPU %d not indexed by the heap (hi=%d)", c.id, c.hi)
			}
		case lockWait:
			waiters++
			if c.hi != -1 {
				return fmt.Errorf("vclock: lock-waiting vCPU %d still has heap index %d", c.id, c.hi)
			}
		case done:
			if c.hi != -1 {
				return fmt.Errorf("vclock: finished vCPU %d still has heap index %d", c.id, c.hi)
			}
		}
	}
	if inHeap != len(e.heap) {
		return fmt.Errorf("vclock: %d running vCPUs but heap holds %d", inHeap, len(e.heap))
	}
	if waiters != e.lockWaiters {
		return fmt.Errorf("vclock: lockWaiters=%d but %d vCPUs are in lockWait", e.lockWaiters, waiters)
	}
	for _, l := range e.owned {
		switch {
		case len(l.waiters) > 0:
			return fmt.Errorf("vclock: lock %s owned by vCPU %d has %d waiters", l.name, l.owner.id, len(l.waiters))
		case l.holder != nil && l.holder != l.owner:
			return fmt.Errorf("vclock: lock %s owned by vCPU %d is held by vCPU %d", l.name, l.owner.id, l.holder.id)
		}
	}
	if s := e.solo; s != nil {
		switch {
		case e.soloOff:
			return fmt.Errorf("vclock: solo grant standing while the bypass is disabled")
		case e.aborted:
			return fmt.Errorf("vclock: solo grant standing on an aborted engine")
		case len(e.heap) != 1 || e.heap[0] != s:
			return fmt.Errorf("vclock: solo grant held by vCPU %d but %d vCPUs are runnable", s.id, len(e.heap))
		case e.lockWaiters != 0:
			return fmt.Errorf("vclock: solo grant standing with %d lock waiters", e.lockWaiters)
		case s.pendingLock != nil:
			return fmt.Errorf("vclock: solo vCPU %d has a pending lock intent", s.id)
		case !s.soloActive.Load():
			return fmt.Errorf("vclock: solo grant not published to vCPU %d", s.id)
		}
	}
	return nil
}

// CPU is one simulated virtual CPU (or guest process context). All methods
// must be called from the flow of control driving this CPU: its coroutine
// for a vCPU launched by Engine.Go, the caller's goroutine for one made by
// NewCPU.
type CPU struct {
	id  int
	e   *Engine
	now int64
	st  state

	// hi is the index in Engine.heap, or -1 while not running.
	hi int

	// waiting is set while the vCPU is parked and no wakeup has reached it
	// yet. A vCPU made by NewCPU parks its goroutine on wake. A Go-launched
	// one yields to the dispatcher instead; resume switches its coroutine
	// back in, and the wakeup that queues it clears waiting.
	waiting bool
	wake    chan struct{}
	resume  func() (struct{}, bool)
	yield   func(struct{}) bool

	// pendingLock, when non-nil, is a declared intent to acquire that lock
	// as soon as this (parked) vCPU reaches the head of the heap. The vCPU
	// that advances the clock past this one applies the intent inline
	// (granting the lock or joining the waiter queue) without a park/wake
	// round trip; see Engine.processRootLocked.
	pendingLock *Lock

	// lazy accumulates deferred charges (AdvanceLazy); owned by the
	// driving goroutine, folded into now under e.mu at the next engine
	// operation.
	lazy int64

	// mark is the part of lazy that precedes the vCPU's last elided
	// ordering point (an owned acquire or release, or a private Order), or
	// -1 when its last ordering point was a gated operation. The elided
	// point's exact time is now+mark; Done departs there. Owned by
	// the driving goroutine, like lazy, and reset whenever lazy folds.
	mark int64

	// gates counts this vCPU's gated operations (Engine.Gates). Owned by
	// the driving goroutine.
	gates int64

	// soloActive is the engine's published grant of the solo fast path to
	// this vCPU (set under e.mu, cleared by exitSoloLocked). soloBusy is
	// the driving goroutine's in-flight marker: a fast operation sets it,
	// re-checks soloActive, and clears it when the operation completes.
	// Together they form the revocation handshake — exitSoloLocked clears
	// soloActive and then spins until soloBusy is clear, so by the time a
	// revoker (NewCPU admitting a second vCPU, abort) proceeds, no fast
	// operation is in flight and every later operation takes the gated
	// path. Sequentially consistent atomics order the fast path's plain
	// writes (now, lazy, lock fields) before the revoker's reads.
	soloActive atomic.Bool
	soloBusy   atomic.Bool

	// Advanced accumulates total virtual time charged to this CPU.
	Advanced int64
}

// soloFast attempts to enter a solo fast-path operation. On true the caller
// owns the engine (no other runnable vCPU exists, none can be admitted until
// the handshake completes) and must call soloEnd when the operation's plain
// writes are done. On false the caller must take the gated slow path.
func (c *CPU) soloFast() bool {
	// Cheap pre-check: a non-solo vCPU pays one relaxed-cost load per
	// operation. Only a standing grant pays for the full handshake.
	if !c.soloActive.Load() {
		return false
	}
	c.soloBusy.Store(true)
	if c.soloActive.Load() {
		return true
	}
	c.soloBusy.Store(false)
	return false
}

// soloEnd completes a solo fast-path operation begun by soloFast.
func (c *CPU) soloEnd() { c.soloBusy.Store(false) }

// maybeEnterSoloLocked grants the solo fast path to the sole runnable vCPU
// when the engine state allows it. Caller holds e.mu.
func (e *Engine) maybeEnterSoloLocked() {
	if e.soloOff || e.aborted || len(e.heap) != 1 || e.lockWaiters != 0 {
		return
	}
	c := e.heap[0]
	if c.pendingLock != nil || e.solo == c {
		return
	}
	if e.solo != nil {
		e.exitSoloLocked()
	}
	e.solo = c
	e.soloGrants++
	c.soloActive.Store(true)
}

// exitSoloLocked revokes the solo grant and waits for any in-flight fast
// operation to finish (see the soloActive/soloBusy handshake). Caller holds
// e.mu. Revoking from the solo vCPU's own goroutine never spins: soloBusy is
// only set during a fast operation, and a vCPU cannot be inside one while
// calling into the engine.
func (e *Engine) exitSoloLocked() {
	c := e.solo
	if c == nil {
		return
	}
	e.solo = nil
	c.soloActive.Store(false)
	for c.soloBusy.Load() {
		runtime.Gosched()
	}
}

// cpuLess orders vCPUs by (clock, id) — the engine's scheduling priority.
func cpuLess(a, b *CPU) bool {
	return a.now < b.now || (a.now == b.now && a.id < b.id)
}

// heapPush admits c to the runnable index. Caller holds e.mu.
func (e *Engine) heapPush(c *CPU) {
	c.hi = len(e.heap)
	e.heap = append(e.heap, c)
	e.siftUp(c.hi)
}

// heapRemove evicts c from the runnable index. Caller holds e.mu.
func (e *Engine) heapRemove(c *CPU) {
	i := c.hi
	last := len(e.heap) - 1
	if i != last {
		e.heap[i] = e.heap[last]
		e.heap[i].hi = i
	}
	e.heap[last] = nil
	e.heap = e.heap[:last]
	c.hi = -1
	if i != last {
		e.siftDown(i)
		e.siftUp(i)
	}
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	for i > 0 {
		parent := (i - 1) / 2
		if !cpuLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		h[i].hi = i
		h[parent].hi = parent
		i = parent
	}
}

func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && cpuLess(h[r], h[l]) {
			m = r
		}
		if !cpuLess(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		h[i].hi = i
		h[m].hi = m
		i = m
	}
}

// NewCPU registers a new vCPU starting at virtual time start.
//
// When called from a running vCPU (e.g. to model fork), pass the
// parent's current time; the engine guarantees the parent holds the global
// minimum clock at that moment, so the child joins consistently.
//
// The caller's goroutine drives the vCPU and parks on a channel while it
// waits; call Done when it finishes.
func (e *Engine) NewCPU(start int64) *CPU {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.admitLocked(&CPU{wake: make(chan struct{}, 1)}, start)
}

// admitLocked registers c as a runnable vCPU at time start. Caller holds
// e.mu.
func (e *Engine) admitLocked(c *CPU, start int64) *CPU {
	// Revoke any solo grant before the new vCPU becomes visible: the
	// handshake guarantees no fast-path operation is in flight by the time
	// the heap grows, so the previously-solo vCPU's next operation gates
	// against the newcomer.
	e.exitSoloLocked()
	c.id, c.e, c.now, c.st, c.hi, c.mark = len(e.cpus), e, start, running, -1, -1
	e.cpus = append(e.cpus, c)
	e.heapPush(c)
	e.processRootLocked()
	e.maybeEnterSoloLocked()
	return c
}

// Go launches fn as a coroutine driving a fresh vCPU that starts at virtual
// time start. The vCPU is marked done when fn returns.
//
// The engine's dispatcher goroutine runs its Go-launched vCPUs one at a
// time: fn runs only while no other of them does, and whenever fn waits on
// the engine, the dispatcher switches to the next ready one. fn may still
// block outside the engine (on a channel, say) as long as no other
// Go-launched vCPU of the same engine must run to unblock it: while it
// blocks, none of them can.
//
// A panic in fn does not crash the process: the engine records the panic as
// an error (see Err), aborts the run, and unwinds every other vCPU so Wait
// still returns instead of deadlocking on the min-clock gate. A
// runtime.Goexit in fn (t.FailNow, say) ends fn's vCPU as a return would.
func (e *Engine) Go(start int64, fn func(c *CPU)) *CPU {
	c := &CPU{}
	c.resume = coroutine(func(yield func(struct{}) bool) {
		c.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, drain := r.(engineAbort); !drain {
					e.abort(fmt.Errorf("vclock: vCPU %d panicked: %v", c.id, r))
				}
			}
			c.Done()
			e.mu.Lock()
			e.live--
			e.mu.Unlock()
			e.wg.Done()
		}()
		fn(c)
	})
	e.wg.Add(1)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.admitLocked(c, start)
	e.live++
	e.readyLocked(c)
	if !e.dispatching {
		e.dispatching = true
		go e.dispatch()
	}
	return c
}

// dispatch resumes ready coroutines in FIFO order, one at a time, until no
// Go-launched vCPU is live. It pauses while Hold is armed.
func (e *Engine) dispatch() {
	exited := false
	defer func() {
		if !exited {
			// A coroutine ended in runtime.Goexit, which resume re-raised
			// here. Its vCPU is done; carry on dispatching the others.
			go e.dispatch()
		}
	}()
	e.mu.Lock()
	for {
		for e.hold != nil || e.readyHead == len(e.ready) && e.live > 0 {
			e.turn.Wait()
		}
		if e.readyHead == len(e.ready) {
			e.dispatching = false
			e.mu.Unlock()
			exited = true
			return
		}
		c := e.ready[e.readyHead]
		e.ready[e.readyHead] = nil
		e.readyHead++
		e.mu.Unlock()
		c.resume()
		e.mu.Lock()
	}
}

// readyLocked queues Go-launched vCPU c for the dispatcher. Caller holds
// e.mu.
func (e *Engine) readyLocked(c *CPU) {
	if e.readyHead == len(e.ready) {
		e.ready, e.readyHead = e.ready[:0], 0
	} else if e.readyHead > 0 && len(e.ready) == cap(e.ready) {
		n := copy(e.ready, e.ready[e.readyHead:])
		clear(e.ready[n:])
		e.ready, e.readyHead = e.ready[:n], 0
	}
	e.ready = append(e.ready, c)
	e.turn.Signal()
}

// Hold arms a starting barrier: vCPUs launched by Go are admitted to the
// runnable heap immediately (so the min-clock gate orders everyone against
// them), but the dispatcher resumes none of the engine's Go-launched vCPUs
// until the returned release function is called. Launching a batch of
// workers under Hold makes the schedule independent of how far an early
// worker gets in real time before a later worker is registered. A
// Go-launched vCPU that arms Hold must release it before it next waits on
// the engine.
func (e *Engine) Hold() (release func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.hold == nil {
		e.hold = make(chan struct{})
	}
	ch := e.hold
	return func() {
		e.mu.Lock()
		if e.hold == ch {
			e.hold = nil
			e.turn.Signal()
		}
		e.mu.Unlock()
		close(ch)
	}
}

// Wait blocks until every vCPU launched with Go has finished (normally or by
// unwinding after an abort). Check Err afterwards for a workload panic.
func (e *Engine) Wait() { e.wg.Wait() }

// Err returns the error recorded for the first workload panic that aborted
// the run, or nil for a clean run.
func (e *Engine) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// engineAbort is the panic value used to unwind vCPUs after a workload
// panic aborted the run.
type engineAbort struct{ err error }

// abort records the first failure, then wakes every parked vCPU so each
// unwinds via engineAbort at its next scheduling point.
func (e *Engine) abort(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.abortLocked(err)
}

// abortLocked is abort with e.mu held.
func (e *Engine) abortLocked(err error) {
	// Only a running vCPU can panic, so if a solo grant exists the caller
	// is the solo vCPU itself and the revocation never spins.
	e.exitSoloLocked()
	if !e.aborted {
		e.aborted = true
		e.err = err
	}
	for _, c := range e.cpus {
		e.wakeLocked(c)
	}
}

// checkAbortLocked unwinds the calling vCPU when the run has been aborted.
// Caller holds e.mu and must release it via defer (the panic propagates).
func (e *Engine) checkAbortLocked() {
	if e.aborted {
		panic(engineAbort{e.err})
	}
}

// Makespan returns the maximum clock across all vCPUs (the virtual duration
// of the whole run). Call it after Wait; a vCPU's pending lazy charges are
// folded in.
func (e *Engine) Makespan() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	var m int64
	for _, c := range e.cpus {
		t := c.now + c.lazy
		if t > m {
			m = t
		}
	}
	return m
}

// wakeLocked wakes c if it is parked: a Go-launched vCPU is queued for the
// dispatcher once, a NewCPU vCPU gets a (buffered, lossy) token. Caller
// holds e.mu.
func (e *Engine) wakeLocked(c *CPU) {
	switch {
	case !c.waiting:
	case c.yield != nil:
		c.waiting = false
		e.readyLocked(c)
	default:
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
}

// applyChargeLocked commits a pure clock charge at c's current virtual
// slot, dilating Compute charges by the runnable/core ratio. Caller holds
// e.mu.
func (e *Engine) applyChargeLocked(c *CPU, d int64, compute bool) {
	if compute && e.cores > 0 {
		if r := len(e.heap); r > e.cores {
			d = d * int64(r) / int64(e.cores)
		}
	}
	c.now += d
	c.Advanced += d
	e.siftDown(c.hi)
}

// processRootLocked drives the schedule forward after any change to the
// runnable heap. It examines the vCPU at the heap root: a parked root that
// declared a lock intent or a pure clock charge is serviced inline — the
// lock is granted, the vCPU moves to the waiter queue, or the charge is
// applied, all at exactly the virtual instant the vCPU would have acted
// itself — which may promote a new root, so the loop cascades. A root
// without an intent is woken if parked. Servicing intents inline saves a
// park/wake round trip per contended acquisition: the acquirer parks once
// and wakes only when it actually owns the lock. Caller holds e.mu.
func (e *Engine) processRootLocked() {
	if e.aborted {
		return
	}
	for len(e.heap) > 0 {
		r := e.heap[0]
		l := r.pendingLock
		if l == nil {
			e.wakeLocked(r)
			return
		}
		if l.holder != nil {
			// Join the waiter queue at the vCPU's virtual slot. No wakeup:
			// after the handoff the cascade wakes it as the root.
			r.pendingLock = nil
			r.st = lockWait
			e.heapRemove(r)
			l.waiters = append(l.waiters, r)
			e.lockWaiters++
			continue
		}
		// Grant the free lock at the vCPU's virtual slot.
		r.pendingLock = nil
		if l.freeAt > r.now {
			l.contended++
			l.waitTime += l.freeAt - r.now
			r.now = l.freeAt
			e.siftDown(r.hi)
		}
		l.holder = r
		l.lastAcquire = r.now
		l.acquisitions++
		// The boost may have demoted r; keep cascading. r is woken once it
		// is the root again (see Acquire), never before.
	}
}

// sleepLocked parks the calling vCPU until signalled. Caller holds e.mu;
// the lock is held again on return. Unwinds (with e.mu held, released by the
// caller's deferred unlock) when the run has been aborted.
func (e *Engine) sleepLocked(c *CPU) {
	e.parkLocked(c)
	e.checkAbortLocked()
}

// parkLocked parks c until signalled, without sleepLocked's abort check:
// Done also drains aborted runs and must not panic. A Go-launched vCPU
// yields to the dispatcher, which resumes it once a wakeup has queued it.
// Caller holds e.mu; the lock is held again on return.
func (e *Engine) parkLocked(c *CPU) {
	c.waiting = true
	e.mu.Unlock()
	if c.yield != nil {
		c.yield(struct{}{})
	} else {
		<-c.wake
	}
	e.mu.Lock()
	c.waiting = false
}

// gateLocked blocks until c holds the global minimum clock. Caller holds
// e.mu; the lock is held on return.
//
// Before parking, the current minimum is signalled: the caller may have just
// changed the ordering (e.g. by folding lazy charges into its clock) without
// any other notification reaching the vCPU that now holds the minimum.
func (e *Engine) gateLocked(c *CPU) {
	for e.heap[0] != c {
		e.processRootLocked()
		if e.heap[0] == c {
			// Servicing parked intents promoted us to the root; do not
			// park — nobody is left to wake us.
			return
		}
		e.sleepLocked(c)
	}
}

// flushLazyLocked folds deferred charges into the clock, repositioning the
// vCPU in the runnable heap. The deferred work happened strictly before any
// interaction with shared state, so applying it before gating preserves
// causal order. Caller holds e.mu.
func (c *CPU) flushLazyLocked() {
	if d := c.takeLazy(); d != 0 {
		c.now += d
		c.Advanced += d
		if c.hi >= 0 {
			c.e.siftDown(c.hi)
		}
	}
}

// takeLazy removes and returns the deferred charges for folding into the
// clock at a gated operation. That operation is the vCPU's latest ordering
// point, so it also supersedes any elided one.
func (c *CPU) takeLazy() int64 {
	d := c.lazy
	c.lazy, c.mark = 0, -1
	return d
}

// ID returns the vCPU's stable identifier.
func (c *CPU) ID() int { return c.id }

// Now returns the vCPU's current virtual time including pending lazy
// charges — the vCPU's own observations (trace timestamps in particular)
// must be exact regardless of how its charges are batched for commit.
func (c *CPU) Now() int64 {
	if c.soloFast() {
		t := c.now + c.lazy
		c.soloEnd()
		return t
	}
	c.e.mu.Lock()
	defer c.e.mu.Unlock()
	return c.now + c.lazy
}

// AdvanceLazy charges d nanoseconds without synchronizing with the engine.
// Use it for private work (TLB hits, guest-internal costs) between shared
// operations; the charge is folded in at the next engine operation. Cheap:
// no locking, no scheduling.
func (c *CPU) AdvanceLazy(d int64) {
	if d < 0 {
		panic(fmt.Sprintf("vclock: negative lazy advance %d", d))
	}
	if c.e.eager {
		// Fused charging disabled (SetEagerCharges): gate immediately.
		c.Advance(d)
		return
	}
	c.lazy += d
}

// Order charges d nanoseconds at an ordering point: an Advance, or a Sync
// when d is 0. private reports that the gate would order only state private
// to c — a vCPU whose guest is bound to it (its locks owned by it, see
// Lock.Own) passes it for the legs no other vCPU can observe. A private
// point is elided: the charge is deferred like AdvanceLazy, so it never
// parks, and the point is remembered so the vCPU still departs exactly where
// the gated charge would have left it (see Done). Virtual time is the same
// either way.
func (c *CPU) Order(d int64, private bool) {
	switch {
	case d < 0:
		panic(fmt.Sprintf("vclock: negative ordered advance %d", d))
	case private:
		c.lazy += d
		c.mark = c.lazy
	case d == 0:
		c.Sync()
	default:
		c.Advance(d)
	}
}

// Advance charges d nanoseconds of virtual latency (hardware transition,
// device service time, …). Latency advances are never dilated by core
// oversubscription.
//
// Advance gates on the min-clock before committing the charge: workload code
// between engine operations therefore runs only in its vCPU's virtual-time
// slot.
func (c *CPU) Advance(d int64) {
	if d < 0 {
		panic(fmt.Sprintf("vclock: negative advance %d", d))
	}
	c.gates++
	if c.soloFast() {
		// Sole runnable vCPU: the gate is trivially satisfied and the
		// one-element heap needs no maintenance.
		d += c.takeLazy()
		c.now += d
		c.Advanced += d
		c.soloEnd()
		return
	}
	e := c.e
	e.mu.Lock()
	defer e.mu.Unlock()
	e.checkAbortLocked()
	c.flushLazyLocked()
	e.gateLocked(c)
	e.applyChargeLocked(c, d, false)
	e.processRootLocked()
	e.maybeEnterSoloLocked()
}

// Compute charges d nanoseconds of CPU-bound work. When more vCPUs are
// runnable than the engine's simulated core count, the charge is dilated
// proportionally, modeling timeslicing on an oversubscribed machine.
func (c *CPU) Compute(d int64) {
	if d < 0 {
		panic(fmt.Sprintf("vclock: negative compute %d", d))
	}
	c.gates++
	if c.soloFast() {
		// One runnable vCPU never exceeds the core budget (cores == 0
		// means unlimited), so the dilated and undilated charges agree.
		d += c.takeLazy()
		c.now += d
		c.Advanced += d
		c.soloEnd()
		return
	}
	e := c.e
	e.mu.Lock()
	defer e.mu.Unlock()
	e.checkAbortLocked()
	c.flushLazyLocked()
	e.gateLocked(c)
	e.applyChargeLocked(c, d, true)
	e.processRootLocked()
	e.maybeEnterSoloLocked()
}

// Sync blocks until the vCPU holds the minimum clock without advancing it.
// Use it to order a side-effecting operation (e.g. mutating shared simulator
// state) into the deterministic schedule. The mutation must complete before
// the vCPU's next engine operation.
func (c *CPU) Sync() {
	c.gates++
	if c.soloFast() {
		d := c.takeLazy()
		c.now += d
		c.Advanced += d
		c.soloEnd()
		return
	}
	e := c.e
	e.mu.Lock()
	defer e.mu.Unlock()
	e.checkAbortLocked()
	c.flushLazyLocked()
	e.gateLocked(c)
	e.processRootLocked()
	e.maybeEnterSoloLocked()
}

// Done removes the vCPU from scheduling. Idempotent. Safe to call while the
// engine is draining an aborted run.
func (c *CPU) Done() {
	e := c.e
	e.mu.Lock()
	defer e.mu.Unlock()
	if c.mark >= 0 && c.hi >= 0 && !e.aborted {
		// The vCPU elided ordering points after its last gated operation
		// (owned locks, private Orders), so its heap key lags the last of
		// them. The gated run would have stood at that point's key and
		// left from there, every vCPU behind it still counting it runnable
		// (Compute dilation reads the count). Fold the charges up to the
		// point into the key and leave only from the root, as that run
		// does. The wait must not panic (Done also drains aborted runs),
		// so it re-checks aborted instead of using sleepLocked.
		c.gates++
		d := c.mark
		c.lazy -= d
		c.mark = -1
		c.now += d
		c.Advanced += d
		e.siftDown(c.hi)
		for !e.aborted && e.heap[0] != c {
			e.processRootLocked()
			if e.heap[0] == c {
				break
			}
			e.parkLocked(c)
		}
	}
	// Revoke only now: while c was parked above, the last peer's Done may
	// have granted c the solo path as the sole runnable vCPU.
	if e.solo == c {
		e.exitSoloLocked()
	}
	c.flushLazyLocked()
	if c.hi >= 0 {
		e.heapRemove(c)
	}
	c.st = done
	e.processRootLocked()
	e.maybeEnterSoloLocked()
}

// Lock is a virtual mutex. Contention is charged in virtual time: a vCPU
// acquiring a lock held until time t resumes at t. All acquisitions and
// handoffs are deterministic (waiters are granted in (clock, id) order).
// While a vCPU holds a virtual lock, no other vCPU contending for it can run
// its critical section, so lock-protected shared structures need no separate
// Go-level synchronization.
//
// A lock can be owned by one vCPU (Own): then only that vCPU may take it,
// and its acquisitions and releases need no place in the global order.
//
// The zero value is unusable; create locks with Engine.NewLock.
type Lock struct {
	e    *Engine
	name string

	// owner, when non-nil, is the only vCPU allowed to take the lock.
	owner *CPU

	holder  *CPU // nil while free
	freeAt  int64
	waiters []*CPU

	lastAcquire int64

	// Statistics (read with Stats after the run).
	acquisitions int64
	contended    int64
	waitTime     int64
	heldTime     int64
}

// NewLock creates a named virtual lock managed by this engine.
func (e *Engine) NewLock(name string) *Lock {
	return &Lock{e: e, name: name}
}

// Name returns the lock's diagnostic name.
func (l *Lock) Name() string { return l.name }

// Own dedicates the lock to vCPU c: from now on only c may take it, and any
// other vCPU's Acquire aborts the run (see Engine.Err). The caller
// guarantees what that makes true — the state the lock protects is reachable
// from c alone — so c's acquisitions and releases need no place in the
// global order: they never park or move the heap, and they record the same
// statistics a gated acquisition would, at c's exact time. With still gates
// once before a body that may touch shared state; WithPrivate declares a
// body that cannot.
//
// The lock must be free with no waiters and must not have been released in
// c's future. Call Own from c's goroutine, or before c starts running.
func (l *Lock) Own(c *CPU) {
	e := l.e
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case c.e != e:
		panic("vclock: " + l.name + " owned by a vCPU of another engine")
	case l.owner != nil:
		panic("vclock: " + l.name + " is already owned")
	case l.holder != nil || len(l.waiters) > 0:
		panic("vclock: " + l.name + " owned while in use")
	case l.freeAt > c.now+c.lazy:
		panic("vclock: " + l.name + " owned before its last release")
	}
	l.owner = c
	e.owned = append(e.owned, l)
}

// Owner returns the vCPU the lock is dedicated to, or nil.
func (l *Lock) Owner() *CPU { return l.owner }

// LockStats is a snapshot of a virtual lock's contention counters.
type LockStats struct {
	Name         string
	Acquisitions int64
	Contended    int64 // acquisitions that had to wait
	WaitTime     int64 // total virtual ns spent waiting
	HeldTime     int64 // total virtual ns the lock was held
}

// Stats returns a snapshot of the lock's counters.
func (l *Lock) Stats() LockStats {
	l.e.mu.Lock()
	defer l.e.mu.Unlock()
	return LockStats{
		Name:         l.name,
		Acquisitions: l.acquisitions,
		Contended:    l.contended,
		WaitTime:     l.waitTime,
		HeldTime:     l.heldTime,
	}
}

// acquireOwned takes an owned lock for its owner at the owner's exact time
// (every pending charge folded in: the instant a gated Acquire issued now
// would take effect at). The lock is always free by then: only the owner
// takes it, and its clock never runs behind its own last release. Unless c
// holds the solo grant, the lock's fields change under e.mu, where Audit,
// Stats and a foreign Acquire read them.
func (l *Lock) acquireOwned(c *CPU) {
	if l.holder == c {
		panic("vclock: recursive acquisition of " + l.name)
	}
	if c.soloFast() {
		l.grantOwned(c, c.now+c.lazy)
		c.soloEnd()
	} else {
		l.e.mu.Lock()
		l.grantOwned(c, c.now+c.lazy)
		l.e.mu.Unlock()
	}
	c.mark = c.lazy
}

func (l *Lock) grantOwned(c *CPU, t int64) {
	l.holder = c
	l.lastAcquire = t
	l.acquisitions++
}

// releaseOwned drops an owned lock at the owner's exact time (see
// acquireOwned); no waiter can exist.
func (l *Lock) releaseOwned(c *CPU) {
	if l.holder != c {
		panic("vclock: release of " + l.name + " by non-holder")
	}
	if c.soloFast() {
		l.dropOwned(c.now + c.lazy)
		c.soloEnd()
	} else {
		l.e.mu.Lock()
		l.dropOwned(c.now + c.lazy)
		l.e.mu.Unlock()
	}
	c.mark = c.lazy
}

func (l *Lock) dropOwned(t int64) {
	l.heldTime += t - l.lastAcquire
	l.freeAt = t
	l.holder = nil
}

// Acquire takes the lock on behalf of c, advancing c's clock past any
// contention. Recursive acquisition panics.
//
// When c does not yet hold the minimum clock, Acquire does not park at the
// min-clock gate and then park a second time on the waiter queue: it records
// the intent on the vCPU and parks once. The vCPU that advances the clock
// past c's slot applies the intent inline (see processRootLocked) at exactly
// the virtual instant c would have acted, and c wakes only when it owns the
// lock.
//
// The owner of an owned lock takes it without gating (see Own); any other
// vCPU's Acquire of it aborts the run.
func (l *Lock) Acquire(c *CPU) {
	if l.owner == c {
		l.acquireOwned(c)
		return
	}
	c.gates++
	if l.owner == nil && c.soloFast() {
		// Sole runnable vCPU with no lock waiters: any held lock is held
		// either by c itself (recursion error) or by a vCPU that already
		// left the schedule — both are decided without the engine.
		if l.holder != nil {
			c.soloEnd()
			if l.holder == c {
				panic("vclock: recursive acquisition of " + l.name)
			}
			// Held by a no-longer-runnable vCPU: fall through to the
			// gated path, which parks exactly as the reference engine
			// would.
		} else {
			d := c.takeLazy()
			c.now += d
			c.Advanced += d
			if l.freeAt > c.now {
				l.contended++
				l.waitTime += l.freeAt - c.now
				c.now = l.freeAt
			}
			l.holder = c
			l.lastAcquire = c.now
			l.acquisitions++
			c.soloEnd()
			return
		}
	}
	e := l.e
	e.mu.Lock()
	defer e.mu.Unlock()
	e.checkAbortLocked()
	if l.owner != nil {
		err := fmt.Errorf("vclock: vCPU %d acquired %s, owned by vCPU %d", c.id, l.name, l.owner.id)
		e.abortLocked(err)
		panic(engineAbort{err})
	}
	if l.holder == c {
		panic("vclock: recursive acquisition of " + l.name)
	}
	if e.solo == c {
		// Solo fast path fell back (lock held by a finished vCPU): the
		// grant is useless while we park as a waiter.
		e.exitSoloLocked()
	}
	c.flushLazyLocked()
	if e.heap[0] == c {
		// Already at our virtual slot: decide inline.
		if l.holder != nil {
			// Park until a release hands the lock to us.
			c.st = lockWait
			e.heapRemove(c)
			l.waiters = append(l.waiters, c)
			e.lockWaiters++
			e.processRootLocked()
			for l.holder != c {
				e.sleepLocked(c)
			}
			// Handoff complete: Release already updated our clock and the
			// lock bookkeeping.
			e.gateLocked(c)
			e.maybeEnterSoloLocked()
			return
		}
		if l.freeAt > c.now {
			// Cannot happen under conservative ordering (the releaser held
			// the minimum clock), but stay safe.
			l.contended++
			l.waitTime += l.freeAt - c.now
			c.now = l.freeAt
			e.siftDown(c.hi)
		}
		l.holder = c
		l.lastAcquire = c.now
		l.acquisitions++
		e.processRootLocked()
		e.maybeEnterSoloLocked()
		return
	}
	// Not at our slot yet: declare the intent and park until the handoff
	// (or inline grant) makes us the holder.
	c.pendingLock = l
	e.processRootLocked()
	for l.holder != c {
		e.sleepLocked(c)
	}
	// A grant that boosted our clock to the previous holder's release
	// time may have demoted us below vCPUs still acting at earlier slots.
	// The critical section runs only from our slot: they may read the
	// state this lock guards at their own gates (EnsureBacking probes
	// EPT01 after a Sync), so it must not overlap them in real time.
	e.gateLocked(c)
	e.maybeEnterSoloLocked()
}

// Release drops the lock, recording held time, and deterministically hands it
// to the waiting vCPU with the smallest (clock, id), if any. The recipient's
// clock is advanced to the release time, charging the wait as contention.
//
// Release gates on the min-clock: every vCPU whose clock is behind the
// release time has either advanced past it or joined the waiter queue by the
// time the handoff is decided, so the queue contents — and therefore the
// handoff order — are a pure function of virtual time. The owner of an
// owned lock releases it without gating (see Own).
func (l *Lock) Release(c *CPU) {
	if l.owner == c {
		l.releaseOwned(c)
		return
	}
	c.gates++
	if c.soloFast() {
		if l.holder != c {
			c.soloEnd()
			panic("vclock: release of " + l.name + " by non-holder")
		}
		// No waiter can exist (solo mode requires an empty engine-wide
		// waiter count, and no other vCPU ran since it was granted).
		d := c.takeLazy()
		c.now += d
		c.Advanced += d
		l.heldTime += c.now - l.lastAcquire
		l.freeAt = c.now
		l.holder = nil
		c.soloEnd()
		return
	}
	e := l.e
	e.mu.Lock()
	defer e.mu.Unlock()
	if l.holder != c {
		panic("vclock: release of " + l.name + " by non-holder")
	}
	c.flushLazyLocked()
	e.gateLocked(c)
	l.heldTime += c.now - l.lastAcquire
	l.freeAt = c.now
	if len(l.waiters) == 0 {
		l.holder = nil
		e.processRootLocked()
		e.maybeEnterSoloLocked()
		return
	}
	// Deterministic handoff: smallest (now, id) waiter wins.
	best := 0
	for i, w := range l.waiters[1:] {
		if cpuLess(w, l.waiters[best]) {
			best = i + 1
		}
	}
	w := l.waiters[best]
	l.waiters = append(l.waiters[:best], l.waiters[best+1:]...)
	e.lockWaiters--
	l.contended++
	if w.now < l.freeAt {
		l.waitTime += l.freeAt - w.now
		w.now = l.freeAt
	}
	l.holder = w
	l.lastAcquire = w.now
	l.acquisitions++
	w.st = running
	e.heapPush(w)
	// The recipient is woken when it reaches the root, not now: its
	// critical section starts at its slot (see Acquire).
	e.processRootLocked()
}

// With runs fn while holding the lock, charging hold nanoseconds of work
// inside the critical section before releasing.
//
// On a lock c owns, the acquisition and release do not gate, but a body may
// touch shared state (a frame allocator, say), so With gates once before a
// non-nil fn — at the instant the gated Acquire would have. A body that
// touches only state private to the owner is declared with WithPrivate.
func (l *Lock) With(c *CPU, hold int64, fn func()) {
	if fn != nil && l.owner == c {
		c.Sync()
	}
	l.WithPrivate(c, hold, fn)
}

// WithPrivate is With for a body that touches only state private to the
// lock's owner: on a lock c owns, the whole critical section runs without a
// gate. On any other lock it is exactly With.
func (l *Lock) WithPrivate(c *CPU, hold int64, fn func()) {
	l.Acquire(c)
	if fn != nil {
		fn()
	}
	if hold > 0 {
		c.AdvanceLazy(hold)
	}
	l.Release(c)
}
