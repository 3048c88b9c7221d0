// Package trace provides a bounded, concurrency-safe event trace for the
// simulator: world switches, faults, hypercalls, syscalls, interrupts, and
// I/O kicks are recorded with their virtual timestamps so a run's
// choreography can be inspected event by event (pvmctl trace).
//
// Recording is designed to stay off the simulation's critical path: events
// carry typed payloads (a form id plus a few scalar arguments) instead of
// pre-formatted strings, and are appended to per-vCPU rings so concurrent
// vCPUs never contend on a shared lock. Reading merges the rings into a
// single (time, cpu)-ordered listing; only Events, Filter and Format format
// the events they return, and EachRaw walks the ordered listing without
// formatting or copying it. Every cost scales with the events recorded, not
// with the rings' capacity.
package trace

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies a trace event.
type Kind uint8

const (
	KindSwitch Kind = iota
	KindFault
	KindShadowFix
	KindPTEWrite
	KindHypercall
	KindSyscall
	KindPrivOp
	KindInterrupt
	KindIO
	KindFlush
	KindDirty
	numKinds
)

var kindNames = [numKinds]string{
	"switch", "fault", "shadow-fix", "pte-write", "hypercall",
	"syscall", "privop", "interrupt", "io", "flush", "dirty",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Form selects the detail template of a typed event. Formatting happens when
// events are read out (Events, Filter, Format); the recording path never
// calls fmt.
type Form uint8

const (
	// FormRaw events carry a pre-formatted Detail string (Record).
	FormRaw           Form = iota
	FormVMExit             // "<label> vm-exit → L0"
	FormNestedTrip         // "<label> L2→L0→L1 nested trip"
	FormSwitcherExit       // "<label> switcher exit → PVM"
	FormGuestFault         // "<label> pid=<pid> guest fault va=<A>"
	FormSwitcherFault      // "<label> pid=<pid> guest fault va=<A> (switcher-classified)"
	FormInternalFault      // "<label> pid=<pid> guest-internal fault va=<A>"
	FormFlush              // "<label> pid=<pid> pages=<A>"
	FormSyscall            // "<label> pid=<pid> body=<A>ns"
	FormPrivOp             // "<label> pid=<pid> <Str>"
	FormInterrupt          // "<label> pid=<pid> vector=<A>"
	FormIO                 // "<label> pid=<pid> <Str> n=<A> bytes=<B>"
	FormDirtyStart         // "<label> pid=<pid> dirty-log armed"
	FormDirtyCollect       // "<label> pid=<pid> dirty-log collect pages=<A>"
	FormDirtyStop          // "<label> pid=<pid> dirty-log stopped"
)

// Event is one recorded simulator event. Typed events (Form != FormRaw)
// carry their arguments in Label/PID/A/B/Str; Detail is filled in on the
// copies Events and Filter return.
type Event struct {
	T      int64 // virtual ns at which the event was recorded
	CPU    int   // vCPU id
	Kind   Kind
	Form   Form
	Label  string // guest name
	PID    int
	A      uint64 // va / pages / body / vector / n, per Form
	B      int64  // bytes (FormIO)
	Str    string // privop name / device name
	Detail string
}

// format renders the typed payload exactly as the historical eager
// fmt.Sprintf call sites did.
func (e *Event) format() string {
	switch e.Form {
	case FormVMExit:
		return e.Label + " vm-exit → L0"
	case FormNestedTrip:
		return e.Label + " L2→L0→L1 nested trip"
	case FormSwitcherExit:
		return e.Label + " switcher exit → PVM"
	case FormGuestFault:
		return fmt.Sprintf("%s pid=%d guest fault va=%#x", e.Label, e.PID, e.A)
	case FormSwitcherFault:
		return fmt.Sprintf("%s pid=%d guest fault va=%#x (switcher-classified)", e.Label, e.PID, e.A)
	case FormInternalFault:
		return fmt.Sprintf("%s pid=%d guest-internal fault va=%#x", e.Label, e.PID, e.A)
	case FormFlush:
		return fmt.Sprintf("%s pid=%d pages=%d", e.Label, e.PID, e.A)
	case FormSyscall:
		return fmt.Sprintf("%s pid=%d body=%dns", e.Label, e.PID, e.A)
	case FormPrivOp:
		return fmt.Sprintf("%s pid=%d %s", e.Label, e.PID, e.Str)
	case FormInterrupt:
		return fmt.Sprintf("%s pid=%d vector=%d", e.Label, e.PID, e.A)
	case FormIO:
		return fmt.Sprintf("%s pid=%d %s n=%d bytes=%d", e.Label, e.PID, e.Str, e.A, e.B)
	case FormDirtyStart:
		return fmt.Sprintf("%s pid=%d dirty-log armed", e.Label, e.PID)
	case FormDirtyCollect:
		return fmt.Sprintf("%s pid=%d dirty-log collect pages=%d", e.Label, e.PID, e.A)
	case FormDirtyStop:
		return fmt.Sprintf("%s pid=%d dirty-log stopped", e.Label, e.PID)
	}
	return e.Detail
}

func (e Event) String() string {
	return fmt.Sprintf("%12d ns  cpu%-3d %-10s %s", e.T, e.CPU, e.Kind, e.format())
}

// ring is one vCPU's bounded event buffer. A vCPU records from a single
// goroutine, but the ring keeps its own mutex so the Buffer API stays safe
// for arbitrary callers (and for snapshots taken concurrently).
type ring struct {
	mu      sync.Mutex
	ev      []Event // grows by append up to capacity, then wraps
	next    int     // once full: the oldest slot, overwritten next
	dropped int64
}

func (r *ring) add(ev Event, capacity int) {
	r.mu.Lock()
	if n := len(r.ev); n < capacity {
		if n == cap(r.ev) {
			// Double, but never past capacity: a full ring holds
			// exactly capacity events.
			r.ev = append(make([]Event, 0, min(max(2*n, 16), capacity)), r.ev...)
		}
		r.ev = append(r.ev, ev)
	} else {
		r.ev[r.next] = ev
		r.next = (r.next + 1) % n
		r.dropped++
	}
	r.mu.Unlock()
}

// size returns the number of live events.
func (r *ring) size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ev)
}

// appendTo copies the ring's live events, oldest first, onto dst. Until the
// ring first wraps next is 0, so this is its insertion order.
func (r *ring) appendTo(dst []Event) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	dst = append(dst, r.ev[r.next:]...)
	return append(dst, r.ev[:r.next]...)
}

// Buffer is a bounded trace: each recording vCPU gets its own ring of up to
// capacity events (so a run with one vCPU retains exactly the same window a
// single shared ring would). When a ring is full its oldest events are
// overwritten and counted as dropped. A ring grows with the events recorded
// on its vCPU, doubling its storage until it reaches capacity; only then
// does it wrap. Recording an event never formats, and allocates only when a
// ring below capacity doubles.
type Buffer struct {
	capacity int

	// rings maps vCPU id -> ring. Lookups take the read lock; the write
	// lock is only needed the first time a vCPU records.
	mu    sync.RWMutex
	rings map[int]*ring

	// gen counts Adds; snapshots are invalidated when it moves.
	gen atomic.Uint64

	// snap is the cached ordered listing (raw: Detail is not formatted),
	// rebuilt at most once per recorded event (see snapshot). rebuilds
	// counts how many times the copy+sort pass actually ran.
	snapMu   sync.Mutex
	snap     []Event
	snapGen  uint64
	snapOK   bool
	rebuilds int64
}

// NewBuffer creates a trace buffer holding up to capacity events per vCPU
// (capacity <= 0 panics).
func NewBuffer(capacity int) *Buffer {
	if capacity <= 0 {
		panic("trace: capacity must be positive")
	}
	return &Buffer{capacity: capacity, rings: make(map[int]*ring)}
}

func (b *Buffer) ringFor(cpu int) *ring {
	b.mu.RLock()
	r := b.rings[cpu]
	b.mu.RUnlock()
	if r != nil {
		return r
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if r = b.rings[cpu]; r == nil {
		r = &ring{}
		b.rings[cpu] = r
	}
	return r
}

// Add records one event.
func (b *Buffer) Add(ev Event) {
	b.ringFor(ev.CPU).add(ev, b.capacity)
	b.gen.Add(1)
}

// Record is a convenience Add that formats eagerly (FormRaw). The simulator
// hot paths use typed events instead; this remains for ad-hoc callers.
func (b *Buffer) Record(t int64, cpu int, kind Kind, format string, args ...any) {
	b.Add(Event{T: t, CPU: cpu, Kind: kind, Detail: fmt.Sprintf(format, args...)})
}

// Dropped returns how many events were overwritten across all vCPU rings.
func (b *Buffer) Dropped() int64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var d int64
	for _, r := range b.rings {
		r.mu.Lock()
		d += r.dropped
		r.mu.Unlock()
	}
	return d
}

// Len returns the number of retained events across all vCPU rings.
func (b *Buffer) Len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var n int
	for _, r := range b.rings {
		n += r.size()
	}
	return n
}

// snapshot returns the retained events sorted by (virtual time, cpu),
// rebuilding only when events were recorded since the last call. Detail is
// left as recorded: typed events are formatted by the readers that return
// them. Callers must not mutate the result.
func (b *Buffer) snapshot() []Event {
	b.snapMu.Lock()
	defer b.snapMu.Unlock()
	gen := b.gen.Load()
	if b.snapOK && gen == b.snapGen {
		return b.snap
	}
	b.mu.RLock()
	cpus := make([]int, 0, len(b.rings))
	for cpu := range b.rings {
		cpus = append(cpus, cpu)
	}
	slices.Sort(cpus)
	var n int
	for _, cpu := range cpus {
		n += b.rings[cpu].size()
	}
	out := make([]Event, 0, n)
	for _, cpu := range cpus {
		out = b.rings[cpu].appendTo(out)
	}
	b.mu.RUnlock()
	// Stable sort keyed on (T, CPU): per-ring insertion order — which is
	// each vCPU's own recording order — breaks exact (T, CPU) ties, the
	// same order the historical single-ring implementation produced.
	slices.SortStableFunc(out, func(x, y Event) int {
		if c := cmp.Compare(x.T, y.T); c != 0 {
			return c
		}
		return cmp.Compare(x.CPU, y.CPU)
	})
	b.snap = out
	b.snapGen = gen
	b.snapOK = true
	b.rebuilds++
	return out
}

// Events returns the retained events sorted by (virtual time, cpu), with
// Detail formatted.
func (b *Buffer) Events() []Event {
	out := slices.Clone(b.snapshot())
	for i := range out {
		out[i].Detail = out[i].format()
	}
	return out
}

// EachRaw calls fn for every retained event in Events order, without
// copying the listing or formatting Detail (typed events keep only their
// operands). fn must not mutate or retain e.
func (b *Buffer) EachRaw(fn func(e *Event)) {
	snap := b.snapshot()
	for i := range snap {
		fn(&snap[i])
	}
}

// Filter returns the retained events of one kind, in time order. The sorted
// snapshot is reused across Filter/CountByKind/Format calls until the next
// recorded event invalidates it.
func (b *Buffer) Filter(kind Kind) []Event {
	var out []Event
	for _, ev := range b.snapshot() {
		if ev.Kind == kind {
			ev.Detail = ev.format()
			out = append(out, ev)
		}
	}
	return out
}

// CountByKind tallies retained events per kind.
func (b *Buffer) CountByKind() map[Kind]int {
	out := map[Kind]int{}
	for _, ev := range b.snapshot() {
		out[ev.Kind]++
	}
	return out
}

// Format renders up to limit events (0 = all) as a listing.
func (b *Buffer) Format(limit int) string {
	evs := b.snapshot()
	if limit > 0 && len(evs) > limit {
		evs = evs[:limit]
	}
	var sb strings.Builder
	for _, ev := range evs {
		sb.WriteString(ev.String())
		sb.WriteByte('\n')
	}
	if d := b.Dropped(); d > 0 {
		fmt.Fprintf(&sb, "(%d events dropped)\n", d)
	}
	return sb.String()
}
