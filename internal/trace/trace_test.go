package trace

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestAddAndOrder(t *testing.T) {
	b := NewBuffer(16)
	b.Record(30, 1, KindFault, "late")
	b.Record(10, 0, KindSwitch, "early")
	b.Record(30, 0, KindSyscall, "tie-lower-cpu")
	evs := b.Events()
	if len(evs) != 3 {
		t.Fatalf("len = %d", len(evs))
	}
	if evs[0].Detail != "early" || evs[1].Detail != "tie-lower-cpu" || evs[2].Detail != "late" {
		t.Errorf("order: %v", evs)
	}
}

func TestRingOverwrite(t *testing.T) {
	b := NewBuffer(4)
	for i := 0; i < 10; i++ {
		b.Record(int64(i), 0, KindSwitch, "e%d", i)
	}
	if b.Len() != 4 {
		t.Fatalf("len = %d, want 4", b.Len())
	}
	if b.Dropped() != 6 {
		t.Errorf("dropped = %d, want 6", b.Dropped())
	}
	evs := b.Events()
	if evs[0].Detail != "e6" || evs[3].Detail != "e9" {
		t.Errorf("retained window wrong: %v", evs)
	}
}

func TestFilterAndCount(t *testing.T) {
	b := NewBuffer(16)
	b.Record(1, 0, KindFault, "f1")
	b.Record(2, 0, KindSwitch, "s1")
	b.Record(3, 0, KindFault, "f2")
	if got := len(b.Filter(KindFault)); got != 2 {
		t.Errorf("faults = %d, want 2", got)
	}
	counts := b.CountByKind()
	if counts[KindFault] != 2 || counts[KindSwitch] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

func TestFormat(t *testing.T) {
	b := NewBuffer(2)
	b.Record(5, 1, KindHypercall, "iret")
	b.Record(6, 1, KindIO, "blk")
	b.Record(7, 1, KindIO, "blk2") // overwrites
	out := b.Format(0)
	if !strings.Contains(out, "hypercall") && !strings.Contains(out, "io") {
		t.Errorf("format output:\n%s", out)
	}
	if !strings.Contains(out, "dropped") {
		t.Error("dropped note missing")
	}
	if lim := b.Format(1); strings.Count(lim, "\n") > 2 {
		t.Errorf("limit not applied:\n%s", lim)
	}
}

// TestConcurrentAdd records from eight vCPUs at once, growing their rings,
// while a reader takes snapshots.
func TestConcurrentAdd(t *testing.T) {
	b := NewBuffer(1024)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				b.Record(int64(k), id, KindSwitch, "x")
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			n := 0
			b.EachRaw(func(*Event) { n++ })
			if n > 800 {
				t.Errorf("snapshot holds %d events, more than were recorded", n)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if b.Len() != 800 {
		t.Errorf("len = %d, want 800", b.Len())
	}
	if n := len(b.Events()); n != 800 {
		t.Errorf("events = %d, want 800", n)
	}
}

// TestSnapshotReuse pins the satellite fix: Filter/CountByKind/Format reuse
// one sorted snapshot instead of re-sorting the rings on every call.
func TestSnapshotReuse(t *testing.T) {
	b := NewBuffer(64)
	b.Record(3, 0, KindFault, "f")
	b.Record(1, 1, KindSwitch, "s")
	for i := 0; i < 10; i++ {
		b.Filter(KindFault)
		b.CountByKind()
		b.Format(0)
		b.Events()
		b.EachRaw(func(*Event) {})
	}
	if b.rebuilds != 1 {
		t.Fatalf("rebuilds = %d after repeated queries, want 1", b.rebuilds)
	}
	b.Record(2, 0, KindFault, "f2")
	if got := len(b.Filter(KindFault)); got != 2 {
		t.Fatalf("faults after invalidation = %d, want 2", got)
	}
	if b.rebuilds != 2 {
		t.Fatalf("rebuilds = %d after one new event, want 2", b.rebuilds)
	}
}

// TestTypedFormatting checks every deferred-format template against the
// eager fmt.Sprintf string it replaced.
func TestTypedFormatting(t *testing.T) {
	cases := []struct {
		ev   Event
		want string
	}{
		{Event{Form: FormVMExit, Label: "vm0"}, "vm0 vm-exit → L0"},
		{Event{Form: FormNestedTrip, Label: "vm0"}, "vm0 L2→L0→L1 nested trip"},
		{Event{Form: FormSwitcherExit, Label: "vm0"}, "vm0 switcher exit → PVM"},
		{Event{Form: FormGuestFault, Label: "vm0", PID: 3, A: 0x7f001000}, "vm0 pid=3 guest fault va=0x7f001000"},
		{Event{Form: FormSwitcherFault, Label: "vm0", PID: 3, A: 0x1000}, "vm0 pid=3 guest fault va=0x1000 (switcher-classified)"},
		{Event{Form: FormInternalFault, Label: "vm0", PID: 3, A: 0x2000}, "vm0 pid=3 guest-internal fault va=0x2000"},
		{Event{Form: FormFlush, Label: "vm0", PID: 3, A: 17}, "vm0 pid=3 pages=17"},
		{Event{Form: FormSyscall, Label: "vm0", PID: 3, A: 480}, "vm0 pid=3 body=480ns"},
		{Event{Form: FormPrivOp, Label: "vm0", PID: 3, Str: "cr-write"}, "vm0 pid=3 cr-write"},
		{Event{Form: FormInterrupt, Label: "vm0", PID: 3, A: 32}, "vm0 pid=3 vector=32"},
		{Event{Form: FormIO, Label: "vm0", PID: 3, Str: "blk", A: 2, B: 8192}, "vm0 pid=3 blk n=2 bytes=8192"},
	}
	b := NewBuffer(len(cases))
	for i, c := range cases {
		ev := c.ev
		ev.T = int64(i)
		b.Add(ev)
	}
	evs := b.Events()
	for i, c := range cases {
		if evs[i].Detail != c.want {
			t.Errorf("form %d: detail = %q, want %q", c.ev.Form, evs[i].Detail, c.want)
		}
	}
	b.EachRaw(func(e *Event) {
		if e.Detail != "" {
			t.Errorf("form %d: EachRaw formatted the event: %q", e.Form, e.Detail)
		}
	})
}

// TestPerCPURings checks that the per-vCPU rings merge into the same
// (T, CPU)-ordered listing a single shared ring produced, and that each
// vCPU gets the full retention window.
func TestPerCPURings(t *testing.T) {
	b := NewBuffer(4)
	// CPU 1 overflows its own ring; CPU 0's window is unaffected.
	for i := 0; i < 6; i++ {
		b.Record(int64(10+i), 1, KindSwitch, "c1-%d", i)
	}
	b.Record(5, 0, KindFault, "c0-early")
	b.Record(12, 0, KindFault, "c0-mid")
	if b.Len() != 6 { // 4 retained on cpu1 + 2 on cpu0
		t.Fatalf("len = %d, want 6", b.Len())
	}
	if b.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", b.Dropped())
	}
	evs := b.Events()
	want := []string{"c0-early", "c0-mid", "c1-2", "c1-3", "c1-4", "c1-5"}
	for i, w := range want {
		if evs[i].Detail != w {
			t.Fatalf("evs[%d] = %q, want %q (all: %v)", i, evs[i].Detail, w, evs)
		}
	}
}

func TestKindNames(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "" {
			t.Errorf("kind %d unnamed", k)
		}
	}
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBuffer(0) did not panic")
		}
	}()
	NewBuffer(0)
}

// reference is the retention model of rings allocated at full capacity:
// per vCPU the newest capacity events, concatenated in cpu order and
// stable-sorted by (T, CPU), plus the count of older events dropped.
func reference(perCPU [][]Event, capacity int) ([]Event, int64) {
	var out []Event
	var dropped int64
	for _, evs := range perCPU {
		if len(evs) > capacity {
			dropped += int64(len(evs) - capacity)
			evs = evs[len(evs)-capacity:]
		}
		out = append(out, evs...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].T != out[j].T {
			return out[i].T < out[j].T
		}
		return out[i].CPU < out[j].CPU
	})
	return out, dropped
}

// checkAgainst compares b's retained events, in both the Events and the
// EachRaw order, and the drop count with the reference model of what was
// added to it. Events carry their insertion index in A.
func checkAgainst(t *testing.T, name string, b *Buffer, perCPU [][]Event, capacity int) {
	t.Helper()
	want, dropped := reference(perCPU, capacity)
	if got := b.Dropped(); got != dropped {
		t.Fatalf("%s: dropped = %d, want %d", name, got, dropped)
	}
	if got := b.Len(); got != len(want) {
		t.Fatalf("%s: len = %d, want %d", name, got, len(want))
	}
	var raw []Event
	b.EachRaw(func(e *Event) { raw = append(raw, *e) })
	for reader, evs := range map[string][]Event{"Events": b.Events(), "EachRaw": raw} {
		if len(evs) != len(want) {
			t.Fatalf("%s: %s returned %d events, want %d", name, reader, len(evs), len(want))
		}
		for i, w := range want {
			if evs[i].T != w.T || evs[i].CPU != w.CPU || evs[i].A != w.A {
				t.Fatalf("%s: %s[%d] = (T %d, cpu %d, #%d), want (T %d, cpu %d, #%d)",
					name, reader, i, evs[i].T, evs[i].CPU, evs[i].A, w.T, w.CPU, w.A)
			}
		}
	}
}

// TestGrowThenWrap checks that a ring growing on demand retains the same
// window, in the same order, with the same drop count as a ring allocated at
// full capacity, below, at and past capacity.
func TestGrowThenWrap(t *testing.T) {
	for _, capacity := range []int{4, 1 << 15} {
		for _, n := range []int{1, capacity - 1, capacity, capacity + 1, 2*capacity + 3} {
			b := NewBuffer(capacity)
			perCPU := make([][]Event, 2)
			add := func(ev Event) {
				ev.A = uint64(len(perCPU[0]) + len(perCPU[1]))
				b.Add(ev)
				perCPU[ev.CPU] = append(perCPU[ev.CPU], ev)
			}
			for i := 0; i < n; i++ {
				add(Event{T: int64(i), CPU: 0, Kind: KindSwitch})
				if i%3 == 0 {
					add(Event{T: int64(i), CPU: 1, Kind: KindFault})
				}
			}
			checkAgainst(t, fmt.Sprintf("capacity %d, %d events", capacity, n), b, perCPU, capacity)
		}
	}
}

// TestOrderMatchesReference checks random interleaved multi-vCPU inputs,
// rich in equal-T ties within and across vCPUs, against the reference
// model. Even trials record each vCPU's events in time order, as the
// simulator does; odd trials record them out of order.
func TestOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		capacity := 1 + rng.Intn(40)
		cpus := 1 + rng.Intn(5)
		b := NewBuffer(capacity)
		perCPU := make([][]Event, cpus)
		clock := make([]int64, cpus)
		for i, n := 0, rng.Intn(200); i < n; i++ {
			cpu := rng.Intn(cpus)
			clock[cpu] += int64(rng.Intn(3))
			ev := Event{T: clock[cpu], CPU: cpu, A: uint64(i)}
			if trial%2 == 1 {
				ev.T = int64(rng.Intn(30))
			}
			b.Add(ev)
			perCPU[cpu] = append(perCPU[cpu], ev)
		}
		checkAgainst(t, fmt.Sprintf("trial %d", trial), b, perCPU, capacity)
	}
}

// TestAllocProportionalToEvents checks that a large-capacity buffer costs
// memory in proportion to the events recorded: ten events in a 32k-event
// ring, then an ordered walk over them, must not allocate the ring's
// capacity (3 MiB of Events).
func TestAllocProportionalToEvents(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b := NewBuffer(1 << 15)
	for i := 0; i < 10; i++ {
		b.Add(Event{T: int64(i), CPU: i % 2, Kind: KindFault, Form: FormGuestFault, Label: "vm0", A: uint64(i)})
	}
	n := 0
	b.EachRaw(func(*Event) { n++ })
	runtime.ReadMemStats(&after)
	if n != 10 {
		t.Fatalf("walked %d events, want 10", n)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("10 events allocated %d bytes, want O(events) (< 64 KiB)", got)
	}
	if allocs := testing.AllocsPerRun(10, func() { b.EachRaw(func(*Event) {}) }); allocs != 0 {
		t.Fatalf("EachRaw over a cached snapshot allocated %.0f times, want 0", allocs)
	}
}
