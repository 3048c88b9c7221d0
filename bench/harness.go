package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/backend"
	"repro/internal/check"
	"repro/internal/guest"
	"repro/internal/metrics"
	"repro/internal/pagetable"
	"repro/internal/vclock"
)

// rng is a splitmix64 sequence: its output for a seed is fixed forever
// (unlike math/rand's streams), so a seed names the same inputs on every
// commit.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// shuffle permutes n elements in place through swap.
func (r *rng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}

// logStrata returns n sizes spread log-uniformly over [lo, hi], one drawn
// from each of n equal strata, in ascending order. Stratifying keeps every
// seed's size mix the same while the sizes themselves vary with the seed,
// so a seed changes the inputs but not how much work they are.
func logStrata(r *rng, n, lo, hi int) []int {
	out := make([]int, n)
	for i := range out {
		u := (float64(i) + r.float()) / float64(n)
		out[i] = int(math.Round(float64(lo) * math.Pow(float64(hi)/float64(lo), u)))
	}
	return out
}

// evenShare reports whether item i of a sequence is among pct percent of
// its items spread evenly along it, so that any stretch of the sequence
// holds the share.
func evenShare(i, pct int) bool { return (i+1)*pct/100 > i*pct/100 }

// backendChoice is one deployment configuration; together the choices span
// all five MMU strategies (ept, spt, pvm shadow, nested ept, pvm direct
// paging) on bare metal and nested.
type backendChoice struct {
	name   string
	cfg    backend.Config
	direct bool // Xen-style direct paging instead of PVM shadow paging
}

var backends = []backendChoice{
	{"ept-bm", backend.KVMEPTBM, false},
	{"spt-bm", backend.KVMSPTBM, false},
	{"pvm-bm", backend.PVMBM, false},
	{"pvm-direct-bm", backend.PVMBM, true},
	{"ept-nst", backend.KVMEPTNST, false},
	{"spt-nst", backend.SPTEPTNST, false},
	{"pvm-nst", backend.PVMNST, false},
	{"pvm-direct-nst", backend.PVMNST, true},
}

// opCtx carries one op's tracing and accounting. Several vCPU goroutines
// of one op may use it at once; they only read its fields, and the tracer
// and acc lock.
type opCtx struct {
	tr     *tracer   // nil when untraced
	acc    *layerAcc // per-layer counts
	h      hash.Hash64
	op     int32
	parent int32 // the span guest calls nest under

	// check is host time spent verifying the op (audits, digests), which
	// the op's latency excludes. Written only by the benchmark goroutine or
	// by a solo vCPU the benchmark goroutine is waiting for.
	check time.Duration

	ref *refKernel // sampled between ops; nil when traced
}

// span opens a span for a call the benchmark goroutine makes, returning 0
// when untraced.
func (c *opCtx) span(name string) int32 {
	if c.tr == nil {
		return 0
	}
	return c.tr.begin(name, c.op, c.parent)
}

// endSpan closes a span opened by span.
func (c *opCtx) endSpan(id int32) {
	if id != 0 {
		c.tr.end(id, 0, 0)
	}
}

// verify runs fn as verification: its host time is excluded from the op.
func (c *opCtx) verify(fn func() error) error {
	t := time.Now()
	err := fn()
	c.check += time.Since(t)
	return err
}

// refBreak samples the reference kernel between ops if a sample is due.
func (c *opCtx) refBreak() {
	if c.ref != nil {
		c.ref.sampleIfDue()
	}
}

// fold mixes words into the pass digest.
func (c *opCtx) fold(words ...uint64) {
	var b [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(b[:], w)
		c.h.Write(b[:])
	}
}

// foldObservation mixes a finished System's check.Capture into the pass
// digest: every field the check oracle compares (SoloGrants and
// ParallelGrants are informational there, and here).
func (c *opCtx) foldObservation(o check.Observation) {
	c.fold(uint64(o.Makespan), uint64(o.Events), uint64(o.Dropped), o.Digest,
		uint64(o.DirtyPages), o.DirtyDigest, uint64(len(o.Clocks)))
	for _, t := range o.Clocks {
		c.fold(uint64(t))
	}
	// fmt prints map keys sorted, so the rendering is deterministic.
	fmt.Fprintf(c.h, "%+v", o.Metrics)
}

// newSystem builds a System for b with the paper's default options and the
// given simulated core count (0: unlimited).
func (c *opCtx) newSystem(b backendChoice, cores int) *backend.System {
	opt := backend.DefaultOptions()
	opt.DirectPaging = b.direct
	opt.Cores = cores
	s := c.span("backend.new_system")
	sys := backend.NewSystem(b.cfg, opt)
	c.endSpan(s)
	return sys
}

// newGuest adds a guest VM to sys.
func (c *opCtx) newGuest(sys *backend.System, name string) (*backend.Guest, error) {
	s := c.span("backend.new_guest")
	g, err := sys.NewGuest(name)
	c.endSpan(s)
	return g, err
}

// proc is a guest process driven by the benchmark. Each method is one
// guest-API call, recorded as a span with the pages it handled and the
// virtual time it took when tracing. Methods run on the process's vCPU.
type proc struct {
	*guest.Process
	c *opCtx
}

// call is an open guest-call span.
type call struct {
	id int32
	v0 int64
}

func (p proc) begin(name string) call {
	if p.c.tr == nil {
		return call{}
	}
	return call{p.c.tr.begin(name, p.c.op, p.c.parent), p.CPU.Now()}
}

func (p proc) end(k call, pages int) {
	if k.id != 0 {
		p.c.tr.end(k.id, pages, p.CPU.Now()-k.v0)
	}
}

func (p proc) mmap(pages int) arch.VA {
	k := p.begin("guest.mmap")
	va := p.Mmap(pages)
	p.end(k, pages)
	return va
}

func (p proc) touchRange(va arch.VA, pages int, write bool) {
	k := p.begin("guest.touch_range")
	p.TouchRange(va, pages, write)
	p.end(k, pages)
}

func (p proc) touch(va arch.VA, write bool) {
	k := p.begin("guest.touch")
	p.Touch(va, write)
	p.end(k, 1)
}

func (p proc) munmap(va arch.VA, pages int) error {
	k := p.begin("guest.munmap")
	err := p.Munmap(va, pages)
	p.end(k, pages)
	return err
}

func (p proc) mprotect(va arch.VA, pages int, writable bool) error {
	k := p.begin("guest.mprotect")
	err := p.Mprotect(va, pages, writable)
	p.end(k, pages)
	return err
}

// fork forks a copy-on-write child onto the same vCPU; resident is the
// parent's resident page count.
func (p proc) fork(resident int) (proc, error) {
	k := p.begin("guest.fork")
	child, err := p.Fork(nil)
	p.end(k, resident)
	return proc{child, p.c}, err
}

func (p proc) exec(image int) error {
	k := p.begin("guest.exec")
	err := p.Exec(image)
	p.end(k, image)
	return err
}

// exit ends the process, first adding its page-table statistics to the
// op's counts; resident is its resident page count.
func (p proc) exit(resident int) error {
	p.c.acc.addGPT(p.GPT.Stats())
	k := p.begin("guest.exit")
	err := p.Exit()
	p.end(k, resident)
	return err
}

func (p proc) collectDirty() []arch.VA {
	k := p.begin("guest.dirty_collect")
	vas := p.CollectDirty()
	p.end(k, len(vas))
	return vas
}

// audit runs the backend's structural audit of p and checks its resident
// page count, as verification.
func (p proc) audit(g *backend.Guest, wantResident int) error {
	return p.c.verify(func() error {
		if err := g.AuditProcess(p.Process); err != nil {
			return err
		}
		if n := p.ResidentPages(); n != wantResident {
			return fmt.Errorf("pid %d: %d resident pages, want %d", p.PID, n, wantResident)
		}
		return nil
	})
}

// simNames are the virtualization-event counters reported per op.
var simNames = [...]string{
	"world_switches", "l0_exits", "l1_exits", "guest_faults", "shadow_faults",
	"ept_violations", "pte_write_traps", "prefaults", "tlb_flushes",
	"cow_breaks", "dirty_marks",
}

// Indexes into simNames.
const (
	guestFaults = 3
	cowBreaks   = 9
)

func simCounts(s metrics.Snapshot) [len(simNames)]int64 {
	return [...]int64{
		s.WorldSwitches, s.L0Exits, s.L1Exits, s.GuestFaults, s.ShadowFaults,
		s.EPTViolations, s.PTEWriteTraps, s.Prefaults, s.TLBFlushes,
		s.COWBreaks, s.DirtyMarks,
	}
}

// sysStats are the public statistics the benchmark reads from a System.
type sysStats struct {
	sim            [len(simNames)]int64
	exits, entries int64            // world-switch exit and entry legs
	l0             vclock.LockStats // L0 mmu_locks, summed over the host's VMs
	gpa            [3]int64         // guest frames allocated, freed, in use
	clocks         int              // vCPUs the engine has run
	solo           int64            // solo-bypass grants
}

func readSys(s *backend.System) sysStats {
	snap := s.Ctr.Snapshot()
	st := sysStats{sim: simCounts(snap), exits: snap.WorldExits, entries: snap.WorldEntries,
		clocks: len(s.Eng.Clocks()), solo: s.Eng.SoloGrants()}
	for _, vm := range s.Host.VMs() {
		l := vm.MMULock.Stats()
		st.l0.Acquisitions += l.Acquisitions
		st.l0.Contended += l.Contended
		st.l0.WaitTime += l.WaitTime
	}
	for _, g := range s.Guests() {
		a := g.Kern.GPA.Stats()
		st.gpa[0] += a.Allocs
		st.gpa[1] += a.Frees
		st.gpa[2] += a.InUse
	}
	return st
}

// soloRun reports whether one vCPU ran the System on the solo bypass.
func (b sysStats) soloRun() bool { return b.clocks == 1 && b.solo > 0 }

// since returns the change from a to b in the cumulative statistics.
func (b sysStats) since(a sysStats) sysStats {
	d := b
	for i := range d.sim {
		d.sim[i] -= a.sim[i]
	}
	d.exits -= a.exits
	d.entries -= a.entries
	d.l0.Acquisitions -= a.l0.Acquisitions
	d.l0.Contended -= a.l0.Contended
	d.l0.WaitTime -= a.l0.WaitTime
	d.gpa[0] -= a.gpa[0]
	d.gpa[1] -= a.gpa[1]
	d.solo -= a.solo
	return d
}

// gptSince returns the page-table activity between two readings of one
// table's statistics; Tables stays the later reading's live count.
func gptSince(a, b pagetable.Stats) pagetable.Stats {
	b.Walks -= a.Walks
	b.Maps -= a.Maps
	b.Unmaps -= a.Unmaps
	b.Protects -= a.Protects
	b.PTEWrites -= a.PTEWrites
	return b
}

// layerAcc sums the per-layer counts of a phase's ops.
type layerAcc struct {
	mu       sync.Mutex
	ops      int
	soloOps  int // ops run by a single vCPU on the solo bypass
	sim      [len(simNames)]int64
	virtNS   int64 // simulated time the ops took
	gpt      pagetable.Stats
	gpa      [2]int64 // guest frames allocated, freed
	leaked   int64    // guest frames left allocated after a System finished
	l0       vclock.LockStats
	traceEvs int64 // simulator trace events recorded, and overwritten
	traceDrp int64
}

// addOp adds one op's System statistics: d is its change over the op and
// virtNS the simulated time it took. solo says whether one vCPU ran the op
// on the solo bypass.
func (a *layerAcc) addOp(d sysStats, virtNS int64, solo bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.ops++
	if solo {
		a.soloOps++
	}
	for i, v := range d.sim {
		a.sim[i] += v
	}
	a.virtNS += virtNS
	a.gpa[0] += d.gpa[0]
	a.gpa[1] += d.gpa[1]
	a.l0.Acquisitions += d.l0.Acquisitions
	a.l0.Contended += d.l0.Contended
	a.l0.WaitTime += d.l0.WaitTime
}

// addLeak adds frames a finished System failed to return.
func (a *layerAcc) addLeak(frames int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.leaked += frames
}

// addTrace adds a System's simulator trace volume.
func (a *layerAcc) addTrace(events, dropped int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.traceEvs += events
	a.traceDrp += dropped
}

// addGPT adds one guest page table's activity.
func (a *layerAcc) addGPT(s pagetable.Stats) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.gpt.Walks += s.Walks
	a.gpt.Maps += s.Maps
	a.gpt.Unmaps += s.Unmaps
	a.gpt.Protects += s.Protects
	a.gpt.PTEWrites += s.PTEWrites
	a.gpt.Tables += s.Tables
}

// finishSystem verifies a System whose engine has finished: no workload
// panic, a consistent engine, every world-switch exit leg paired with an
// entry leg, and every guest frame returned. It folds the System's
// observation into the pass digest and returns its final statistics.
func (c *opCtx) finishSystem(sys *backend.System) (sysStats, error) {
	var st sysStats
	err := c.verify(func() error {
		if err := sys.Eng.Err(); err != nil {
			return err
		}
		if err := sys.Eng.Audit(); err != nil {
			return err
		}
		st = readSys(sys)
		if st.exits != st.entries {
			return fmt.Errorf("world-switch conservation: %d exit legs, %d entry legs", st.exits, st.entries)
		}
		if st.gpa[2] != 0 {
			c.acc.addLeak(st.gpa[2])
			return fmt.Errorf("%d guest frames leaked", st.gpa[2])
		}
		c.foldObservation(check.Capture(sys))
		return nil
	})
	return st, err
}

// finishOp verifies a System built for one op and adds the op's counts.
func (c *opCtx) finishOp(sys *backend.System) error {
	st, err := c.finishSystem(sys)
	if err == nil {
		c.acc.addOp(st, sys.Eng.Makespan(), st.soloRun())
	}
	return err
}

// soloRun runs fn as the only process of g on a fresh vCPU and waits for
// the engine. fn must exit the process itself, so the exit is a recorded
// call.
func (c *opCtx) soloRun(g *backend.Guest, image int, fn func(p proc) error) error {
	w := c.span("vclock.wait")
	parent := c.parent
	c.parent = w
	var ferr error
	g.Run(0, image, func(p *guest.Process) { ferr = fn(proc{p, c}) })
	g.Sys.Eng.Wait()
	c.parent = parent
	c.endSpan(w)
	return ferr
}

// imagePages is a started process's image; with its stack it makes the
// resident pages a process has before it maps anything.
const (
	imagePages   = 8
	baseResident = imagePages + guest.StackPages
)

// resident is a process that lives across ops on its own System: the
// benchmark goroutine hands it one command at a time and waits for it.
type resident struct {
	sys  *backend.System
	g    *backend.Guest
	cmd  chan func(p *guest.Process) error
	done chan error
}

// startResident boots a process on a fresh System for b and runs init on
// it.
func startResident(c *opCtx, b backendChoice, init func(p proc) error) (*resident, error) {
	sys := c.newSystem(b, 0)
	g, err := c.newGuest(sys, "resident")
	if err != nil {
		return nil, err
	}
	r := &resident{sys: sys, g: g, cmd: make(chan func(*guest.Process) error), done: make(chan error)}
	g.Run(0, imagePages, func(p *guest.Process) {
		for fn := range r.cmd {
			r.done <- protect(func() error { return fn(p) })
		}
	})
	return r, r.do(c, init)
}

// do runs fn on the resident process and returns its error. A panic in the
// simulator is returned as an error, so one failed op does not stop the
// benchmark.
//
// The op's time is fn's time on the process's vCPU goroutine: the handoff
// to that goroutine and back is the benchmark's own, and it costs a wake-up
// of the other CPU whose latency the host sets, not the simulator.
func (r *resident) do(c *opCtx, fn func(p proc) error) error {
	start := time.Now()
	var ran time.Duration
	r.cmd <- func(p *guest.Process) error {
		t := time.Now()
		err := fn(proc{p, c})
		ran = time.Since(t)
		return err
	}
	err := <-r.done
	c.check += time.Since(start) - ran
	return err
}

// stop lets the resident process exit and verifies its System.
func (r *resident) stop(c *opCtx) error {
	close(r.cmd)
	r.sys.Eng.Wait()
	_, err := c.finishSystem(r.sys)
	return err
}

// protect runs fn, turning a panic into an error.
func protect(fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	return fn()
}
