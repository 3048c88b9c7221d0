package main

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/arch"
	"repro/internal/check"
	"repro/internal/container"
	"repro/internal/guest"
)

// A workload is one seeded set of inputs. plan derives the seed's fixed
// input once per set-up; every pass opens it afresh, so every pass runs
// the same ops from the same state and folds the same digest.
//
// Where a parameter follows the paper grid (`pvmbench -exp all`), the
// grid's own guest calls, counted per call kind, are its source
// (bench/README.md lists the counts). Where the grid makes no such call,
// the parameter is a coverage choice, and its comment says so.
type workload struct {
	name string
	plan func(seed uint64, small bool) (plan, error)
	best bool // short ops: report each op's fastest time (see endToEnd)
}

// plan is one seed's input.
type plan interface {
	// open builds a pass's resident state (systems, populated working
	// sets). It is not timed.
	open(c *opCtx) (pass, error)
}

// pass runs the ops of one pass.
type pass interface {
	ops() int
	// run runs op i, timed.
	run(i int, c *opCtx) error
	// warm runs one representative op on every backend the pass uses, so
	// that no backend's code runs for the first time in a timed op. It is
	// part of set-up.
	warm(c *opCtx) error
	// close stops the pass's resident state and verifies it. It is not
	// timed.
	close(c *opCtx) error
}

// workloads are the benchmark's workloads; BENCHMARK.json says why each
// was chosen.
var workloads = []workload{
	{"fleet-deploy", planFleetDeploy, false},
	{"fault-storm", planFaultStorm, true},
	{"tlb-sweep", planTLBSweep, true},
	{"vma-lifecycle", planVMALifecycle, true},
	{"fuzz-mix", planFuzzMix, false},
}

// stateless is a pass with no resident state: every op builds its own
// System, so a plan is its own pass.
type stateless struct{}

func (stateless) close(*opCtx) error { return nil }

// --- fault-storm ---

// faultOp maps a cold region in a solo process on a fresh System, writes it
// with one ranged touch, reads a seeded subset back page by page, and exits.
type faultOp struct {
	b     backendChoice
	pages int
	reads []int32 // page indexes read back
}

type faultStorm struct {
	stateless
	list []faultOp
}

// Region sizes are a coverage choice spanning the grid's common areas, from
// the 64-page cold-start heap through membench's 256-page megabyte to
// 2048 pages; the reads are a coverage choice too.
func planFaultStorm(seed uint64, small bool) (plan, error) {
	r := &rng{s: seed}
	n, lo, hi := 320, 64, 2048
	if small {
		n, lo, hi = 16, 8, 64
	}
	list := make([]faultOp, n)
	for i, pages := range logStrata(r, n, lo, hi) {
		reads := make([]int32, min(pages/8, 64))
		for j := range reads {
			reads[j] = int32(r.intn(pages))
		}
		// Strata ascend, so cycling backends gives each the full size range.
		list[i] = faultOp{backends[i%len(backends)], pages, reads}
	}
	r.shuffle(n, func(i, j int) { list[i], list[j] = list[j], list[i] })
	return &faultStorm{list: list}, nil
}

func (f *faultStorm) open(*opCtx) (pass, error) { return f, nil }
func (f *faultStorm) ops() int                  { return len(f.list) }
func (f *faultStorm) run(i int, c *opCtx) error { return f.runOp(f.list[i], c) }

func (f *faultStorm) warm(c *opCtx) error {
	for _, b := range backends {
		if err := f.runOp(faultOp{b: b, pages: 512}, c); err != nil {
			return err
		}
	}
	return nil
}

func (f *faultStorm) runOp(op faultOp, c *opCtx) error {
	sys := c.newSystem(op.b, 0)
	g, err := c.newGuest(sys, "storm")
	if err != nil {
		return err
	}
	resident := baseResident + op.pages
	err = c.soloRun(g, imagePages, func(p proc) error {
		base := p.mmap(op.pages)
		p.touchRange(base, op.pages, true)
		for _, pg := range op.reads {
			p.touch(base+arch.VA(pg)*arch.PageSize, false)
		}
		if err := p.audit(g, resident); err != nil {
			return err
		}
		return p.exit(resident)
	})
	if err != nil {
		return err
	}
	return c.finishOp(sys)
}

// --- tlb-sweep ---

// tlbEntries is the simulated TLB's default size (backend.DefaultOptions).
const tlbEntries = 1536

// sweepWritePct is the share of sweeps that write: of the grid's accesses to
// pages already populated (fluidanimate's grid updates, blogbench's cache
// reads, CloudSuite's scans), 58% are writes.
const sweepWritePct = 58

// sweepOp reads or writes a window of a resident, fully populated working
// set: TLB hit runs and refill walks, and no guest faults.
type sweepOp struct {
	b          int // index into backends
	off, pages int
	write      bool
}

type tlbSweep struct {
	list   []sweepOp
	region int // working-set pages per backend
}

func planTLBSweep(seed uint64, small bool) (plan, error) {
	r := &rng{s: seed}
	n := 640
	if small {
		n = 16
	}
	t := &tlbSweep{region: 3 * tlbEntries}
	for i, pages := range logStrata(r, n, tlbEntries/4, 3*tlbEntries) {
		t.list = append(t.list, sweepOp{
			b: i % len(backends), off: r.intn(t.region - pages + 1),
			pages: pages, write: evenShare(i, sweepWritePct),
		})
	}
	r.shuffle(n, func(i, j int) { t.list[i], t.list[j] = t.list[j], t.list[i] })
	return t, nil
}

// residents is a pass's resident processes, one per backend.
type residents []*resident

func (rs residents) close(c *opCtx, wantResident int) error {
	var first error
	for _, r := range rs {
		err := r.do(c, func(p proc) error { return p.audit(r.g, wantResident) })
		if serr := r.stop(c); err == nil {
			err = serr
		}
		if first == nil && err != nil {
			first = fmt.Errorf("%s: %w", r.sys.Cfg, err)
		}
	}
	return first
}

type sweepPass struct {
	*tlbSweep
	res residents
}

func (t *tlbSweep) open(c *opCtx) (pass, error) {
	ps := &sweepPass{tlbSweep: t}
	for _, b := range backends {
		r, err := startResident(c, b, func(p proc) error {
			p.TouchRange(p.Mmap(t.region), t.region, true)
			return nil
		})
		if err != nil {
			return nil, err
		}
		ps.res = append(ps.res, r)
	}
	return ps, nil
}

func (ps *sweepPass) ops() int                  { return len(ps.list) }
func (ps *sweepPass) run(i int, c *opCtx) error { return ps.runOp(ps.list[i], c) }

func (ps *sweepPass) warm(c *opCtx) error {
	for b := range ps.res {
		if err := ps.runOp(sweepOp{b: b, pages: tlbEntries}, c); err != nil {
			return err
		}
	}
	return nil
}

func (ps *sweepPass) runOp(op sweepOp, c *opCtx) error {
	r := ps.res[op.b]
	before, v0 := readSys(r.sys), r.sys.Eng.Makespan()
	if err := r.do(c, func(p proc) error {
		g0 := p.GPT.Stats()
		p.touchRange(guest.MmapBase+arch.VA(op.off)*arch.PageSize, op.pages, op.write)
		c.acc.addGPT(gptSince(g0, p.GPT.Stats()))
		return nil
	}); err != nil {
		return err
	}
	return c.verify(func() error {
		after := readSys(r.sys)
		d := after.since(before)
		if n := d.sim[guestFaults]; n != 0 {
			return fmt.Errorf("%s: %d guest faults sweeping a populated working set", r.sys.Cfg, n)
		}
		c.foldObservation(check.Capture(r.sys))
		c.acc.addOp(d, r.sys.Eng.Makespan()-v0, after.soloRun())
		return nil
	})
}

func (ps *sweepPass) close(c *opCtx) error {
	return ps.res.close(c, baseResident+ps.region)
}

// --- vma-lifecycle ---

// vmaKind is one vma-lifecycle op type. Each kind is one op in five. The
// grid's page-table writes are fork, exec, exit and whole-area munmap: it
// makes no mprotect, partial munmap or dirty-log call, so there is no
// traffic to copy, and the equal shares are a coverage choice, one kind per
// structural lane.
type vmaKind uint8

const (
	vmaFork     vmaKind = iota // fork, the child writes a window (COW breaks), exit
	vmaExec                    // fork, the child execs a new image, exit
	vmaMprotect                // write-protect an area, then restore it
	vmaMunmap                  // unmap part of an area, map and fault in a replacement
	vmaDirty                   // dirty-log epoch: arm, rewrite a window, collect, disarm
	vmaKinds
)

var vmaNames = [vmaKinds]string{"fork", "exec", "mprotect", "munmap", "dirty"}

// forkCOWPages is the window a forked child writes: the 48-page working set
// the grid's lmbench fork loops rewrite between forks, so each fork costs
// that many COW breaks.
const forkCOWPages = 48

// execImages are the images the grid execs: lmbench's hello and /bin/sh and
// kbuild's compiler.
var execImages = [...]int{100, 260, 420}

// vmaOp is one op against a backend's resident process. The selectors are
// reduced against the process's live areas when the op runs.
type vmaOp struct {
	b              int
	kind           vmaKind
	sel, off, span int
	image          int // exec image pages
}

// vmaAreas and vmaAreaPages shape each resident's populated working set.
// vmaWindowMax bounds the partial munmap and dirty-log windows, sized 1 to
// vmaWindowMax pages as a coverage choice.
const (
	vmaAreas     = 4
	vmaAreaPages = 512
	vmaWindowMax = 64
)

type vmaLifecycle struct{ list []vmaOp }

func planVMALifecycle(seed uint64, small bool) (plan, error) {
	r := &rng{s: seed}
	n := 2560
	if small {
		n = 20
	}
	v := &vmaLifecycle{}
	// Kinds, backends and images cycle with coprime periods, so every
	// pairing occurs equally often.
	for i := range n {
		v.list = append(v.list, vmaOp{
			b: i % len(backends), kind: vmaKind(i % int(vmaKinds)),
			sel: r.intn(1 << 16), off: r.intn(1 << 16), span: r.intn(1 << 16),
			image: execImages[i/int(vmaKinds)%len(execImages)],
		})
	}
	r.shuffle(len(v.list), func(i, j int) { v.list[i], v.list[j] = v.list[j], v.list[i] })
	return v, nil
}

// area is a mapped area of a resident process.
type area struct {
	base  arch.VA
	pages int
}

// window places a run of n pages, at most the area's size, inside a at a
// position the selector off picks.
func (a area) window(off, n int) (arch.VA, int) {
	n = min(n, a.pages)
	return a.base + arch.VA(off%(a.pages-n+1))*arch.PageSize, n
}

// vmaProc is one backend's resident process and its areas, which only
// commands running on the process touch.
type vmaProc struct {
	*resident
	areas []area
}

type vmaPass struct {
	*vmaLifecycle
	procs []*vmaProc
}

// vmaResident is a vma-lifecycle process's resident page count: areas are
// replaced page for page, so it never changes.
const vmaResident = baseResident + vmaAreas*vmaAreaPages

func (v *vmaLifecycle) open(c *opCtx) (pass, error) {
	ps := &vmaPass{vmaLifecycle: v}
	for _, b := range backends {
		vp := &vmaProc{}
		r, err := startResident(c, b, func(p proc) error {
			for range vmaAreas {
				a := area{p.Mmap(vmaAreaPages), vmaAreaPages}
				p.TouchRange(a.base, a.pages, true)
				vp.areas = append(vp.areas, a)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		vp.resident = r
		ps.procs = append(ps.procs, vp)
	}
	return ps, nil
}

func (ps *vmaPass) ops() int                  { return len(ps.list) }
func (ps *vmaPass) run(i int, c *opCtx) error { return ps.runOp(ps.list[i], c) }

func (ps *vmaPass) warm(c *opCtx) error {
	for b := range ps.procs {
		if err := ps.runOp(vmaOp{b: b, kind: vmaFork}, c); err != nil {
			return err
		}
	}
	return nil
}

func (ps *vmaPass) runOp(op vmaOp, c *opCtx) error {
	vp := ps.procs[op.b]
	before, v0 := readSys(vp.sys), vp.sys.Eng.Makespan()
	cow := -1 // the COW breaks a fork op must take
	err := vp.do(c, func(p proc) error {
		g0 := p.GPT.Stats()
		err := vp.step(p, op, &cow)
		c.acc.addGPT(gptSince(g0, p.GPT.Stats()))
		return err
	})
	if err != nil {
		return fmt.Errorf("%s %s: %w", vp.sys.Cfg, vmaNames[op.kind], err)
	}
	return c.verify(func() error {
		after := readSys(vp.sys)
		d := after.since(before)
		if n := d.sim[cowBreaks]; cow >= 0 && n != int64(cow) {
			return fmt.Errorf("%s fork: %d COW breaks, want %d", vp.sys.Cfg, n, cow)
		}
		c.foldObservation(check.Capture(vp.sys))
		c.acc.addOp(d, vp.sys.Eng.Makespan()-v0, after.soloRun())
		return nil
	})
}

// step runs one op on the resident process p.
func (vp *vmaProc) step(p proc, op vmaOp, cow *int) error {
	a := vp.areas[op.sel%len(vp.areas)]
	switch op.kind {
	case vmaFork:
		child, err := p.fork(vmaResident)
		if err != nil {
			return err
		}
		va, n := a.window(op.off, forkCOWPages)
		child.touchRange(va, n, true)
		*cow = n
		return child.exit(vmaResident)

	case vmaExec:
		child, err := p.fork(vmaResident)
		if err != nil {
			return err
		}
		if err := child.exec(op.image); err != nil {
			return err
		}
		return child.exit(op.image + guest.StackPages)

	case vmaMprotect:
		if err := p.mprotect(a.base, a.pages, false); err != nil {
			return err
		}
		return p.mprotect(a.base, a.pages, true)

	case vmaMunmap:
		if a.pages < 2 {
			return nil // a one-page area has no partial range
		}
		idx := op.sel % len(vp.areas)
		va, n := a.window(op.off, 1+op.span%min(a.pages-1, vmaWindowMax))
		if err := p.munmap(va, n); err != nil {
			return err
		}
		repl := area{p.mmap(n), n}
		p.touchRange(repl.base, n, true)
		vp.areas = slices.Delete(vp.areas, idx, idx+1)
		if head := int(va-a.base) / arch.PageSize; head > 0 {
			vp.areas = append(vp.areas, area{a.base, head})
		}
		if tail := a.pages - int(va-a.base)/arch.PageSize - n; tail > 0 {
			vp.areas = append(vp.areas, area{va + arch.VA(n)*arch.PageSize, tail})
		}
		vp.areas = append(vp.areas, repl)
		return p.audit(vp.g, vmaResident)

	case vmaDirty:
		va, n := a.window(op.off, 1+op.span%vmaWindowMax)
		p.StartDirtyLog()
		p.touchRange(va, n, true)
		got := len(p.collectDirty())
		p.StopDirtyLog()
		if got != n {
			return fmt.Errorf("collected %d dirty pages, wrote %d", got, n)
		}
	}
	return nil
}

func (ps *vmaPass) close(c *opCtx) error {
	rs := make(residents, len(ps.procs))
	for i, vp := range ps.procs {
		rs[i] = vp.resident
	}
	return rs.close(c, vmaResident)
}

// --- fleet-deploy ---

// fleetBackends are the configurations the grid deploys container fleets
// on: the five deployment scenarios of §4, each taking the same number of
// fleets (22 in the default grid). Two are nested, where the L0 mmu_lock
// serializes sandbox boots.
var fleetBackends = []backendChoice{backends[0], backends[1], backends[2], backends[4], backends[6]}

// Every container runs the grid's cold-start function body — a heap mapped,
// written, computed over and unmapped — in the cold-start image, and a
// fleet's starts are staggered as the cold-start bursts' are. Systems model
// the paper's 104-thread testbed, as the grid's do.
const (
	fleetHeapPages  = 64
	fleetCompute    = 200_000 // virtual ns
	fleetImagePages = 32
	fleetStagger    = 10_000 // virtual ns between starts
	fleetCores      = 104
)

// fleetOp deploys a fleet of containers on a fresh System.
type fleetOp struct {
	b          backendChoice
	containers int
}

type fleetDeploy struct {
	stateless
	list []fleetOp
}

// Fleet sizes are log-uniform over 4–32 containers. The grid's fleets hold
// 1 to 150 (26 on average); 4–32 holds Figure 11's 4 and 16 and the
// cold-start experiment's 25, while its 50–150-container fleets, at a
// quarter to three quarters of a second of host time each, would leave a
// run too few ops for a p90.
func planFleetDeploy(seed uint64, small bool) (plan, error) {
	r := &rng{s: seed}
	n, lo, hi := 40, 4, 32
	if small {
		n, lo, hi = 5, 2, 6
	}
	f := &fleetDeploy{}
	for i, size := range logStrata(r, n, lo, hi) {
		f.list = append(f.list, fleetOp{fleetBackends[i%len(fleetBackends)], size})
	}
	r.shuffle(n, func(i, j int) { f.list[i], f.list[j] = f.list[j], f.list[i] })
	return f, nil
}

func (f *fleetDeploy) open(*opCtx) (pass, error) { return f, nil }
func (f *fleetDeploy) ops() int                  { return len(f.list) }
func (f *fleetDeploy) run(i int, c *opCtx) error { return f.runOp(f.list[i], c) }

func (f *fleetDeploy) warm(c *opCtx) error {
	for _, b := range fleetBackends {
		if err := f.runOp(fleetOp{b, 4}, c); err != nil {
			return err
		}
	}
	return nil
}

func (f *fleetDeploy) runOp(op fleetOp, c *opCtx) error {
	sys := c.newSystem(op.b, fleetCores)
	rt := container.NewRuntime(sys)
	w := c.span("container.deploy_fleet")
	parent := c.parent
	c.parent = w
	_, err := rt.DeployFleet(op.containers, fleetImagePages, fleetStagger, func(_ int, gp *guest.Process) {
		p := proc{gp, c}
		heap := p.mmap(fleetHeapPages)
		p.touchRange(heap, fleetHeapPages, true)
		p.Compute(fleetCompute)
		if err := p.munmap(heap, fleetHeapPages); err != nil {
			panic(err) // the engine reports it through Eng.Err
		}
		c.acc.addGPT(gp.GPT.Stats())
	})
	c.parent = parent
	c.endSpan(w)
	if err != nil {
		return err
	}
	if n := rt.Failures(); n != 0 {
		return fmt.Errorf("%s: %d of %d containers missed the startup deadline", sys.Cfg, n, op.containers)
	}
	return c.finishOp(sys)
}

// --- fuzz-mix ---

// fuzzMix runs generated check programs under the baseline variant, which
// keeps tracing and checkpoint audits on.
type fuzzMix struct {
	stateless
	seeds []uint64
	warms []uint64 // one program per backend
}

// fuzzDraw is how many candidate programs a plan draws per program it
// keeps.
const fuzzDraw = 4

func planFuzzMix(seed uint64, small bool) (plan, error) {
	n := 320
	if small {
		n = 16
	}
	// Program cost tracks its backend and op count. Draw candidates from
	// the seed's range, group them by backend, and keep evenly spaced ranks
	// by op count from each group, so every seed runs the same cost mix.
	type cand struct {
		seed uint64
		ops  int
	}
	groups := map[string][]cand{}
	for t := range uint64(fuzzDraw * n) {
		s := seed*1_000_000 + t
		p := check.Generate(s)
		b, _, _ := strings.Cut(p.Label, "/")
		groups[b] = append(groups[b], cand{s, programOps(p)})
	}
	k := n / len(backends)
	f := &fuzzMix{}
	for _, g := range groups {
		slices.SortFunc(g, func(a, b cand) int { return cmp.Or(cmp.Compare(a.ops, b.ops), cmp.Compare(a.seed, b.seed)) })
		for j := range min(k, len(g)) {
			f.seeds = append(f.seeds, g[(2*j+1)*len(g)/(2*k)].seed)
		}
		f.warms = append(f.warms, g[len(g)/2].seed)
	}
	// Map order is random; the shuffle below is not.
	slices.Sort(f.seeds)
	slices.Sort(f.warms)
	r := &rng{s: seed}
	r.shuffle(len(f.seeds), func(i, j int) { f.seeds[i], f.seeds[j] = f.seeds[j], f.seeds[i] })
	return f, nil
}

// programOps counts a generated program's ops, fork children included.
func programOps(p *check.Program) int {
	var count func(ops []check.Op) int
	count = func(ops []check.Op) int {
		n := len(ops)
		for _, op := range ops {
			n += count(op.Child)
		}
		return n
	}
	n := 0
	for _, w := range p.Workers {
		n += count(w.Ops)
	}
	return n
}

func (f *fuzzMix) open(*opCtx) (pass, error) { return f, nil }
func (f *fuzzMix) ops() int                  { return len(f.seeds) }
func (f *fuzzMix) run(i int, c *opCtx) error { return f.runOp(f.seeds[i], c) }

func (f *fuzzMix) warm(c *opCtx) error {
	for _, s := range f.warms {
		if err := f.runOp(s, c); err != nil {
			return err
		}
	}
	return nil
}

func (f *fuzzMix) runOp(seed uint64, c *opCtx) error {
	s := c.span("check.generate")
	prog := check.Generate(seed)
	c.endSpan(s)
	s = c.span("check.run")
	o, err := check.Run(prog, check.Variant{Name: "baseline"})
	c.endSpan(s)
	if err != nil {
		return fmt.Errorf("program %d (%s): %w", seed, prog.Label, err)
	}
	return c.verify(func() error {
		c.foldObservation(o)
		c.acc.addOp(sysStats{sim: simCounts(o.Metrics)}, o.Makespan, len(o.Clocks) == 1 && o.SoloGrants > 0)
		c.acc.addTrace(int64(o.Events), o.Dropped)
		return nil
	})
}
