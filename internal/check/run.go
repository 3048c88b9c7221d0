package check

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/arch"
	"repro/internal/backend"
	"repro/internal/guest"
)

// Variant selects which observationally-neutral mutations to apply to a
// replay: fast paths toggled off, and faults injected at every checkpoint.
// Under any Variant, a run of the same Program must produce an Observation
// bit-identical to the baseline's.
type Variant struct {
	Name string

	// Fast-path toggles.
	ByPage       bool // ranged access off: TouchRange becomes the per-page loop
	SoloOff      bool // vclock solo-vCPU engine bypass off
	CursorBypass bool // pagetable Mapper/Reader span caches off
	Eager        bool // fused cost charging off: every lazy charge gates immediately
	LifecycleOff bool // fork/exec/exit structural fast lane off: per-leaf reference paths

	// Fault injections, applied at every generated checkpoint.
	RevokeSolo   bool // force a solo-bypass revocation
	SpuriousSync bool // gate the vCPU for no reason

	// DirtyLog arms dirty-page logging on every worker, collecting an epoch
	// at each generated checkpoint (and around exec). Logging lawfully
	// perturbs virtual time — arming write-protects and flushes — so this
	// variant is oracled by self-determinism (two identical runs, identical
	// observables and dirty digests), not by diffing against the baseline.
	DirtyLog bool
}

// Variants returns the metamorphic matrix, baseline first.
func Variants() []Variant {
	return []Variant{
		{Name: "baseline"},
		{Name: "by-page", ByPage: true},
		{Name: "solo-off", SoloOff: true},
		{Name: "cursor-bypass", CursorBypass: true},
		{Name: "eager-charges", Eager: true},
		{Name: "revoke-solo", RevokeSolo: true},
		{Name: "spurious-sync", SpuriousSync: true},
		{Name: "lifecycle-off", LifecycleOff: true},
		{Name: "dirtylog-on", DirtyLog: true},
		{Name: "everything", ByPage: true, SoloOff: true, CursorBypass: true,
			Eager: true, LifecycleOff: true,
			RevokeSolo: true, SpuriousSync: true},
	}
}

// Run executes one Program under one Variant and returns the observables.
// Invariant-audit failures, workload errors, and end-of-run conservation
// violations are returned as errors carrying the failing detail.
func Run(p *Program, v Variant) (Observation, error) {
	return runVariant(p, v, nil)
}

// runVariant is Run plus an inspect hook that receives the finished (or
// aborted) system — used to extract the trace listing for failure artifacts.
func runVariant(p *Program, v Variant, inspect func(*backend.System)) (Observation, error) {
	var o Observation
	var runErr error
	body := func() {
		sys := backend.NewSystemWithParams(p.Cfg, p.Opt, p.Prm)
		if inspect != nil {
			defer func() { inspect(sys) }()
		}
		if v.SoloOff {
			sys.Eng.SetSoloBypass(false)
		}
		if v.Eager {
			sys.Eng.SetEagerCharges(true)
		}
		g, err := sys.NewGuest("fuzz")
		if err != nil {
			runErr = err
			return
		}
		in := &interp{sys: sys, g: g, v: v}
		if v.DirtyLog {
			in.dirty = make([]dirtyAcc, len(p.Workers))
		}
		// Launch all workers behind the engine's starting barrier so the
		// schedule cannot depend on how far an early worker's goroutine
		// races before the last one is admitted to the runnable heap.
		release := sys.Eng.Hold()
		for wi, w := range p.Workers {
			wi, w := wi, w
			g.Run(w.Start, w.ImagePages, func(proc *guest.Process) {
				ctx := &pctx{p: proc, fixed: fixedRegions(w.ImagePages)}
				if v.DirtyLog {
					// Arm the root worker only; forked children run
					// unarmed (their dirty field stays nil), matching a
					// migration source that tracks registered vCPUs.
					ctx.dirty = &in.dirty[wi]
					proc.StartDirtyLog()
				}
				in.runOps(ctx, w.Ops)
				if ctx.dirty != nil {
					in.collectEpoch(ctx)
					proc.StopDirtyLog()
				}
			})
		}
		release()
		sys.Eng.Wait()
		if err := sys.Eng.Err(); err != nil {
			runErr = err
			return
		}
		if err := endOfRunAudit(sys); err != nil {
			runErr = err
			return
		}
		o = Capture(sys)
		if v.DirtyLog {
			o.DirtyPages, o.DirtyDigest = foldDirty(in.dirty)
			if w := armedWrites(in.dirty); w > 0 && o.DirtyPages == 0 {
				runErr = fmt.Errorf("dirty-log vacuity: %d armed writes but zero pages collected", w)
			}
		}
	}
	cursorBypassOn(v.CursorBypass, func() {
		lifecycleBypassOn(v.LifecycleOff, body)
	})
	return o, runErr
}

// endOfRunAudit checks the quiescence invariants: a consistent engine,
// world-switch conservation (every exit leg paired with an entry leg), and
// no leaked guest frames.
func endOfRunAudit(sys *backend.System) error {
	if err := sys.Eng.Audit(); err != nil {
		return fmt.Errorf("engine audit at quiescence: %w", err)
	}
	snap := sys.Ctr.Snapshot()
	if snap.WorldExits != snap.WorldEntries {
		return fmt.Errorf("world-switch conservation: %d exit legs vs %d entry legs",
			snap.WorldExits, snap.WorldEntries)
	}
	for _, g := range sys.Guests() {
		if n := g.Kern.GPA.InUse(); n != 0 {
			return fmt.Errorf("guest %q leaked %d frames", g.Name, n)
		}
	}
	return nil
}

// region tracks one touchable area of a process's address space.
type region struct {
	base     arch.VA
	pages    int
	writable bool
}

// fixedRegions are the always-present touch targets: the image and the stack.
func fixedRegions(imagePages int) []region {
	var f []region
	if imagePages > 0 {
		f = append(f, region{guest.ImageBase, imagePages, true})
	}
	return append(f, region{guest.StackTop - guest.StackPages*arch.PageSize, guest.StackPages, true})
}

// pctx is the interpreter's view of one process: the live regions plus the
// per-process monotonicity baselines the checkpoints assert against.
type pctx struct {
	p       *guest.Process
	fixed   []region // image + stack: touchable, never unmapped
	regions []region // mmap'd areas: touchable, unmappable, protectable

	// dirty points at this worker's accumulator when the DirtyLog variant
	// armed logging on the process; nil for unarmed processes (children).
	dirty *dirtyAcc

	lastNow                int64
	lastExits, lastEntries int64
}

// dirtyAcc accumulates one armed worker's dirty-log observables. Each worker
// writes only its own slot of interp.dirty, so the slots race-freely fill in
// parallel and fold deterministically (admission order) after Wait.
type dirtyAcc struct {
	digest uint64 // FNV-1a over (pid, epoch index, page count, sorted VAs)
	epochs int64
	pages  int64
	writes int64 // armed effective writes: the anti-vacuity witness
}

// fold mixes one collected epoch into the worker's running digest.
func (a *dirtyAcc) fold(pid int, vas []arch.VA) {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	word(a.digest)
	word(uint64(pid))
	word(uint64(a.epochs))
	word(uint64(len(vas)))
	for _, va := range vas {
		word(uint64(va))
	}
	a.digest = h.Sum64()
	a.epochs++
	a.pages += int64(len(vas))
}

// foldDirty combines the per-worker accumulators, in admission order, into
// the run's total page count and dirty digest.
func foldDirty(accs []dirtyAcc) (pages int64, digest uint64) {
	h := fnv.New64a()
	var buf [8]byte
	for _, a := range accs {
		binary.LittleEndian.PutUint64(buf[:], a.digest)
		h.Write(buf[:])
		pages += a.pages
	}
	return pages, h.Sum64()
}

// armedWrites totals the effective write touches issued while armed.
func armedWrites(accs []dirtyAcc) (n int64) {
	for _, a := range accs {
		n += a.writes
	}
	return n
}

// pick selects a touch target among all live areas.
func (ctx *pctx) pick(sel int) (region, bool) {
	total := len(ctx.fixed) + len(ctx.regions)
	if total == 0 {
		return region{}, false
	}
	i := sel % total
	if i < len(ctx.fixed) {
		return ctx.fixed[i], true
	}
	return ctx.regions[i-len(ctx.fixed)], true
}

// maxRegions bounds the live mmap'd areas per process so long programs keep
// recycling address ranges instead of growing without bound.
const maxRegions = 24

type interp struct {
	sys *backend.System
	g   *backend.Guest
	v   Variant

	// dirty has one accumulator per worker under the DirtyLog variant.
	dirty []dirtyAcc
}

// collectEpoch harvests one dirty-log epoch from an armed process and folds
// it into the worker's accumulator.
func (in *interp) collectEpoch(ctx *pctx) {
	ctx.dirty.fold(ctx.p.PID, ctx.p.CollectDirty())
}

// runOps interprets one op stream against a process. Errors panic: the
// vclock engine converts workload panics into Engine.Err, which Run returns.
func (in *interp) runOps(ctx *pctx, ops []Op) {
	for _, op := range ops {
		switch op.Kind {
		case OpMmap:
			if len(ctx.regions) >= maxRegions {
				continue
			}
			base := ctx.p.Mmap(op.Pages)
			ctx.regions = append(ctx.regions, region{base, op.Pages, true})

		case OpMunmap:
			if len(ctx.regions) == 0 {
				continue
			}
			i := op.Sel % len(ctx.regions)
			r := ctx.regions[i]
			// A length selector indivisible by 4 unmaps a partial page
			// range (75% of multi-page targets); Len%4 == 0 keeps a share
			// of whole-region unmaps and grandfathers pre-partial op
			// streams, which carry Len 0.
			if op.Len%4 != 0 && r.pages > 1 {
				off := op.Off % r.pages
				n := 1 + op.Len%(r.pages-off)
				lo := r.base + arch.VA(off)*arch.PageSize
				if err := ctx.p.Munmap(lo, n); err != nil {
					panic(err)
				}
				// Replace the region with the surviving remnants (their
				// count may exceed maxRegions, which only bounds Mmap).
				ctx.regions = append(ctx.regions[:i], ctx.regions[i+1:]...)
				if off > 0 {
					ctx.regions = append(ctx.regions, region{r.base, off, r.writable})
				}
				if end := off + n; end < r.pages {
					ctx.regions = append(ctx.regions,
						region{lo + arch.VA(n)*arch.PageSize, r.pages - end, r.writable})
				}
				continue
			}
			if err := ctx.p.Munmap(r.base, r.pages); err != nil {
				panic(err)
			}
			ctx.regions = append(ctx.regions[:i], ctx.regions[i+1:]...)

		case OpTouch:
			r, ok := ctx.pick(op.Sel)
			if !ok {
				continue
			}
			page := op.Off % r.pages
			w := op.Write && r.writable
			if w && ctx.dirty != nil {
				ctx.dirty.writes++
			}
			ctx.p.Touch(r.base+arch.VA(page)*arch.PageSize, w)

		case OpTouchRange:
			r, ok := ctx.pick(op.Sel)
			if !ok {
				continue
			}
			off := op.Off % r.pages
			n := 1 + op.Len%(r.pages-off)
			va := r.base + arch.VA(off)*arch.PageSize
			write := op.Write && r.writable
			if write && ctx.dirty != nil {
				ctx.dirty.writes++
			}
			if in.v.ByPage {
				ctx.p.TouchRangeByPage(va, n, write)
			} else {
				ctx.p.TouchRange(va, n, write)
			}

		case OpMprotect:
			if len(ctx.regions) == 0 {
				continue
			}
			i := op.Sel % len(ctx.regions)
			if err := ctx.p.Mprotect(ctx.regions[i].base, ctx.regions[i].pages, op.Write); err != nil {
				panic(err)
			}
			ctx.regions[i].writable = op.Write

		case OpFork:
			child, err := ctx.p.Fork(nil)
			if err != nil {
				panic(err)
			}
			cctx := &pctx{
				p:       child,
				fixed:   append([]region(nil), ctx.fixed...),
				regions: append([]region(nil), ctx.regions...),
				lastNow: ctx.lastNow,
			}
			in.runOps(cctx, op.Child)
			if err := child.Exit(); err != nil {
				panic(err)
			}

		case OpExec:
			// Exec replaces the address space and with it the platform's
			// per-process dirty state: harvest the pending epoch first,
			// then re-arm on the fresh image — the protocol a migration
			// source follows across an in-guest exec.
			if ctx.dirty != nil {
				in.collectEpoch(ctx)
			}
			if err := ctx.p.Exec(op.Pages); err != nil {
				panic(err)
			}
			ctx.fixed = fixedRegions(op.Pages)
			ctx.regions = nil
			if ctx.dirty != nil {
				ctx.p.StartDirtyLog()
			}

		case OpSyscall:
			ctx.p.Syscall(op.Arg)
		case OpCompute:
			ctx.p.Compute(op.Arg)
		case OpPriv:
			ctx.p.PrivOp(op.Priv)
		case OpBlockIO:
			ctx.p.BlockIO(op.N, op.Arg)
		case OpNetIO:
			ctx.p.NetIO(op.N, op.Arg)
		case OpInterrupt:
			ctx.p.Interrupt(op.Vector)

		case OpCheckpoint:
			in.checkpoint(ctx)

		default:
			panic(fmt.Sprintf("check: unknown op kind %d", op.Kind))
		}
	}
}

// checkpoint applies the variant's fault injections, then runs every
// structural invariant audit that holds at an operation boundary.
func (in *interp) checkpoint(ctx *pctx) {
	c := ctx.p.CPU
	if in.v.RevokeSolo {
		in.sys.Eng.RevokeSolo()
	}
	if in.v.SpuriousSync {
		c.Sync()
	}
	if ctx.dirty != nil {
		in.collectEpoch(ctx)
	}

	if now := c.Now(); now < ctx.lastNow {
		panic(fmt.Sprintf("check: vclock went backwards: %d after %d", now, ctx.lastNow))
	} else {
		ctx.lastNow = now
	}

	// Load entries before exits: exit legs are counted first, so reading
	// in this order can never observe a spurious entries > exits.
	entries := in.sys.Ctr.WorldEntries.Load()
	exits := in.sys.Ctr.WorldExits.Load()
	if entries < ctx.lastEntries || exits < ctx.lastExits {
		panic(fmt.Sprintf("check: world-switch counters went backwards: exits %d→%d entries %d→%d",
			ctx.lastExits, exits, ctx.lastEntries, entries))
	}
	if entries > exits {
		panic(fmt.Sprintf("check: %d entry legs exceed %d exit legs", entries, exits))
	}
	ctx.lastExits, ctx.lastEntries = exits, entries

	if err := in.g.AuditProcess(ctx.p); err != nil {
		panic(fmt.Sprintf("check: structural audit: %v", err))
	}
	if err := in.sys.Eng.Audit(); err != nil {
		panic(fmt.Sprintf("check: engine audit: %v", err))
	}
}
