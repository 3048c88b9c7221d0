package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 9

// runCfg is one run's settings.
type runCfg struct {
	seed    uint64
	seconds float64 // timed host seconds
	traced  bool    // split the time into an untraced and a traced half
	small   bool    // tiny inputs, for tests
}

// phase is one timed stretch of passes.
type phase struct {
	walls  []float64 // host seconds per pass, verification excluded
	allocs []float64 // MiB allocated per pass
	peaks  []float64 // peak resident MiB per pass
	lats   []float64 // host ms per op, verification excluded, pass after pass
	opsPer int       // ops per pass
	failed int
	acc    *layerAcc

	// Traced phases only.
	tr      *tracer
	prof    []byte // CPU profile
	gcs     uint32
	pauseNS uint64
}

// outcome is everything one run measured.
type outcome struct {
	setups   []float64 // seconds per set-up
	untraced *phase
	traced   *phase // nil for an untraced run
	digest   uint64 // the first pass's digest
	passes   int
	// diverged is set when a pass's digest differed from the first pass's
	// or from the golden digest: every op of the run then counts as failed.
	diverged bool
	errs     []string
	nextOp   int32
	ref      *refKernel // sampled at set-up and through untraced phases
}

// attempted and failed count the timed ops.
func (o *outcome) attempted() int {
	n := len(o.untraced.lats)
	if o.traced != nil {
		n += len(o.traced.lats)
	}
	return n
}

func (o *outcome) failed() int {
	if o.diverged {
		return o.attempted()
	}
	n := o.untraced.failed
	if o.traced != nil {
		n += o.traced.failed
	}
	return n
}

// maxErrs bounds the failures a run keeps for its report.
const maxErrs = 5

func (o *outcome) fail(err error) {
	if len(o.errs) < maxErrs {
		o.errs = append(o.errs, err.Error())
	}
}

// runWorkload sets w up, then runs passes of its seed's input until the
// timed seconds are spent: an untraced phase, and for a traced run a traced
// phase after it taking half the time. It sets w up reps(cfg) times in all:
// once before the first pass, and the rest spread evenly over the untraced
// phase, between passes, so that setup_s samples the host's speed over the
// whole run and not only over its first second (nine set-ups made at the
// start moved by up to a fifth from one set of runs to the next).
func runWorkload(w workload, cfg runCfg) (*outcome, error) {
	ref, err := newRefKernel()
	if err != nil {
		return nil, err
	}
	o := &outcome{ref: ref}
	pl, err := o.setUp(w, cfg)
	if err != nil {
		return nil, err
	}

	budget := cfg.seconds
	if cfg.traced {
		budget /= 2
	}
	n := reps(cfg)
	o.untraced, err = o.runPhase(pl, budget, nil, func(elapsed float64) error {
		if len(o.setups) < n && elapsed >= budget*float64(len(o.setups))/float64(n) {
			_, err := o.setUp(w, cfg)
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for len(o.setups) < n {
		if _, err := o.setUp(w, cfg); err != nil {
			return nil, err
		}
	}
	if cfg.traced {
		if o.traced, err = o.runPhase(pl, budget, newTracer(), nil); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// setUp sets w up once and records the time it took: the plan, a pass's
// resident state and the warm-up ops. It returns the plan.
func (o *outcome) setUp(w workload, cfg runCfg) (plan, error) {
	o.ref.sample()
	t := time.Now()
	pl, err := w.plan(cfg.seed, cfg.small)
	if err != nil {
		return nil, err
	}
	c := &opCtx{acc: &layerAcc{}, h: fnv.New64a()}
	ps, err := pl.open(c)
	if err != nil {
		return nil, err
	}
	err = ps.warm(c)
	d := time.Since(t)
	if cerr := ps.close(c); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	o.setups = append(o.setups, d.Seconds())
	return pl, nil
}

// reps is how many set-ups a run does.
func reps(cfg runCfg) int {
	if cfg.small {
		return 1
	}
	return setupReps
}

// runPhase runs passes until budget seconds are spent, and at least one pass
// and enough ops for a p90 (see tailOK). After each pass it calls between,
// if not nil, with the seconds spent so far.
func (o *outcome) runPhase(pl plan, budget float64, tr *tracer, between func(elapsed float64) error) (*phase, error) {
	ph := &phase{acc: &layerAcc{}, tr: tr}
	var prof bytes.Buffer
	var m0, m1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&m0)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	for len(ph.walls) == 0 || !tailOK(len(ph.lats), 0.9) || time.Since(start).Seconds() < budget {
		if err := o.runPass(pl, ph); err != nil {
			pprof.StopCPUProfile()
			return nil, err
		}
		if between != nil {
			if err := between(time.Since(start).Seconds()); err != nil {
				return nil, err
			}
		}
	}
	if tr != nil {
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&m1)
		ph.prof = prof.Bytes()
		ph.gcs = m1.NumGC - m0.NumGC
		ph.pauseNS = m1.PauseTotalNs - m0.PauseTotalNs
	}
	return ph, nil
}

// runPass runs one pass: it opens the plan, times every op, closes the pass,
// and checks its digest against the first pass's.
func (o *outcome) runPass(pl plan, ph *phase) error {
	c := &opCtx{tr: ph.tr, acc: ph.acc, h: fnv.New64a()}
	if ph.tr == nil {
		c.ref = o.ref
	}
	ps, err := pl.open(c)
	if err != nil {
		return err
	}
	// Every pass starts from a collected heap, so its GC work does not
	// depend on the garbage the previous pass left.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	resetPeakRSS()
	ph.opsPer = ps.ops()
	// The pass's time is the sum of its ops' latencies: the reference-kernel
	// samples and the bookkeeping between ops are not part of it.
	var wall time.Duration
	for i := range ps.ops() {
		o.nextOp++
		c.op, c.parent, c.check = o.nextOp, 0, 0
		root := c.span("bench.op")
		c.parent = root
		t := time.Now()
		err := ps.run(i, c)
		lat := time.Since(t) - c.check
		c.endSpan(root)
		wall += lat
		ph.lats = append(ph.lats, lat.Seconds()*1e3)
		c.refBreak()
		if err != nil {
			ph.failed++
			o.fail(err)
		}
	}
	runtime.ReadMemStats(&m1)
	ph.walls = append(ph.walls, wall.Seconds())
	ph.allocs = append(ph.allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	ph.peaks = append(ph.peaks, peakRSSMiB())

	c.op, c.parent = 0, 0
	if err := ps.close(c); err != nil {
		o.diverged = true
		o.fail(fmt.Errorf("closing pass: %w", err))
	}
	d := c.h.Sum64()
	if o.passes == 0 {
		o.digest = d
	} else if d != o.digest {
		o.diverged = true
		o.fail(fmt.Errorf("pass %d digest %016x differs from the first pass's %016x", o.passes, d, o.digest))
	}
	o.passes++
	return nil
}

// goldenSeed is the seed whose digests bench/golden.json pins.
const goldenSeed = 1

// checkGolden compares a goldenSeed run's digest with the one
// bench/golden.json pins for the workload. A mismatch means a simulated
// statistic changed, and fails every op of the run.
func (o *outcome) checkGolden(root, name string) error {
	b, err := os.ReadFile(filepath.Join(root, "bench", "golden.json"))
	if err != nil {
		return err
	}
	var digests map[string]string
	if err := json.Unmarshal(b, &digests); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	if want := digests[name]; fmt.Sprintf("%016x", o.digest) != want {
		o.diverged = true
		o.fail(fmt.Errorf("digest %016x differs from golden %s: a simulated statistic changed", o.digest, want))
	}
	return nil
}
