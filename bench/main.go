// Command bench is the simulator's end-to-end benchmark. One invocation runs
// one workload in its own process at a pinned GOMAXPROCS, a closed loop of
// ops driven by one goroutine, and prints one JSON result line last:
//
//	bench -workload fault-storm -seed 3 -seconds 20 -trace 0
//	bench -workload fault-storm -seed 3 -seconds 20 -trace 1 -spans spans.json
//	bench -workload all -seed 1 -out runs.jsonl
//	bench -compare parent.jsonl change.jsonl
//	bench -write-golden
//
// bench/run.sh builds it from source and runs it from the repository root;
// see bench/README.md for the workloads, the metrics and how to compare two
// commits.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

// gomaxprocs is the host parallelism every run pins: the simulator's engine
// runs measurably slower at 2 than at 1 (its goroutine handoffs cross
// CPUs), so the value must be fixed rather than inherited.
const gomaxprocs = 2

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

// deadline bounds a one-workload run of the given timed seconds; a run that
// hangs exits with an error instead. Set-up and the pass in flight when the
// time runs out take well under a minute.
func deadline(seconds float64) time.Duration {
	return time.Minute + time.Duration(2*seconds*float64(time.Second))
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run, or all")
		seed    = fs.Uint64("seed", goldenSeed, "input seed")
		seconds = fs.Float64("seconds", 0, "timed host seconds (default: run_seconds in BENCHMARK.json)")
		traced  = fs.Int("trace", 0, "1: traced run, reporting the per-layer metrics")
		spans   = fs.String("spans", "", "traced run: write the recorded spans to this JSON file")
		out     = fs.String("out", "", "append the run's record to this JSONL file")
		compare = fs.Bool("compare", false, "compare two JSONL run files: -compare parent.jsonl change.jsonl")
		write   = fs.Bool("write-golden", false, "rewrite bench/golden.json from one pass of every workload at seed 1")
		root    = fs.String("root", ".", "repository root")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := loadSpec(*root)
	if err != nil {
		return err
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return errors.New("-compare needs two JSONL files")
		}
		return compareFiles(stdout, spec, fs.Arg(0), fs.Arg(1))
	case *write:
		return writeGolden(*root, stderr)
	case *name == "all":
		return runAll(args, stdout)
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1, not %d", *traced)
	}
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	limit := deadline(*seconds)
	time.AfterFunc(limit, func() {
		fmt.Fprintf(stderr, "bench: no result after %v\n", limit)
		os.Exit(3)
	})
	procs := min(gomaxprocs, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)

	o, err := runWorkload(w, runCfg{seed: *seed, seconds: *seconds, traced: *traced == 1})
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	if *seed == goldenSeed {
		if err := o.checkGolden(*root, w.name); err != nil {
			return err
		}
	}
	specs, values := spec.EndToEnd, endToEnd(w, o)
	if o.traced != nil {
		specs = spec.PerLayer
		if values, err = perLayer(o); err != nil {
			return err
		}
		if *spans != "" {
			if err := o.traced.tr.write(*spans); err != nil {
				return err
			}
		}
	}
	rep, err := newReport(o, specs, values)
	if err != nil {
		return err
	}
	summarize(stderr, w, *seed, procs, o, rep)
	if *out != "" {
		if err := appendRecord(*out, record{w.name, *seed, *traced, procs, fmt.Sprintf("%016x", o.digest), timeScale(w, o), rep}); err != nil {
			return err
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// summarize prints what the result line does not hold: the run's shape, its
// digest and its first failures.
func summarize(w io.Writer, wl workload, seed uint64, procs int, o *outcome, rep *report) {
	fmt.Fprintf(w, "%s seed %d: GOMAXPROCS %d, %d set-ups, %d passes, %d ops (%d failed), digest %016x\n",
		wl.name, seed, procs, len(o.setups), o.passes, rep.Attempted, rep.Failed, o.digest)
	read := "medians"
	if wl.best {
		read = "each op's fastest time"
	}
	fmt.Fprintf(w, "  reference kernel %.3f ms median, %.3f ms best of %d samples; %s, scaled by %.4f\n",
		1e3*median(o.ref.times), 1e3*o.ref.best(), len(o.ref.times), read, timeScale(wl, o))
	if o.traced != nil && o.traced.tr.dropped > 0 {
		fmt.Fprintf(w, "  %d spans dropped beyond the %d kept\n", o.traced.tr.dropped, maxSpans)
	}
	for _, e := range o.errs {
		fmt.Fprintf(w, "  failed: %s\n", e)
	}
}

// record is one run as -out stores it and -compare reads it.
type record struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Trace      int    `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Digest     string `json:"digest"`
	// SpeedFactor is the scale applied to the run's end-to-end times
	// (reference speed over measured speed).
	SpeedFactor float64 `json:"speed_factor"`
	Result      *report `json:"result"`
}

func appendRecord(path string, r record) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload, each in its own process, passing the other
// flags through.
func runAll(args []string, stdout io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range workloads {
		cmd := exec.Command(self, append(args, "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return nil
}

// writeGolden records every workload's first-pass digest at goldenSeed.
func writeGolden(root string, log io.Writer) error {
	runtime.GOMAXPROCS(min(gomaxprocs, runtime.NumCPU()))
	digests := map[string]string{}
	for _, w := range workloads {
		o, err := runWorkload(w, runCfg{seed: goldenSeed, seconds: 1e-9})
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if f := o.failed(); f != 0 {
			return fmt.Errorf("%s: %d ops failed: %v", w.name, f, o.errs)
		}
		digests[w.name] = fmt.Sprintf("%016x", o.digest)
		fmt.Fprintf(log, "%s %s\n", w.name, digests[w.name])
	}
	b, err := json.MarshalIndent(digests, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "bench", "golden.json"), append(b, '\n'), 0o644)
}

// compareFiles compares every end-to-end metric on every workload between
// a parent's runs and a change's runs, paired in file order, and each
// workload's failed ops: a change may not fail a larger share than the
// parent.
func compareFiles(w io.Writer, spec *benchSpec, parentPath, changePath string) error {
	parent, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	regressed := 0
	const row = "%-14s %-12s %5s %12s %12s %8s %6s %7s  %s\n"
	fmt.Fprintf(w, row, "workload", "metric", "pairs", "parent", "change", "worse", "wins", "spread", "verdict")
	for _, wl := range spec.Workloads {
		pf, pa := failures(parent, wl.Name)
		cf, ca := failures(change, wl.Name)
		if pa+ca > 0 {
			outcome := "level"
			if failRatio(cf, ca) > failRatio(pf, pa) {
				outcome = "regression"
				regressed++
			}
			fmt.Fprintf(w, row, wl.Name, "fail_ratio", "",
				fmt.Sprintf("%d/%d", pf, pa), fmt.Sprintf("%d/%d", cf, ca), "", "", "", outcome)
		}
		for _, m := range spec.EndToEnd {
			a, b := values(parent, wl.Name, m.Name), values(change, wl.Name, m.Name)
			if len(a) == 0 && len(b) == 0 {
				continue
			}
			v := compareRuns(a, b, m.Better, *m.Bound)
			if v.outcome == "regression" {
				regressed++
			}
			fmt.Fprintf(w, "%-14s %-12s %5d %12.6g %12.6g %7.1f%% %6d %6.1f%%  %s (bound %.0f%%)\n",
				wl.Name, m.Name, v.pairs, v.parentMed, v.changeMed, 100*v.worseShare,
				v.wins, 100*v.spread, v.outcome, 100**m.Bound)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed", regressed)
	}
	return nil
}

func readRecords(path string) ([]record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []record
	dec := json.NewDecoder(bytes.NewReader(b))
	for {
		var r record
		if err := dec.Decode(&r); errors.Is(err, io.EOF) {
			return rs, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		rs = append(rs, r)
	}
}

// failures sums a workload's failed and attempted ops over every run.
func failures(rs []record, workload string) (failed, attempted int) {
	for _, r := range rs {
		if r.Workload == workload && r.Result != nil {
			failed += r.Result.Failed
			attempted += r.Result.Attempted
		}
	}
	return failed, attempted
}

// values returns a metric's values over a workload's untraced, correct runs,
// in file order.
func values(rs []record, workload, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if r.Workload != workload || r.Trace != 0 || r.Result == nil || !r.Result.Correct {
			continue
		}
		if m, ok := r.Result.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
