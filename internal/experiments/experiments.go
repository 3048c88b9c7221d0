// Package experiments regenerates every table and figure of the paper's
// evaluation (§2 and §4) on the simulator: Table 1 (VM exit/entry latency),
// Table 2 (syscall latency), Figure 2 (nested overhead analysis), Figure 4
// (nested memory virtualization), Tables 3–4 (LMbench), Figure 10 (guest
// page-fault scaling and PVM ablations), Figure 11 (applications), Figure 12
// (high-density fluidanimate), Figure 13 (CloudSuite), and the world-switch
// cost measurement quoted in §2.2/§3.3.2.
//
// Every experiment is deterministic: identical scales produce identical
// output bytes.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Scale sizes the experiments. The paper's workloads run minutes on a
// 104-thread server; the defaults here shrink iteration counts and working
// sets while preserving every per-operation cost and contention mechanism,
// so ratios and crossovers are unchanged.
type Scale struct {
	// MicroIters is the iteration count for latency microbenchmarks.
	MicroIters int
	// MembenchMiB is the per-process working set of the Figure 4/10
	// memory benchmark (the paper uses 4096 MiB).
	MembenchMiB int
	// LMIters is the iteration count for LMbench operations.
	LMIters int
	// AppRounds is the per-container round count for Figure 11 apps.
	AppRounds int
	// CloudRounds and CloudDatasetPages size Figure 13.
	CloudRounds       int
	CloudDatasetPages int
	// Cores is the simulated machine's hardware parallelism (the paper's
	// testbed: 2×26 cores, hyperthreaded = 104).
	Cores int
	// DensityLevels are the Figure 12 container counts.
	DensityLevels []int
	// Fig10Procs are the Figure 10 process counts.
	Fig10Procs []int
	// Fig4Procs are the Figure 4 process counts.
	Fig4Procs []int
	// Fig11Concurrency are the Figure 11 container counts.
	Fig11Concurrency []int
	// Parallel is the number of host worker goroutines used to fan the
	// independent simulation cells of an experiment grid (one isolated
	// Engine per cell) across CPUs. Zero or one runs cells serially.
	// Results are always assembled in cell-index order, so the output
	// bytes are identical at every setting.
	Parallel int

	// PrecopyRatePages is the pre-copy migration mutator's dirty rate in
	// pages per virtual millisecond, PrecopyThreshold the stop-and-copy
	// trigger (a round's dirty set at or below it converges), and
	// PrecopyRounds the round budget after the initial full copy.
	PrecopyRatePages int
	PrecopyThreshold int
	PrecopyRounds    int
}

// DefaultScale returns a laptop-friendly scale (seconds per experiment).
func DefaultScale() Scale {
	return Scale{
		MicroIters:        64,
		MembenchMiB:       4,
		LMIters:           32,
		AppRounds:         6,
		CloudRounds:       4,
		CloudDatasetPages: 512,
		Cores:             104,
		DensityLevels:     []int{50, 100, 150},
		Fig10Procs:        []int{1, 2, 4, 8, 16, 32},
		Fig4Procs:         []int{1, 4, 16},
		Fig11Concurrency:  []int{1, 4, 16},
		PrecopyRatePages:  400,
		PrecopyThreshold:  16,
		PrecopyRounds:     30,
	}
}

// QuickScale is a minimal scale for tests.
func QuickScale() Scale {
	s := DefaultScale()
	s.MicroIters = 8
	s.MembenchMiB = 1
	s.LMIters = 4
	s.AppRounds = 2
	s.CloudRounds = 2
	s.CloudDatasetPages = 96
	s.DensityLevels = []int{4, 8}
	s.Fig10Procs = []int{1, 4}
	s.Fig4Procs = []int{1, 4}
	s.Fig11Concurrency = []int{1, 4}
	return s
}

// FullScale approaches the paper's sizes (minutes per experiment).
func FullScale() Scale {
	s := DefaultScale()
	s.MicroIters = 256
	s.MembenchMiB = 64
	s.LMIters = 128
	s.AppRounds = 24
	s.CloudRounds = 10
	s.CloudDatasetPages = 2048
	return s
}

// Experiment is one regenerable paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(sc Scale, w io.Writer) error

	// Extra marks artifacts beyond the paper's core evaluation (e.g. the
	// pre-copy migration study built on dirty-page logging). RunAll — and
	// with it the pinned results_default.txt — skips them; Run executes
	// them on explicit request.
	Extra bool
}

var registry = map[string]Experiment{}

func register(e Experiment) { registry[e.ID] = e }

// Get returns the experiment with the given id.
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// List returns all experiments sorted by id.
func List() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// IDs returns every registered experiment id, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by id.
func Run(id string, sc Scale, w io.Writer) error {
	e, ok := Get(id)
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (valid: all, %s)",
			id, strings.Join(IDs(), ", "))
	}
	fmt.Fprintf(w, "=== %s: %s ===\n", e.ID, e.Title)
	return e.Run(sc, w)
}

// RunAll executes every non-Extra experiment in id order.
func RunAll(sc Scale, w io.Writer) error {
	for _, e := range List() {
		if e.Extra {
			continue
		}
		if err := Run(e.ID, sc, w); err != nil {
			return fmt.Errorf("experiments: %s: %w", e.ID, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// us formats virtual nanoseconds as microseconds.
func us(ns int64) string { return fmt.Sprintf("%.2f", float64(ns)/1000) }

// seconds formats virtual nanoseconds as seconds.
func seconds(ns int64) string { return fmt.Sprintf("%.3f", float64(ns)/1e9) }
