package main

import (
	"bytes"
	"math"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(data, n=4) gives, which is how spreads are judged.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{5, 1}, 0, 3, 6}, // extrapolated past the extremes, as Python does
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		q1, q2, q3 := quartiles(tc.data)
		if !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.data, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		data []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		if got := median(tc.data); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.data, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

// TestPercentileRule checks that a tail percentile counts as reportable
// only with at least ten samples beyond it.
func TestPercentileRule(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		want   float64
		enough bool
	}{
		{99, 90, false}, // 9 samples beyond
		{100, 90, true}, // 10 samples beyond
		{1000, 900, true},
	} {
		v, ok := percentile(ramp(tc.n), 0.9)
		if v != tc.want || ok != tc.enough {
			t.Errorf("p90 of 1..%d = %v (enough %v), want %v (%v)", tc.n, v, ok, tc.want, tc.enough)
		}
	}
	if v, ok := percentile(ramp(100), 0.5); v != 50 || !ok {
		t.Errorf("p50 of 1..100 = %v (%v)", v, ok)
	}
}

func TestFailRatio(t *testing.T) {
	if got := failRatio(0, 120); got != 0 {
		t.Errorf("failRatio(0, 120) = %v", got)
	}
	if got := failRatio(3, 120); got != 0.025 {
		t.Errorf("failRatio(3, 120) = %v", got)
	}
	if got := failRatio(0, 0); got != 0 {
		t.Errorf("failRatio(0, 0) = %v", got)
	}
}

// TestBenchmarkSpec checks BENCHMARK.json against the limits its readers
// enforce and against the workloads this package runs.
func TestBenchmarkSpec(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why %q) vs %q", i, w.Name, w.Why, workloads[i].name)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	var setupBound float64
	var bounds []float64
	for _, m := range append(slices.Clone(spec.EndToEnd), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q (unit %q) is malformed or repeated", m.Name, m.Unit)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			continue
		}
		bounds = append(bounds, *m.Bound)
		if m.Name == "setup_s" {
			setupBound = *m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s: unit %s, better %s", m.Unit, m.Better)
			}
		}
	}
	if setupBound == 0 || setupBound < slices.Max(bounds) {
		t.Errorf("setup_s bound %v is not the largest of %v", setupBound, bounds)
	}
	for _, m := range spec.PerLayer {
		if m.Bound != nil {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
}

// TestCompareRunsBounds applies the comparison rule with the bounds
// BENCHMARK.json declares.
func TestCompareRunsBounds(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		bound := *m.Bound
		dir := 1.0 // the direction that makes a value worse
		if m.Better == "higher" {
			dir = -1
		}
		// The parent's runs: tight, spread 0.1% of the median.
		parent := make([]float64, 12)
		for i := range parent {
			parent[i] = 100 + 0.01*float64(i%5)
		}
		shift := func(share float64, jitter float64) []float64 {
			out := make([]float64, len(parent))
			for i, v := range parent {
				out[i] = v*(1+dir*share) + jitter*float64(i%2)
			}
			return out
		}
		for _, tc := range []struct {
			change []float64
			want   string
		}{
			{shift(1.5*bound, 0), "regression"},
			{shift(0.5*bound, 0), "level"},
			{shift(-2*bound, 0), "gain"},
			{shift(0, 100*(bound+0.1)), "unresolved"}, // spread beyond the bound
			{shift(1.5*bound, 0)[:minPairs-1], "too few pairs (9 < 10)"},
		} {
			if v := compareRuns(parent, tc.change, m.Better, bound); v.outcome != tc.want {
				t.Errorf("%s (bound %v): %s, want %s", m.Name, bound, v.outcome, tc.want)
			}
		}
	}
}

// TestCompareFiles runs -compare over two JSONL files: level metrics pass,
// and a change that fails a larger share of its ops is a regression.
func TestCompareFiles(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, failedAt int) string {
		path := filepath.Join(t.TempDir(), name)
		for i := range minPairs {
			rep := &report{Correct: i != failedAt, Attempted: 100, Metrics: map[string]metricValue{}}
			if !rep.Correct {
				rep.Failed = 1
			}
			for _, m := range spec.EndToEnd {
				rep.Metrics[m.Name] = metricValue{100 + float64(i%3), m.Unit}
			}
			if err := appendRecord(path, record{Workload: "fault-storm", Seed: uint64(i), Result: rep}); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	parent, same, failing := write("parent", -1), write("same", -1), write("failing", 4)
	var out bytes.Buffer
	if err := compareFiles(&out, spec, parent, same); err != nil {
		t.Errorf("identical runs: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, spec, parent, failing); err == nil || !strings.Contains(out.String(), "1/1000") {
		t.Errorf("a failed op was not a regression: %v\n%s", err, out.String())
	}
}

// TestCompareRunsDominance checks that a change whose every run beats every
// parent run is never unresolved, however wide the spread.
func TestCompareRunsDominance(t *testing.T) {
	var parent, change []float64
	for i := range 10 {
		parent = append(parent, 200+30*float64(i))
		change = append(change, 100+8*float64(i))
	}
	if v := compareRuns(parent, change, "lower", 0.1); v.outcome == "unresolved" || v.outcome == "regression" {
		t.Errorf("dominating change judged %s", v.outcome)
	}
}
