package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// synthetic `go test -bench` output exercising every grid the parser knows,
// with -count 2 duplicates to check min-folding and decoy lines that must
// not parse (a contention arm other than serial, from older runs, among
// them).
const syntheticBench = `goos: linux
goarch: amd64
pkg: repro
BenchmarkTouchRangeResident/KVMEPTBareMetal-8     2000000   11.27 ns/op   0 B/op
BenchmarkTouchRangeResident/KVMEPTBareMetal-8     2000000   10.95 ns/op   0 B/op
BenchmarkTouchRangeResidentPerPage/KVMEPTBareMetal-8   2000000   21.90 ns/op
BenchmarkColdFaultRange/PVMNested-8   500000   80.00 ns/op
BenchmarkColdFault/PVMNested-8        500000  240.00 ns/op
BenchmarkProcessLifecycle/fork/PVMNested/pages=256-8   2000   5000 ns/op
BenchmarkProcessLifecyclePerLeaf/fork/PVMNested/pages=256-8   2000   15000 ns/op
BenchmarkMultiVCPUContention/PVMNested/vcpus=4/serial-8    500000   41.00 ns/op
BenchmarkMultiVCPUContention/PVMNested/vcpus=4/serial-8    500000   40.00 ns/op
BenchmarkMultiVCPUContention/PVMNested/vcpus=4/parallel-8  500000   20.00 ns/op
BenchmarkDirtyScan/KVMEPTBareMetal-8   1000000   14.50 ns/op
BenchmarkDirtyScan/KVMEPTBareMetal-8   1000000   13.75 ns/op
BenchmarkDirtyScan/PVMNested-8         1000000   95.30 ns/op
BenchmarkPreCopy-8   20   1234567 ns/op
BenchmarkPreCopy-8   20   1200000 ns/op
BenchmarkDirtyScanner/Bogus-8  1000   1.00 ns/op
PASS
`

func newTestReport() *report {
	return &report{
		TouchRange: map[string]map[string]*pair{"resident": {}, "faulting": {}},
		ColdFault:  map[string]*pair{},
		Lifecycle:  map[string]*lcPair{},
		MultiVCPU:  map[string]*contCell{},
		DirtyScan:  map[string]float64{},
	}
}

func TestParseBenchLines(t *testing.T) {
	rep := newTestReport()
	if err := parseBenchLines(rep, []byte(syntheticBench)); err != nil {
		t.Fatal(err)
	}
	p := rep.TouchRange["resident"]["KVMEPTBareMetal"]
	if p == nil {
		t.Fatal("resident/KVMEPTBareMetal pair missing")
	}
	if p.RangedNs != 10.95 { // min of the two -count runs
		t.Errorf("ranged ns = %v, want min-folded 10.95", p.RangedNs)
	}
	if p.PerPageNs != 21.90 || p.Speedup != 2.0 {
		t.Errorf("pair = %+v, want per-page 21.90 speedup 2.0", p)
	}
	if c := rep.ColdFault["PVMNested"]; c == nil || c.RangedNs != 80 || c.PerPageNs != 240 {
		t.Errorf("cold fault pair = %+v", c)
	}
	if lc := rep.Lifecycle["fork/PVMNested/pages=256"]; lc == nil || lc.FastNs != 5000 || lc.PerLeafNs != 15000 {
		t.Errorf("lifecycle pair = %+v", lc)
	}
	if mv := rep.MultiVCPU["PVMNested/vcpus=4"]; mv == nil || mv.SerialNs != 40 {
		t.Errorf("contention cell = %+v, want min-folded serial 40", mv)
	}
	if got := rep.DirtyScan["KVMEPTBareMetal"]; got != 13.75 {
		t.Errorf("dirty scan KVMEPTBareMetal = %v, want min-folded 13.75", got)
	}
	if got := rep.DirtyScan["PVMNested"]; got != 95.30 {
		t.Errorf("dirty scan PVMNested = %v, want 95.30", got)
	}
	if len(rep.DirtyScan) != 2 {
		t.Errorf("dirty scan parsed %d configs (decoy line leaked?): %v", len(rep.DirtyScan), rep.DirtyScan)
	}
	if rep.PrecopyNs != 1200000 {
		t.Errorf("precopy ns = %v, want min-folded 1200000", rep.PrecopyNs)
	}
}

func TestParseBenchLinesEmpty(t *testing.T) {
	if err := parseBenchLines(newTestReport(), []byte("PASS\n")); err == nil {
		t.Error("no-benchmark output did not error")
	}
}

// writeArtifact marshals a report to a temp file and returns its path.
func writeArtifact(t *testing.T, name string, rep report) string {
	t.Helper()
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// baseArtifact is a minimal self-consistent report both diff sides start from.
func baseArtifact() report {
	return report{
		PR:                  "old",
		Benchtime:           "2000000x",
		ContentionBenchtime: "500000x",
		LifecycleBenchtime:  "2000x",
		PrecopyBenchtime:    "20x",
		GOMAXPROCS:          8,
		TouchRange: map[string]map[string]*pair{
			"resident": {"PVMNested": {RangedNs: 10, PerPageNs: 20, Speedup: 2}},
			"faulting": {},
		},
		DirtyScan: map[string]float64{"PVMNested": 95},
		PrecopyNs: 1e6,
	}
}

func TestDiffRefusesMismatchedBenchtime(t *testing.T) {
	oldRep, newRep := baseArtifact(), baseArtifact()
	newRep.Benchtime = "100x"
	oldPath := writeArtifact(t, "old.json", oldRep)
	newPath := writeArtifact(t, "new.json", newRep)
	if code := diffReports(oldPath, newPath, 1.10, false); code != 2 {
		t.Errorf("mismatched benchtime: exit %d, want 2", code)
	}
	if code := diffReports(oldPath, newPath, 1.10, true); code != 0 {
		t.Errorf("mismatched benchtime with -force: exit %d, want 0", code)
	}
}

func TestDiffRefusesMismatchedPrecopyBenchtime(t *testing.T) {
	oldRep, newRep := baseArtifact(), baseArtifact()
	newRep.PrecopyBenchtime = "5x"
	oldPath := writeArtifact(t, "old.json", oldRep)
	newPath := writeArtifact(t, "new.json", newRep)
	if code := diffReports(oldPath, newPath, 1.10, false); code != 2 {
		t.Errorf("mismatched precopy benchtime: exit %d, want 2", code)
	}
	if code := diffReports(oldPath, newPath, 1.10, true); code != 0 {
		t.Errorf("mismatched precopy benchtime with -force: exit %d, want 0", code)
	}
}

func TestDiffRefusesMismatchedGOMAXPROCS(t *testing.T) {
	oldRep, newRep := baseArtifact(), baseArtifact()
	newRep.GOMAXPROCS = 1
	oldPath := writeArtifact(t, "old.json", oldRep)
	newPath := writeArtifact(t, "new.json", newRep)
	if code := diffReports(oldPath, newPath, 1.10, false); code != 2 {
		t.Errorf("mismatched GOMAXPROCS: exit %d, want 2", code)
	}
}

func TestDiffMissingFieldIsUnknownNotMismatch(t *testing.T) {
	// An artifact from before a benchtime field existed (empty string / zero)
	// must not trip the refusal: missing means unknown, not different.
	oldRep, newRep := baseArtifact(), baseArtifact()
	oldRep.PrecopyBenchtime = ""
	oldRep.GOMAXPROCS = 0
	oldPath := writeArtifact(t, "old.json", oldRep)
	newPath := writeArtifact(t, "new.json", newRep)
	if code := diffReports(oldPath, newPath, 1.10, false); code != 0 {
		t.Errorf("missing fields treated as mismatch: exit %d, want 0", code)
	}
}

func TestDiffFlagsRegression(t *testing.T) {
	oldRep, newRep := baseArtifact(), baseArtifact()
	newRep.DirtyScan["PVMNested"] = oldRep.DirtyScan["PVMNested"] * 2 // 2x slower
	oldPath := writeArtifact(t, "old.json", oldRep)
	newPath := writeArtifact(t, "new.json", newRep)
	if code := diffReports(oldPath, newPath, 1.10, false); code != 1 {
		t.Errorf("2x dirty-scan regression: exit %d, want 1", code)
	}
	// Below threshold, or threshold disabled: pass.
	if code := diffReports(oldPath, newPath, 2.50, false); code != 0 {
		t.Errorf("regression below threshold: exit %d, want 0", code)
	}
	if code := diffReports(oldPath, newPath, 0, false); code != 0 {
		t.Errorf("threshold disabled: exit %d, want 0", code)
	}
}

func TestDiffFlagsPrecopyRegression(t *testing.T) {
	oldRep, newRep := baseArtifact(), baseArtifact()
	newRep.PrecopyNs = oldRep.PrecopyNs * 1.5
	oldPath := writeArtifact(t, "old.json", oldRep)
	newPath := writeArtifact(t, "new.json", newRep)
	if code := diffReports(oldPath, newPath, 1.10, false); code != 1 {
		t.Errorf("precopy regression: exit %d, want 1", code)
	}
}

func TestDiffToleratesOneSidedSections(t *testing.T) {
	// The old artifact predates the dirty-log PR: no DirtyScan section, no
	// PrecopyNs. The new one has both. "new" cells are reported, never failed.
	oldRep, newRep := baseArtifact(), baseArtifact()
	oldRep.DirtyScan = nil
	oldRep.PrecopyNs = 0
	oldRep.PrecopyBenchtime = ""
	newRep.DirtyScan["KVMEPTBareMetal"] = 14 // and a gone cell the other way
	oldPath := writeArtifact(t, "old.json", oldRep)
	newPath := writeArtifact(t, "new.json", newRep)
	if code := diffReports(oldPath, newPath, 1.10, false); code != 0 {
		t.Errorf("one-sided dirty/precopy sections: exit %d, want 0", code)
	}
	// And the mirror image: sections vanished entirely.
	if code := diffReports(newPath, oldPath, 1.10, false); code != 0 {
		t.Errorf("gone dirty/precopy sections: exit %d, want 0", code)
	}
}

// TestCommittedArtifactsCarryContentionCells: the artifacts bench-diff and
// the CI bench gate read still load, and their contention cells keep the
// serial arm -diff compares.
func TestCommittedArtifactsCarryContentionCells(t *testing.T) {
	for _, name := range []string{"BENCH_pr8.json", "BENCH_pr9.json"} {
		rep, err := loadReport(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.MultiVCPU) == 0 {
			t.Fatalf("%s: no contention cells loaded", name)
		}
		for key, c := range rep.MultiVCPU {
			if c.SerialNs <= 0 {
				t.Errorf("%s: %s has no serial arm", name, key)
			}
		}
	}
}

func TestDiffRejectsUnreadableArtifact(t *testing.T) {
	goodPath := writeArtifact(t, "good.json", baseArtifact())
	if code := diffReports(filepath.Join(t.TempDir(), "absent.json"), goodPath, 1.10, false); code != 2 {
		t.Error("missing old artifact did not exit 2")
	}
	badPath := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(badPath, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := diffReports(goodPath, badPath, 1.10, false); code != 2 {
		t.Error("corrupt new artifact did not exit 2")
	}
}
