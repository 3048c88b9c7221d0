package main

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// The simulator's cost model was calibrated against a handful of cells of
// the paper's evaluation (EXPERIMENTS.md). The tests below locate each of
// those cells in results_default.txt, the committed output of the default
// grid, and pin the mean error against the paper, so that a change which
// moves a calibrated number shows here as well as in the artifact's diff.

// sections splits pvmbench output (results_default.txt) into one section
// per experiment id: the "=== id: title ===" header line through the line
// before the next header, trailing blank lines and the wall-clock footer
// removed.
func sections(text string) map[string]string {
	out := map[string]string{}
	var id string
	var cur strings.Builder
	flush := func() {
		if id != "" {
			out[id] = strings.TrimRight(cur.String(), "\n")
		}
		cur.Reset()
	}
	for _, line := range strings.SplitAfter(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "=== "); ok {
			flush()
			id, _, _ = strings.Cut(rest, ":")
		}
		if strings.HasPrefix(line, "(") && strings.Contains(line, "wall-clock") {
			continue
		}
		cur.WriteString(line)
	}
	flush()
	return out
}

// paperCell is one number the paper reports for a calibrated cell, located
// in the simulator's output by section, row, and column.
type paperCell struct {
	exp   string  // experiment id
	row   string  // the row's label fields joined by one space
	col   int     // index among the row's numeric fields
	part  int     // for "on/off" cells: 0 = KPTI on, 1 = KPTI off
	paper float64 // the paper's value
}

// paperCells are the calibrated cells: the world-switch costs (§2.2,
// §3.3.2), Table 1 with KPTI on, Table 2, and Table 4's protection- and
// page-fault latencies. Everywhere else the simulator reproduces shape, not
// magnitude, and is unvalidated. The paper gives pvm's direct-switch getpid
// as 0.29–0.30 µs; the midpoint stands for it.
var paperCells = []paperCell{
	{"switchcost", "single-level (L1↔L0, VMX)", 0, 0, 0.105},
	{"switchcost", "nested (L2↔L1 via L0)", 0, 0, 1.3},
	{"switchcost", "PVM switcher (L2↔L1)", 0, 0, 0.179},

	// Table 1 columns: kvm (BM), pvm (BM), kvm (NST), pvm (NST).
	{"table1", "Hypercall", 0, 0, 0.46}, {"table1", "Hypercall", 1, 0, 0.54},
	{"table1", "Hypercall", 2, 0, 7.43}, {"table1", "Hypercall", 3, 0, 0.48},
	{"table1", "Exception", 0, 0, 1.66}, {"table1", "Exception", 1, 0, 1.67},
	{"table1", "Exception", 2, 0, 9.20}, {"table1", "Exception", 3, 0, 2.21},
	{"table1", "MSR access", 0, 0, 0.87}, {"table1", "MSR access", 1, 0, 2.53},
	{"table1", "MSR access", 2, 0, 8.18}, {"table1", "MSR access", 3, 0, 2.88},
	{"table1", "CPUID", 0, 0, 0.54}, {"table1", "CPUID", 1, 0, 0.60},
	{"table1", "CPUID", 2, 0, 7.10}, {"table1", "CPUID", 3, 0, 0.51},
	{"table1", "PIO", 0, 0, 3.79}, {"table1", "PIO", 1, 0, 4.91},
	{"table1", "PIO", 2, 0, 29.34}, {"table1", "PIO", 3, 0, 12.94},

	{"table2", "kvm-ept (BM)", 0, 0, 0.22}, {"table2", "kvm-ept (BM)", 0, 1, 0.06},
	{"table2", "kvm-spt (BM)", 0, 0, 2.09}, {"table2", "kvm-spt (BM)", 0, 1, 0.06},
	{"table2", "pvm (BM) none", 0, 0, 1.91}, {"table2", "pvm (BM) none", 0, 1, 1.91},
	{"table2", "pvm (BM) direct-switch", 0, 0, 0.295}, {"table2", "pvm (BM) direct-switch", 0, 1, 0.295},
	{"table2", "kvm (NST)", 0, 0, 0.23}, {"table2", "kvm (NST)", 0, 1, 0.06},

	// Table 4 numeric columns 5 and 6: prot fault, page fault.
	{"table4", "kvm-ept (BM)", 5, 0, 0.66}, {"table4", "kvm-ept (BM)", 6, 0, 0.15},
	{"table4", "pvm (NST)", 5, 0, 2.69}, {"table4", "pvm (NST)", 6, 0, 1.01},
	{"table4", "kvm-ept (NST)", 5, 0, 0.69}, {"table4", "kvm-ept (NST)", 6, 0, 0.19},
}

// calibErrPct returns the mean absolute relative error, in percent, of the
// simulator's output against every paper cell. out maps experiment ids to
// their output sections.
func calibErrPct(out map[string]string) (float64, error) {
	var sum float64
	for _, c := range paperCells {
		v, err := cellValue(out[c.exp], c)
		if err != nil {
			return 0, err
		}
		sum += math.Abs(v-c.paper) / c.paper
	}
	return 100 * sum / float64(len(paperCells)), nil
}

// cellValue finds c's value in an experiment's output section. Table
// columns are separated by at least two spaces; a row's label is its
// non-numeric fields, and an "on/off" field holds two numbers.
func cellValue(section string, c paperCell) (float64, error) {
	for _, line := range strings.Split(section, "\n") {
		var label []string
		var nums [][]float64
		for _, f := range strings.Split(line, "  ") {
			if f = strings.TrimSpace(f); f == "" {
				continue
			}
			if v, ok := parseCell(f); ok {
				nums = append(nums, v)
			} else {
				label = append(label, f)
			}
		}
		if strings.Join(label, " ") != c.row {
			continue
		}
		if c.col < len(nums) && c.part < len(nums[c.col]) {
			return nums[c.col][c.part], nil
		}
	}
	return 0, fmt.Errorf("calibration: %s has no row %q with column %d part %d", c.exp, c.row, c.col, c.part)
}

// parseCell parses "1.23" or "1.23/4.56".
func parseCell(f string) ([]float64, bool) {
	var vs []float64
	for _, p := range strings.Split(f, "/") {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, false
		}
		vs = append(vs, v)
	}
	return vs, true
}

func referenceSections(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile("../results_default.txt")
	if err != nil {
		t.Fatal(err)
	}
	return sections(string(b))
}

// TestSectionsCoverTheGrid checks that results_default.txt splits into one
// section per core experiment, footer excluded.
func TestSectionsCoverTheGrid(t *testing.T) {
	secs := referenceSections(t)
	for _, e := range experiments.List() {
		s, ok := secs[e.ID]
		if e.Extra {
			if ok {
				t.Errorf("extra experiment %s has a section", e.ID)
			}
			continue
		}
		if !ok || !strings.HasPrefix(s, "=== "+e.ID+": ") {
			t.Errorf("no section for %s", e.ID)
		}
		if strings.Contains(s, "wall-clock") || strings.HasSuffix(s, "\n") {
			t.Errorf("section %s keeps the footer or trailing newlines", e.ID)
		}
	}
}

// TestPaperCellsFound checks that every calibrated paper cell is found in
// results_default.txt, and pins the calibration error the artifact gives.
func TestPaperCellsFound(t *testing.T) {
	secs := referenceSections(t)
	for _, c := range paperCells {
		if _, err := cellValue(secs[c.exp], c); err != nil {
			t.Error(err)
		}
	}
	got, err := calibErrPct(secs)
	if err != nil {
		t.Fatal(err)
	}
	const want = 5.911137 // percent, mean over the paper cells
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("calibration error %.7f%%, want %.6f%%", got, want)
	}
}

func TestCellValue(t *testing.T) {
	section := strings.Join([]string{
		"Table 2",
		"               Optimization   Syscall (µs, KPTI on/off)",
		"kvm-ept (BM)                                  0.21/0.06",
		"pvm (BM)               none                   1.91/1.91",
		"pvm (BM)      direct-switch                   0.29/0.28",
	}, "\n")
	for _, tc := range []struct {
		c    paperCell
		want float64
	}{
		{paperCell{row: "kvm-ept (BM)", part: 1}, 0.06},
		{paperCell{row: "pvm (BM) none"}, 1.91},
		{paperCell{row: "pvm (BM) direct-switch", part: 1}, 0.28},
	} {
		got, err := cellValue(section, tc.c)
		if err != nil || got != tc.want {
			t.Errorf("%q part %d = %v, %v; want %v", tc.c.row, tc.c.part, got, err, tc.want)
		}
	}
	if _, err := cellValue(section, paperCell{exp: "table2", row: "kvm (NST)"}); err == nil {
		t.Error("missing row found")
	}
	if _, err := cellValue(section, paperCell{exp: "table2", row: "pvm (BM) none", col: 1}); err == nil {
		t.Error("missing column found")
	}
}
