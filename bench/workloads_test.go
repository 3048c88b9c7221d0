package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime/pprof"
	"testing"
	"time"
)

// smallRun runs a workload on tiny inputs: one set-up and one pass per
// phase.
func smallRun(t *testing.T, w workload, traced bool) *outcome {
	t.Helper()
	o, err := runWorkload(w, runCfg{seed: 7, seconds: 1e-9, traced: traced, small: true})
	if err != nil {
		t.Fatal(err)
	}
	if f := o.failed(); f != 0 {
		t.Fatalf("%d of %d ops failed: %v", f, o.attempted(), o.errs)
	}
	return o
}

// TestWorkloads runs every workload twice, once traced, and checks that no
// op fails, that both runs (and the traced pass) fold the same digest, that
// every metric BENCHMARK.json declares is measured, and that each workload
// drives the traffic it exists for.
func TestWorkloads(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain, traced := smallRun(t, w, false), smallRun(t, w, true)
			if plain.digest != traced.digest {
				t.Errorf("digest %016x untraced, %016x traced", plain.digest, traced.digest)
			}
			if _, err := newReport(plain, spec.EndToEnd, endToEnd(w, plain)); err != nil {
				t.Error(err)
			}
			m, err := perLayer(traced)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := newReport(traced, spec.PerLayer, m); err != nil {
				t.Error(err)
			}
			checkTraffic(t, w.name, m, traced.traced.tr.totals())
		})
	}
}

// checkTraffic is the anti-vacuity guard: each workload must exercise the
// mechanism it was chosen for.
func checkTraffic(t *testing.T, name string, m map[string]float64, spans map[string]*spanTotals) {
	t.Helper()
	want := func(what string, ok bool) {
		if !ok {
			t.Errorf("%s: %s (metrics %v)", name, what, m)
		}
	}
	switch name {
	case "fleet-deploy":
		want("L0 mmu_lock contended", m["vclock.l0_mmu.contended_ratio"] > 0)
		want("several vCPUs per op", m["vclock.solo_share"] == 0)
	case "fault-storm":
		want("guest faults", m["sim.guest_faults"] > 0)
		want("solo share 1", m["vclock.solo_share"] == 1)
	case "tlb-sweep":
		want("no guest faults in the timed phase", m["sim.guest_faults"] == 0)
		want("sweeps", m["guest.touch_range.calls"] > 0)
		want("solo share 1", m["vclock.solo_share"] == 1)
	case "vma-lifecycle":
		want("COW breaks", m["sim.cow_breaks"] > 0)
		want("dirty pages collected", spans["guest.dirty_collect"] != nil && spans["guest.dirty_collect"].pages > 0)
		want("solo share 1", m["vclock.solo_share"] == 1)
	case "fuzz-mix":
		want("simulator trace events", m["trace.events"] > 0)
		want("guest faults", m["sim.guest_faults"] > 0)
	default:
		t.Errorf("no traffic check for workload %s", name)
	}
}

// TestGoldenDigests runs one full-size pass of every workload at the golden
// seed and checks bench/golden.json: a mismatch means a simulated statistic
// changed (regenerate with -write-golden only when that is intended).
func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size passes")
	}
	b, err := os.ReadFile("golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]string
	if err := json.Unmarshal(b, &golden); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		o, err := runWorkload(w, runCfg{seed: goldenSeed, seconds: 1e-9})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if f := o.failed(); f != 0 {
			t.Errorf("%s: %d ops failed: %v", w.name, f, o.errs)
		}
		if got := fmt.Sprintf("%016x", o.digest); got != golden[w.name] {
			t.Errorf("%s: digest %s, golden %s", w.name, got, golden[w.name])
		}
	}
}

// TestPkgShares profiles simulator work and checks that the profile decodes
// and attributes samples to simulator packages.
func TestPkgShares(t *testing.T) {
	pl, err := planFaultStorm(3, true)
	if err != nil {
		t.Fatal(err)
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("profiler busy:", err)
	}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		c := &opCtx{acc: &layerAcc{}, h: fnv.New64a()}
		ps, _ := pl.open(c)
		for i := range ps.ops() {
			if err := ps.run(i, c); err != nil {
				pprof.StopCPUProfile()
				t.Fatal(err)
			}
		}
	}
	pprof.StopCPUProfile()
	shares, samples, err := pkgShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Skip("no CPU samples")
	}
	var total, sim float64
	for pkg, s := range shares {
		total += s
		if pkg != otherPkg {
			sim += s
		}
	}
	if math.Abs(total-100) > 1e-9 || sim == 0 {
		t.Errorf("shares %v: total %v%%, simulator %v%%", shares, total, sim)
	}
}

func TestProtoFields(t *testing.T) {
	// Field 1 varint 150, field 2 packed varints {3, 270}, field 3 unpacked
	// varint 7, field 4 fixed64 (skipped).
	msg := []byte{0x08, 0x96, 0x01, 0x12, 0x03, 0x03, 0x8e, 0x02, 0x18, 0x07, 0x21, 1, 2, 3, 4, 5, 6, 7, 8}
	var got []uint64
	err := protoFields(msg, func(num int, v uint64, b []byte) error {
		var err error
		got, err = appendUvarints(got, v, b)
		got = append(got, uint64(1000*num))
		return err
	})
	want := []uint64{150, 1000, 3, 270, 2000, 7, 3000}
	if err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("fields %v, %v; want %v", got, err, want)
	}
	if err := protoFields([]byte{0x12, 0x05, 0x01}, func(int, uint64, []byte) error { return nil }); err == nil {
		t.Error("truncated field accepted")
	}
}
