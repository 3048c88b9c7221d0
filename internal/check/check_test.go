package check

import (
	"reflect"
	"strings"
	"testing"
)

// corpusSize reports how many seeds the metamorphic corpus test sweeps.
// The full corpus (acceptance criterion: ≥200 seeds, which at the
// generator's backend weights covers all five MMU strategies many times
// over) runs in normal mode; -short keeps a fast smoke slice for the
// race-instrumented CI lanes.
func corpusSize(t *testing.T) int {
	if testing.Short() {
		return 25
	}
	return 200
}

// TestMetamorphicCorpus is the harness's main theorem: for every seed, the
// baseline replay is deterministic and every fast-path toggle and injected
// fault reproduces its observables bit-identically.
//
// Not parallel: the cursor-bypass variant flips a process-global pagetable
// flag, so variant runs must never overlap.
func TestMetamorphicCorpus(t *testing.T) {
	n := corpusSize(t)
	for seed := uint64(1); seed <= uint64(n); seed++ {
		if err := Verify(seed); err != nil {
			t.Fatalf("reproduce with: go run ./cmd/pvmfuzz -seed %d\n%v", seed, err)
		}
	}
}

// TestSoloBypassDifferential is the solo on/off differential (formerly an
// engine-level script in internal/vclock): for each seed, the solo-off run
// must grant solo zero times yet reproduce the baseline's observables bit
// for bit, and at least one baseline in the sweep must actually engage solo
// so the bypass path is known to be exercised.
func TestSoloBypassDifferential(t *testing.T) {
	engaged := false
	for seed := uint64(1); seed <= 32; seed++ {
		p := Generate(seed)
		base, err := Run(p, Variant{Name: "baseline"})
		if err != nil {
			t.Fatalf("seed %d baseline: %v", seed, err)
		}
		off, err := Run(p, Variant{Name: "solo-off", SoloOff: true})
		if err != nil {
			t.Fatalf("seed %d solo-off: %v", seed, err)
		}
		if off.SoloGrants != 0 {
			t.Fatalf("seed %d: solo granted %d times with the bypass disabled", seed, off.SoloGrants)
		}
		if d := Diff(base, off); d != "" {
			t.Fatalf("seed %d: solo bypass changed observables: %s", seed, d)
		}
		if base.SoloGrants > 0 {
			engaged = true
		}
	}
	if !engaged {
		t.Fatal("no baseline in seeds 1..32 engaged solo mode; differential is vacuous")
	}
}

// TestLifecycleFastLaneDifferential is the fork/teardown structural fast
// lane's full-stack differential: for each seed, the lifecycle-off run (the
// retained per-leaf fork copy and per-leaf teardown) must reproduce the
// baseline's observables — clocks, makespan, metrics, trace digest — bit for
// bit, and at least one scenario in the sweep must actually fork so the
// differential is known to compare the lane against a lane that ran.
func TestLifecycleFastLaneDifferential(t *testing.T) {
	forked := false
	for seed := uint64(1); seed <= 32; seed++ {
		p := Generate(seed)
		base, err := Run(p, Variant{Name: "baseline"})
		if err != nil {
			t.Fatalf("seed %d baseline: %v", seed, err)
		}
		off, err := Run(p, Variant{Name: "lifecycle-off", LifecycleOff: true})
		if err != nil {
			t.Fatalf("seed %d lifecycle-off: %v", seed, err)
		}
		if d := Diff(base, off); d != "" {
			t.Fatalf("seed %d: lifecycle fast lane changed observables: %s", seed, d)
		}
		if base.Metrics.Forks > 0 {
			forked = true
		}
	}
	if !forked {
		t.Fatal("no scenario in seeds 1..32 forked; differential is vacuous")
	}
}

// TestDirtyLogVariantDifferential pins the dirty-log fuzz lane: for each
// seed, the dirtylog-on run must be self-deterministic (identical rerun,
// identical dirty digest), and the sweep as a whole must actually collect
// pages — otherwise the variant audits nothing and the vacuity guard itself
// is untested.
func TestDirtyLogVariantDifferential(t *testing.T) {
	var collected int64
	for seed := uint64(1); seed <= 32; seed++ {
		p := Generate(seed)
		a, err := Run(p, Variant{Name: "dirtylog-on", DirtyLog: true})
		if err != nil {
			t.Fatalf("seed %d dirtylog-on: %v", seed, err)
		}
		b, err := Run(p, Variant{Name: "dirtylog-on", DirtyLog: true})
		if err != nil {
			t.Fatalf("seed %d dirtylog-on rerun: %v", seed, err)
		}
		if d := Diff(a, b); d != "" {
			t.Fatalf("seed %d: dirtylog-on nondeterministic: %s", seed, d)
		}
		if a.DirtyPages > 0 && a.DirtyDigest == 0 {
			t.Fatalf("seed %d: %d pages collected but dirty digest is zero", seed, a.DirtyPages)
		}
		collected += a.DirtyPages
	}
	if collected == 0 {
		t.Fatal("no seed in 1..32 collected a dirty page; the dirty-log variant is vacuous")
	}
}

// TestGeneratorReplayable pins seed→Program determinism: the whole scenario
// must be a pure function of the seed, or replaying a failure is hopeless.
func TestGeneratorReplayable(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 104, 127, 156, 1 << 40} {
		a, b := Generate(seed), Generate(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two generations differ", seed)
		}
	}
	if reflect.DeepEqual(Generate(1).Workers, Generate(2).Workers) {
		t.Fatalf("seeds 1 and 2 generated identical workloads")
	}
}

// TestGeneratorCoversBackends keeps the seed range honest: a modest prefix
// of the corpus must exercise every deployment configuration the generator
// can emit, so "the corpus passes" means "all five MMU strategies pass".
func TestGeneratorCoversBackends(t *testing.T) {
	seen := map[string]bool{}
	for seed := uint64(1); seed <= 64; seed++ {
		label := Generate(seed).Label
		seen[label[:strings.IndexByte(label, '/')]] = true
	}
	for _, b := range backendChoices {
		if !seen[b.name] {
			t.Errorf("no seed in 1..64 generated backend %s", b.name)
		}
	}
}

// TestReplayTraceDeterministic pins the failure-artifact path: the same
// seed must yield byte-identical listings and digests across calls.
func TestReplayTraceDeterministic(t *testing.T) {
	l1, d1, err := ReplayTrace(3)
	if err != nil {
		t.Fatal(err)
	}
	l2, d2, err := ReplayTrace(3)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 || l1 != l2 {
		t.Fatalf("trace replay not deterministic: digests %#x vs %#x", d1, d2)
	}
	if len(l1) == 0 || d1 == 0 {
		t.Fatalf("empty replay artifact: %d bytes, digest %#x", len(l1), d1)
	}
}

// TestDiffReportsDivergence exercises the oracle's comparison itself.
func TestDiffReportsDivergence(t *testing.T) {
	a, err := Run(Generate(5), Variant{Name: "baseline"})
	if err != nil {
		t.Fatal(err)
	}
	if d := Diff(a, a); d != "" {
		t.Fatalf("self-diff nonempty: %s", d)
	}
	b := a
	b.Makespan++
	if d := Diff(a, b); d == "" {
		t.Fatal("makespan divergence not reported")
	}
	c := a
	c.Digest ^= 1
	if d := Diff(a, c); d == "" {
		t.Fatal("digest divergence not reported")
	}
}

// TestTraceDigestPinned pins the baseline trace observables of one seed per
// backend choice, at the generator's ring capacity and at a 256-event
// capacity at which all but one of them wrap. The values were recorded
// with rings allocated at full capacity; any change to the retained window,
// the drop count, the event order or the digested fields moves them.
func TestTraceDigestPinned(t *testing.T) {
	pins := []struct {
		seed     uint64
		capacity int // 0: the generator's TraceEvents
		label    string
		digest   uint64
		events   int
		dropped  int64
	}{
		{1, 0, "spt-bm/tlb=256/vcpus=3/cores=0", 0x9afcf3c0b0738f0d, 3005, 0},
		{1, 256, "spt-bm/tlb=256/vcpus=3/cores=0", 0x2bbbc08a81f1d8fe, 768, 2237},
		{2, 0, "pvm-nst/tlb=1536/vcpus=1/cores=0", 0xd154645e26509970, 1003, 0},
		{2, 256, "pvm-nst/tlb=1536/vcpus=1/cores=0", 0x644a681087959c5e, 256, 747},
		{3, 0, "spt-nst/tlb=64/vcpus=3/cores=0", 0x88e3669ea33957ca, 3938, 0},
		{3, 256, "spt-nst/tlb=64/vcpus=3/cores=0", 0x2e41898af07c2a7, 768, 3170},
		{4, 0, "pvm-bm/tlb=256/vcpus=2/cores=0", 0xbaae54ec4f8e7123, 2586, 0},
		{4, 256, "pvm-bm/tlb=256/vcpus=2/cores=0", 0xa125acfcf5ab6a69, 512, 2074},
		{6, 0, "ept-bm/tlb=1536/vcpus=2/cores=0", 0x9ada66d719cdb864, 360, 0},
		{6, 256, "ept-bm/tlb=1536/vcpus=2/cores=0", 0x9ada66d719cdb864, 360, 0},
		{7, 0, "pvm-direct-nst/tlb=64/vcpus=3/cores=0", 0xd7479bcdd03eedeb, 3721, 0},
		{7, 256, "pvm-direct-nst/tlb=64/vcpus=3/cores=0", 0xe62daf1d00a38053, 768, 2953},
		{9, 0, "ept-nst/tlb=256/vcpus=1/cores=1", 0xcd8eadf419337c86, 268, 0},
		{9, 256, "ept-nst/tlb=256/vcpus=1/cores=1", 0xdb14956936a653dc, 256, 12},
		{12, 0, "pvm-direct-bm/tlb=64/vcpus=3/cores=0", 0x978637f1f46e7579, 2696, 0},
		{12, 256, "pvm-direct-bm/tlb=64/vcpus=3/cores=0", 0x145e5c949b15cd26, 768, 1928},
	}
	seen := map[string]bool{}
	for _, pin := range pins {
		p := Generate(pin.seed)
		if p.Label != pin.label {
			t.Fatalf("seed %d: label %q, want %q (generator changed)", pin.seed, p.Label, pin.label)
		}
		seen[p.Label[:strings.IndexByte(p.Label, '/')]] = true
		if pin.capacity > 0 {
			p.Opt.TraceEvents = pin.capacity
		}
		o, err := Run(p, Variant{Name: "baseline"})
		if err != nil {
			t.Fatalf("seed %d capacity %d: %v", pin.seed, pin.capacity, err)
		}
		if o.Digest != pin.digest || o.Events != pin.events || o.Dropped != pin.dropped {
			t.Errorf("seed %d capacity %d: digest %#x, %d events, %d dropped; want %#x, %d, %d",
				pin.seed, pin.capacity, o.Digest, o.Events, o.Dropped, pin.digest, pin.events, pin.dropped)
		}
	}
	for _, b := range backendChoices {
		if !seen[b.name] {
			t.Errorf("no pin covers backend %s", b.name)
		}
	}
}
