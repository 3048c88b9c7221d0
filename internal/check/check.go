// Package check is the simulator's shared correctness oracle: a
// deterministic metamorphic test harness for the fast paths PRs 1–3
// introduced (indexed scheduler, ranged TLB-hit runs, solo-vCPU bypass,
// span-cached page-table cursors, fused cost charging) and for those still
// to come.
//
// The harness has three layers:
//
//  1. A seeded generator (gen.go) that derives a complete randomized
//     scenario — deployment configuration, option toggles, TLB geometry,
//     cost ablations, and one workload program per vCPU — from a single
//     uint64 seed, fully replayable.
//  2. Structural invariant auditors that run at generated checkpoints and
//     at end of run: shadow-vs-guest page-table coherence, TLB tag/PCID
//     consistency, guest A/D discipline (backend.Guest.AuditProcess),
//     vclock heap/solo agreement (vclock.Engine.Audit), per-vCPU clock
//     monotonicity, and metrics conservation (world-switch exit legs ==
//     entry legs, no guest frame leaks).
//  3. A metamorphic layer (Verify) that reruns the same seed with fast
//     paths toggled off and faults injected, and demands bit-identical
//     observables: final per-vCPU clocks, makespan, the full metrics
//     snapshot, and the trace-ring digest.
package check

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/guest"
	"repro/internal/pagetable"
)

// Replay generates the scenario for seed and runs it under variant v.
func Replay(seed uint64, v Variant) (*Program, Observation, error) {
	p := Generate(seed)
	o, err := Run(p, v)
	return p, o, err
}

// ReplayTrace runs the baseline replay for seed and returns the formatted
// trace listing and its digest — the artifact to attach when a seed fails.
// The listing is extracted even if the run aborts partway, so a failing
// baseline still yields whatever the ring retained.
func ReplayTrace(seed uint64) (string, uint64, error) {
	p := Generate(seed)
	var listing string
	var digest uint64
	_, err := runVariant(p, Variant{Name: "baseline"}, func(s *backend.System) {
		if s.Tracer != nil {
			listing = s.Tracer.Format(0)
			digest = TraceDigest(s.Tracer)
		}
	})
	return listing, digest, err
}

// Verify is the full oracle for one seed: the baseline must be
// deterministic (two runs, identical observables), every invariant audit
// must pass in every run, and every metamorphic variant must reproduce the
// baseline observables bit-identically. The returned error names the seed,
// the variant, and the first divergence.
func Verify(seed uint64) error {
	p := Generate(seed)
	base, err := Run(p, Variant{Name: "baseline"})
	if err != nil {
		return fmt.Errorf("seed %d (%s): baseline: %w", seed, p.Label, err)
	}
	again, err := Run(p, Variant{Name: "baseline"})
	if err != nil {
		return fmt.Errorf("seed %d (%s): baseline rerun: %w", seed, p.Label, err)
	}
	if d := Diff(base, again); d != "" {
		return fmt.Errorf("seed %d (%s): nondeterministic baseline: %s", seed, p.Label, d)
	}
	for _, v := range Variants()[1:] {
		o, err := Run(p, v)
		if err != nil {
			return fmt.Errorf("seed %d (%s): variant %s: %w", seed, p.Label, v.Name, err)
		}
		if v.DirtyLog {
			// Dirty logging lawfully perturbs virtual time (arming
			// write-protects and flushes), so the oracle is
			// self-determinism: an identical rerun must reproduce every
			// observable — dirty digest included — bit for bit.
			o2, err := Run(p, v)
			if err != nil {
				return fmt.Errorf("seed %d (%s): variant %s rerun: %w", seed, p.Label, v.Name, err)
			}
			if d := Diff(o, o2); d != "" {
				return fmt.Errorf("seed %d (%s): variant %s nondeterministic: %s", seed, p.Label, v.Name, d)
			}
			continue
		}
		if d := Diff(base, o); d != "" {
			return fmt.Errorf("seed %d (%s): variant %s diverged: %s", seed, p.Label, v.Name, d)
		}
	}
	return nil
}

// cursorBypassOn applies the pagetable cursor bypass for the duration of fn.
// The flag is process-global and must only change while no simulation runs,
// so variant runs are serialized by the callers (Verify, the corpus tests,
// cmd/pvmfuzz).
func cursorBypassOn(on bool, fn func()) {
	if on {
		pagetable.SetCursorBypass(true)
		defer pagetable.SetCursorBypass(false)
	}
	fn()
}

// lifecycleBypassOn applies the guest process-lifecycle bypass (per-leaf
// fork copy and teardown instead of the structural fast lane) for the
// duration of fn, under the same serialization contract as cursorBypassOn.
func lifecycleBypassOn(on bool, fn func()) {
	if on {
		guest.SetLifecycleBypass(true)
		defer guest.SetLifecycleBypass(false)
	}
	fn()
}
