package backend_test

import (
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/backend"
	"repro/internal/check"
	"repro/internal/guest"
)

// The process-lifecycle fast lane (structural page-table cloning in Fork,
// bulk subtree teardown in Exec/Exit) must be observationally identical to
// the per-leaf reference paths it replaces. These tests run every backend ×
// workload cell both ways — fast lane on (the default) and off
// (guest.SetLifecycleBypass) — and compare the full Observation bit for bit,
// exactly as the ranged-access grid does for AccessRange.

// lifecycleWorkloads stress the paths that differ between the lanes:
// fork's COW protect/share/map choreography (trapping per store under
// shadow paging), repeated fork+exit (shared-frame teardown, rc>1), exec
// teardown + refault, fork chains (grandchildren, rc>2), sparse images
// (munmap leaves leaf-empty intermediate tables that Clone must skip), and
// post-fork mprotect (COW-aware permission flips on shared frames).
var lifecycleWorkloads = []struct {
	name string
	body func(p *guest.Process, touch touchFn)
}{
	{"fork-exit", func(p *guest.Process, touch touchFn) {
		const n = 256
		base := p.Mmap(n)
		touch(p, base, n, true)
		for i := 0; i < 3; i++ {
			child, err := p.Fork(nil)
			if err != nil {
				panic(err)
			}
			touch(child, base, n/4, true) // COW breaks in the child
			if err := child.Exit(); err != nil {
				panic(err)
			}
			touch(p, base, n/8, true) // parent re-protect faults
		}
	}},
	{"fork-chain", func(p *guest.Process, touch touchFn) {
		const n = 96
		base := p.Mmap(n)
		touch(p, base, n, true)
		child, err := p.Fork(nil)
		if err != nil {
			panic(err)
		}
		grand, err := child.Fork(nil) // rc reaches 3 on shared frames
		if err != nil {
			panic(err)
		}
		touch(grand, base, n, true)
		if err := grand.Exit(); err != nil {
			panic(err)
		}
		touch(child, base, n/2, false)
		if err := child.Exit(); err != nil {
			panic(err)
		}
		touch(p, base, n, true)
	}},
	{"exec", func(p *guest.Process, touch touchFn) {
		base := p.Mmap(200)
		touch(p, base, 200, true)
		if err := p.Exec(64); err != nil { // bulk teardown + fresh image
			panic(err)
		}
		base = p.Mmap(32)
		touch(p, base, 32, true)
	}},
	{"fork-exec", func(p *guest.Process, touch touchFn) {
		const n = 128
		base := p.Mmap(n)
		touch(p, base, n, true)
		child, err := p.Fork(nil)
		if err != nil {
			panic(err)
		}
		// Exec in the child tears down an address space whose frames are
		// all shared with the parent (rc>1 throughout the teardown).
		if err := child.Exec(16); err != nil {
			panic(err)
		}
		if err := child.Exit(); err != nil {
			panic(err)
		}
		touch(p, base, n, true)
	}},
	{"sparse-fork", func(p *guest.Process, touch touchFn) {
		// Build a sparse image: several areas, the middle ones unmapped, so
		// the parent's table tree holds leaf-empty intermediate tables that
		// the structural clone must skip (the leaf-driven reference never
		// visits them).
		var bases []arch.VA
		for i := 0; i < 4; i++ {
			b := p.Mmap(700) // >1 leaf table per area
			touch(p, b, 700, true)
			bases = append(bases, b)
		}
		if err := p.Munmap(bases[1], 700); err != nil {
			panic(err)
		}
		if err := p.Munmap(bases[2], 700); err != nil {
			panic(err)
		}
		child, err := p.Fork(nil)
		if err != nil {
			panic(err)
		}
		touch(child, bases[3], 700, true)
		if err := child.Exit(); err != nil {
			panic(err)
		}
	}},
	{"fork-mprotect", func(p *guest.Process, touch touchFn) {
		const n = 64
		base := p.Mmap(n)
		touch(p, base, n, true)
		child, err := p.Fork(nil)
		if err != nil {
			panic(err)
		}
		// Post-fork mprotect flips permissions over COW-shared frames; the
		// write-enable pass must skip shared frames in both lanes.
		if err := p.Mprotect(base, n, false); err != nil {
			panic(err)
		}
		if err := p.Mprotect(base, n, true); err != nil {
			panic(err)
		}
		touch(p, base, n, true)
		if err := child.Exit(); err != nil {
			panic(err)
		}
		touch(p, base, n, true)
	}},
}

// observeLifecycle runs one cell with the lifecycle fast lane on or off.
func observeLifecycle(t *testing.T, cfg backend.Config, opt backend.Options, body func(p *guest.Process, touch touchFn), perLeaf bool) check.Observation {
	t.Helper()
	if perLeaf {
		guest.SetLifecycleBypass(true)
		defer guest.SetLifecycleBypass(false)
	}
	return observe(t, cfg, opt, body, touchRanged)
}

// TestForkTeardownEquivalence runs every config × lifecycle workload cell
// with the structural fast lane and the per-leaf reference and requires
// bit-identical outcomes.
func TestForkTeardownEquivalence(t *testing.T) {
	for _, cfg := range backend.Configs() {
		for _, wl := range lifecycleWorkloads {
			cell := fmt.Sprintf("%v/%s", cfg, wl.name)
			t.Run(cell, func(t *testing.T) {
				fast := observeLifecycle(t, cfg, backend.DefaultOptions(), wl.body, false)
				perLeaf := observeLifecycle(t, cfg, backend.DefaultOptions(), wl.body, true)
				if d := check.Diff(fast, perLeaf); d != "" {
					t.Errorf("%s: structural vs per-leaf diverged: %s", cell, d)
				}
			})
		}
	}
}

// TestForkTeardownEquivalenceAblations reruns every lifecycle workload under
// each ablation with the structural fast lane and the per-leaf reference.
func TestForkTeardownEquivalenceAblations(t *testing.T) {
	for _, v := range ablations {
		for _, wl := range lifecycleWorkloads {
			cell := fmt.Sprintf("%s/%s", v.name, wl.name)
			t.Run(cell, func(t *testing.T) {
				fast := observeLifecycle(t, v.cfg, v.opt, wl.body, false)
				perLeaf := observeLifecycle(t, v.cfg, v.opt, wl.body, true)
				if d := check.Diff(fast, perLeaf); d != "" {
					t.Errorf("%s: structural vs per-leaf diverged: %s", cell, d)
				}
			})
		}
	}
}

// TestForkTeardownEquivalenceMultiProc checks the lanes under concurrent
// vCPUs, where fork's flush shootdowns and the shared allocator couple the
// clocks: a misplaced gate or charge in either lane would shift the global
// makespan.
func TestForkTeardownEquivalenceMultiProc(t *testing.T) {
	run := func(cfg backend.Config, perLeaf bool) check.Observation {
		if perLeaf {
			guest.SetLifecycleBypass(true)
			defer guest.SetLifecycleBypass(false)
		}
		opt := backend.DefaultOptions()
		opt.TraceEvents = 1 << 15
		s := backend.NewSystem(cfg, opt)
		g, err := s.NewGuest("g0")
		if err != nil {
			t.Fatal(err)
		}
		release := s.Eng.Hold()
		for i := 0; i < 4; i++ {
			g.Run(0, 8, func(p *guest.Process) {
				for round := 0; round < 2; round++ {
					base := p.Mmap(128)
					p.TouchRange(base, 128, true)
					child, err := p.Fork(nil)
					if err != nil {
						panic(err)
					}
					p.TouchRange(base, 32, true)
					if err := child.Exit(); err != nil {
						panic(err)
					}
					if err := p.Munmap(base, 128); err != nil {
						panic(err)
					}
				}
			})
		}
		release()
		s.Eng.Wait()
		if err := s.Eng.Err(); err != nil {
			t.Fatal(err)
		}
		return check.Capture(s)
	}
	for _, cfg := range backend.Configs() {
		t.Run(cfg.String(), func(t *testing.T) {
			fast := run(cfg, false)
			perLeaf := run(cfg, true)
			if d := check.Diff(fast, perLeaf); d != "" {
				t.Errorf("%v: structural vs per-leaf diverged: %s", cfg, d)
			}
		})
	}
}
