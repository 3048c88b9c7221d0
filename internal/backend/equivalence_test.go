package backend_test

import (
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/backend"
	"repro/internal/check"
	"repro/internal/guest"
	"repro/internal/vclock"
)

// The ranged access fast path (Guest.AccessRange) must be observationally
// identical to the per-page loop it replaces. These tests run every backend ×
// workload cell both ways and hand the outcomes to the shared oracle in
// internal/check, which compares final clocks, makespan, the full metrics
// snapshot, and the trace-ring digest bit for bit.

// touchFn abstracts over TouchRange (batched) and TouchRangeByPage
// (per-page reference).
type touchFn func(p *guest.Process, va arch.VA, pages int, write bool)

func touchRanged(p *guest.Process, va arch.VA, pages int, write bool) {
	p.TouchRange(va, pages, write)
}

func touchByPage(p *guest.Process, va arch.VA, pages int, write bool) {
	p.TouchRangeByPage(va, pages, write)
}

// equivWorkloads are single-process workloads exercising the access paths
// that differ across backends: faulting, resident re-touch with TLB
// evictions (stream is larger than the 1536-entry TLB), COW breaks,
// protection faults, and munmap/refault cycles. The last five stress the
// VMA mutations between touches: mprotect storms (permission flips over
// whole areas, each store trapping under shadow paging), partial munmaps
// that shrink and split areas, munmap-refault cycles, mutation ranges
// straddling 2 MiB leaf-table boundaries with sparse residency, and
// dirty-log epochs whose arming sweeps write-protect the shadow tables.
var equivWorkloads = []struct {
	name string
	body func(p *guest.Process, touch touchFn)
}{
	{"stream", func(p *guest.Process, touch touchFn) {
		// Larger than the TLB: the read passes exercise hit runs
		// broken by capacity evictions.
		const n = 2000
		base := p.Mmap(n)
		touch(p, base, n, true)
		touch(p, base, n, false)
		touch(p, base, n, false)
	}},
	{"fork-cow", func(p *guest.Process, touch touchFn) {
		const n = 64
		base := p.Mmap(n)
		touch(p, base, n, true)
		child, err := p.Fork(nil)
		if err != nil {
			panic(err)
		}
		touch(child, base, n, true) // COW breaks
		if err := child.Exit(); err != nil {
			panic(err)
		}
		touch(p, base, n, true) // parent re-protect faults
	}},
	{"mprotect", func(p *guest.Process, touch touchFn) {
		const n = 128
		base := p.Mmap(n)
		touch(p, base, n, true)
		if err := p.Mprotect(base, n, false); err != nil {
			panic(err)
		}
		touch(p, base, n, false)
		if err := p.Mprotect(base, n, true); err != nil {
			panic(err)
		}
		touch(p, base, n, true) // write-protection fixes
	}},
	{"mixed", func(p *guest.Process, touch touchFn) {
		for round := 0; round < 4; round++ {
			base := p.Mmap(96)
			touch(p, base, 96, true)
			p.Syscall(500)
			touch(p, base, 96, false)
			if err := p.Munmap(base, 96); err != nil {
				panic(err)
			}
		}
	}},
	{"mprotect-storm", func(p *guest.Process, touch touchFn) {
		const n = 600 // > 1 leaf table
		base := p.Mmap(n)
		touch(p, base, n, true)
		for round := 0; round < 3; round++ {
			if err := p.Mprotect(base, n, false); err != nil {
				panic(err)
			}
			touch(p, base, n/2, false)
			if err := p.Mprotect(base, n, true); err != nil {
				panic(err)
			}
			touch(p, base, n/4, true) // re-dirty a prefix
		}
	}},
	{"partial-munmap", func(p *guest.Process, touch touchFn) {
		const n = 520
		base := p.Mmap(n)
		touch(p, base, n, true)
		// Middle cut splits the area; head/tail cuts shrink the remnants.
		if err := p.Munmap(base+100*arch.PageSize, 300); err != nil {
			panic(err)
		}
		touch(p, base, 100, true)
		if err := p.Munmap(base, 60); err != nil {
			panic(err)
		}
		if err := p.Munmap(base+460*arch.PageSize, 60); err != nil {
			panic(err)
		}
		touch(p, base+60*arch.PageSize, 40, false)
	}},
	{"munmap-refault", func(p *guest.Process, touch touchFn) {
		for round := 0; round < 3; round++ {
			base := p.Mmap(256)
			touch(p, base, 256, true)
			touch(p, base, 256, false)
			if err := p.Munmap(base, 256); err != nil {
				panic(err)
			}
			// The next area reuses freed frames; refault the whole path.
			b2 := p.Mmap(256)
			touch(p, b2, 128, true)
			if err := p.Munmap(b2, 256); err != nil {
				panic(err)
			}
		}
	}},
	{"large-page-boundary", func(p *guest.Process, touch touchFn) {
		// One area spanning several 2 MiB leaf tables, sparsely resident
		// (only every other 128-page stripe touched), mutated over ranges
		// whose ends land mid-table: the sweeps cross leaf-table
		// boundaries and skip the unpopulated stripes.
		const n = 1536
		base := p.Mmap(n)
		for s := 0; s < n; s += 256 {
			touch(p, base+arch.VA(s)*arch.PageSize, 128, true)
		}
		if err := p.Mprotect(base, n, false); err != nil {
			panic(err)
		}
		if err := p.Mprotect(base, n, true); err != nil {
			panic(err)
		}
		if err := p.Munmap(base+300*arch.PageSize, 700); err != nil {
			panic(err)
		}
		touch(p, base, 128, true)
	}},
	{"dirty-log-epoch", func(p *guest.Process, touch touchFn) {
		const n = 300
		base := p.Mmap(n)
		touch(p, base, n, true)
		p.StartDirtyLog() // arming sweep: write-protects every logged leaf
		touch(p, base, n/2, true)
		p.CollectDirty() // epoch re-arm: another sweep
		touch(p, base+arch.VA(n/2)*arch.PageSize, n/2, true)
		if err := p.Munmap(base+arch.VA(n/4)*arch.PageSize, n/4); err != nil {
			panic(err)
		}
		p.CollectDirty()
		p.StopDirtyLog()
		touch(p, base, n/4, true)
	}},
}

func observe(t *testing.T, cfg backend.Config, opt backend.Options, body func(p *guest.Process, touch touchFn), touch touchFn) check.Observation {
	t.Helper()
	opt.TraceEvents = 1 << 15
	s := backend.NewSystem(cfg, opt)
	g, err := s.NewGuest("g0")
	if err != nil {
		t.Fatal(err)
	}
	s.Eng.Go(0, func(c *vclock.CPU) {
		p, err := g.Kern.StartProcess(c, 8)
		if err != nil {
			panic(err)
		}
		body(p, touch)
		if err := p.Exit(); err != nil {
			panic(err)
		}
	})
	s.Eng.Wait()
	if err := s.Eng.Err(); err != nil {
		t.Fatal(err)
	}
	return check.Capture(s)
}

// TestRangedAccessEquivalence runs every config × workload cell with the
// batched and per-page touch paths and requires bit-identical outcomes.
func TestRangedAccessEquivalence(t *testing.T) {
	for _, cfg := range backend.Configs() {
		for _, wl := range equivWorkloads {
			cell := fmt.Sprintf("%v/%s", cfg, wl.name)
			t.Run(cell, func(t *testing.T) {
				ranged := observe(t, cfg, backend.DefaultOptions(), wl.body, touchRanged)
				byPage := observe(t, cfg, backend.DefaultOptions(), wl.body, touchByPage)
				if d := check.Diff(ranged, byPage); d != "" {
					t.Errorf("%s: ranged vs per-page diverged: %s", cell, d)
				}
			})
		}
	}
}

// ablations are the option variants every backend equivalence grid reruns
// its workloads under: the ones that pick a different MMU strategy, fault
// choreography, PTE-store trap or flush. Direct paging (the fifth MMU: lazy
// charges plus a sync log instead of per-store traps) and huge-page EPT
// backing (guest tables stay 4 KiB, the host lane changes) run on both
// hosts; then prefault off, PCID mapping off (whole-VPID shootdowns),
// collaborative sync, switcher fault classification, coarse locking, and
// KPTI off.
var ablations = []struct {
	name string
	cfg  backend.Config
	opt  backend.Options
}{
	{"pvm-direct-bm", backend.PVMBM, withOptions(func(o *backend.Options) { o.DirectPaging = true })},
	{"pvm-direct-nst", backend.PVMNST, withOptions(func(o *backend.Options) { o.DirectPaging = true })},
	{"no-prefault", backend.PVMNST, withOptions(func(o *backend.Options) { o.Prefault = false })},
	{"no-pcidmap", backend.PVMNST, withOptions(func(o *backend.Options) { o.PCIDMap = false })},
	{"collab-sync", backend.PVMNST, withOptions(func(o *backend.Options) { o.CollaborativeSync = true })},
	{"switcher-classify", backend.PVMNST, withOptions(func(o *backend.Options) { o.SwitcherFaultClassify = true })},
	{"coarse-lock", backend.PVMNST, withOptions(func(o *backend.Options) { o.FineLock = false })},
	{"hugepages-ept", backend.KVMEPTNST, withOptions(func(o *backend.Options) { o.HugePagesEPT = true })},
	{"hugepages-ept-bm", backend.KVMEPTBM, withOptions(func(o *backend.Options) { o.HugePagesEPT = true })},
	{"no-kpti", backend.KVMSPTBM, withOptions(func(o *backend.Options) { o.KPTI = false })},
}

// withOptions returns the default options with mut applied.
func withOptions(mut func(o *backend.Options)) backend.Options {
	o := backend.DefaultOptions()
	mut(&o)
	return o
}

// TestRangedAccessEquivalenceAblations reruns every workload under each
// ablation with the batched and per-page touch paths.
func TestRangedAccessEquivalenceAblations(t *testing.T) {
	for _, v := range ablations {
		for _, wl := range equivWorkloads {
			cell := fmt.Sprintf("%s/%s", v.name, wl.name)
			t.Run(cell, func(t *testing.T) {
				ranged := observe(t, v.cfg, v.opt, wl.body, touchRanged)
				byPage := observe(t, v.cfg, v.opt, wl.body, touchByPage)
				if d := check.Diff(ranged, byPage); d != "" {
					t.Errorf("%s: ranged vs per-page diverged: %s", cell, d)
				}
			})
		}
	}
}

// TestRangedAccessEquivalenceMultiProc checks the batched path under
// concurrent vCPUs, where lock hold times and shootdowns couple the clocks:
// any divergence in one vCPU's charging would shift the global makespan.
// Each backend runs map/touch/unmap rounds, then, as the contended-vma
// subtest, mprotect and partial-munmap rounds whose PTE-store traps hold
// the mmu locks.
func TestRangedAccessEquivalenceMultiProc(t *testing.T) {
	run := func(t *testing.T, cfg backend.Config, touch touchFn, body func(p *guest.Process, touch touchFn)) check.Observation {
		opt := backend.DefaultOptions()
		opt.TraceEvents = 1 << 15
		s := backend.NewSystem(cfg, opt)
		g, err := s.NewGuest("g0")
		if err != nil {
			t.Fatal(err)
		}
		release := s.Eng.Hold()
		for i := 0; i < 4; i++ {
			g.Run(0, 8, func(p *guest.Process) { body(p, touch) })
		}
		release()
		s.Eng.Wait()
		if err := s.Eng.Err(); err != nil {
			t.Fatal(err)
		}
		return check.Capture(s)
	}
	compare := func(t *testing.T, cfg backend.Config, body func(p *guest.Process, touch touchFn)) {
		ranged := run(t, cfg, touchRanged, body)
		byPage := run(t, cfg, touchByPage, body)
		if d := check.Diff(ranged, byPage); d != "" {
			t.Errorf("%v: ranged vs per-page diverged: %s", cfg, d)
		}
	}
	mapTouchUnmap := func(p *guest.Process, touch touchFn) {
		for round := 0; round < 3; round++ {
			base := p.Mmap(128)
			touch(p, base, 128, true)
			touch(p, base, 128, false)
			if err := p.Munmap(base, 128); err != nil {
				panic(err)
			}
		}
	}
	contendedVMA := func(p *guest.Process, touch touchFn) {
		for round := 0; round < 2; round++ {
			base := p.Mmap(160)
			touch(p, base, 160, true)
			if err := p.Mprotect(base, 160, false); err != nil {
				panic(err)
			}
			if err := p.Mprotect(base, 160, true); err != nil {
				panic(err)
			}
			if err := p.Munmap(base+40*arch.PageSize, 80); err != nil {
				panic(err)
			}
			touch(p, base, 40, true)
			if err := p.Munmap(base, 40); err != nil {
				panic(err)
			}
			if err := p.Munmap(base+120*arch.PageSize, 40); err != nil {
				panic(err)
			}
		}
	}
	for _, cfg := range backend.Configs() {
		t.Run(cfg.String(), func(t *testing.T) {
			compare(t, cfg, mapTouchUnmap)
			t.Run("contended-vma", func(t *testing.T) { compare(t, cfg, contendedVMA) })
		})
	}
}
