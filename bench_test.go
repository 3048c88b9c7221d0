package pvm

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/experiments"
)

// Paper-artifact benchmarks: one per table and figure of the evaluation.
// Each iteration regenerates the artifact at quick scale (deterministic);
// run `go run ./cmd/pvmbench -exp <id>` for paper-shaped output at full
// size. ns/op here is *simulator* wall-clock cost, not virtual time.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	sc := experiments.QuickScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(id, sc, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// benchExperimentParallel is benchExperiment with the cell fan-out enabled.
// Comparing e.g. BenchmarkFig10 against BenchmarkFig10Parallel shows the
// host-side speedup of the parallel runner; outputs are byte-identical
// (TestSerialParallelByteIdentical).
func benchExperimentParallel(b *testing.B, id string, workers int) {
	b.Helper()
	sc := experiments.QuickScale()
	sc.Parallel = workers
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(id, sc, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B)     { benchExperiment(b, "table1") }     // VM exit/entry latency
func BenchmarkTable2(b *testing.B)     { benchExperiment(b, "table2") }     // get_pid syscall latency
func BenchmarkTable3(b *testing.B)     { benchExperiment(b, "table3") }     // LMbench processes
func BenchmarkTable4(b *testing.B)     { benchExperiment(b, "table4") }     // LMbench file & VM
func BenchmarkFig2(b *testing.B)       { benchExperiment(b, "fig2") }       // nested overhead analysis
func BenchmarkFig4(b *testing.B)       { benchExperiment(b, "fig4") }       // EPT vs SPT nested memory
func BenchmarkFig10(b *testing.B)      { benchExperiment(b, "fig10") }      // page-fault scaling + ablations
func BenchmarkFig11(b *testing.B)      { benchExperiment(b, "fig11") }      // real applications
func BenchmarkFig12(b *testing.B)      { benchExperiment(b, "fig12") }      // high-density fluidanimate
func BenchmarkFig13(b *testing.B)      { benchExperiment(b, "fig13") }      // CloudSuite
func BenchmarkSwitchCost(b *testing.B) { benchExperiment(b, "switchcost") } // §2.2/§3.3.2 switch costs

func BenchmarkFig10Parallel(b *testing.B)  { benchExperimentParallel(b, "fig10", runtime.NumCPU()) }
func BenchmarkFig11Parallel(b *testing.B)  { benchExperimentParallel(b, "fig11", runtime.NumCPU()) }
func BenchmarkTable1Parallel(b *testing.B) { benchExperimentParallel(b, "table1", runtime.NumCPU()) }

// Hot-path micro-benchmarks of the simulator itself (per virtualization
// event). VirtualNSPerOp reports the modeled virtual cost alongside.

func benchFaultPath(b *testing.B, cfg Config) {
	sys := NewSystem(cfg, DefaultOptions())
	g, err := sys.NewGuest("bench")
	if err != nil {
		b.Fatal(err)
	}
	var virtual int64
	n := b.N
	b.ResetTimer()
	g.Run(0, 4, func(p *Process) {
		base := p.Mmap(n + 1)
		start := p.CPU.Now()
		p.TouchRange(base, n, true)
		virtual = p.CPU.Now() - start
	})
	sys.Eng.Wait()
	b.StopTimer()
	if n > 0 {
		b.ReportMetric(float64(virtual)/float64(n), "virtual-ns/fault")
	}
}

func BenchmarkFaultPathKVMEPTBareMetal(b *testing.B) { benchFaultPath(b, KVMEPTBareMetal) }
func BenchmarkFaultPathKVMSPTBareMetal(b *testing.B) { benchFaultPath(b, KVMSPTBareMetal) }
func BenchmarkFaultPathKVMEPTNested(b *testing.B)    { benchFaultPath(b, KVMEPTNested) }
func BenchmarkFaultPathSPTOnEPTNested(b *testing.B)  { benchFaultPath(b, SPTOnEPTNested) }
func BenchmarkFaultPathPVMNested(b *testing.B)       { benchFaultPath(b, PVMNested) }

func benchSyscall(b *testing.B, cfg Config, direct bool) {
	opt := DefaultOptions()
	opt.DirectSwitch = direct
	sys := NewSystem(cfg, opt)
	g, err := sys.NewGuest("bench")
	if err != nil {
		b.Fatal(err)
	}
	n := b.N
	b.ResetTimer()
	g.Run(0, 4, func(p *Process) {
		for i := 0; i < n; i++ {
			p.Getpid()
		}
	})
	sys.Eng.Wait()
}

func BenchmarkSyscallKVMEPT(b *testing.B)      { benchSyscall(b, KVMEPTBareMetal, true) }
func BenchmarkSyscallPVMDirect(b *testing.B)   { benchSyscall(b, PVMNested, true) }
func BenchmarkSyscallPVMFullExit(b *testing.B) { benchSyscall(b, PVMNested, false) }

// Ranged-access benchmarks: ns/op is the simulator's cost per *page*
// touched. Resident sweeps a working set that fits the TLB (the run-length
// fast path resolves it in whole-range hit runs); Faulting repeatedly maps,
// touches, and unmaps so every page replays the full miss choreography. The
// PerPage variants drive the same sweeps through the per-page reference
// path (TouchRangeByPage); BENCH_pr2.json pairs them.

// touchRangeConfigs names the five MMU strategies: the sixth façade config
// (PVMBareMetal/SPTOnEPTNested) shares its strategy with a listed one, and
// PVMDirect selects the direct-paging MMU via Options.
var touchRangeConfigs = []struct {
	name   string
	cfg    Config
	direct bool
}{
	{"KVMEPTBareMetal", KVMEPTBareMetal, false},
	{"KVMSPTBareMetal", KVMSPTBareMetal, false},
	{"KVMEPTNested", KVMEPTNested, false},
	{"PVMNested", PVMNested, false},
	{"PVMDirect", PVMNested, true},
}

// residentPages fits comfortably inside the default 1536-entry TLB so the
// steady state is all hits.
const residentPages = 1024

func benchTouchRangeResident(b *testing.B, cfg Config, direct, perPage bool) {
	opt := DefaultOptions()
	opt.DirectPaging = direct
	sys := NewSystem(cfg, opt)
	g, err := sys.NewGuest("bench")
	if err != nil {
		b.Fatal(err)
	}
	n := b.N
	b.ReportAllocs()
	b.ResetTimer()
	g.Run(0, 4, func(p *Process) {
		base := p.Mmap(residentPages)
		p.TouchRange(base, residentPages, true) // populate
		for i := 0; i < n; i += residentPages {
			sweep := residentPages
			if left := n - i; left < sweep {
				sweep = left
			}
			if perPage {
				p.TouchRangeByPage(base, sweep, false)
			} else {
				p.TouchRange(base, sweep, false)
			}
		}
	})
	sys.Eng.Wait()
}

func benchTouchRangeFaulting(b *testing.B, cfg Config, direct, perPage bool) {
	opt := DefaultOptions()
	opt.DirectPaging = direct
	sys := NewSystem(cfg, opt)
	g, err := sys.NewGuest("bench")
	if err != nil {
		b.Fatal(err)
	}
	n := b.N
	b.ReportAllocs()
	b.ResetTimer()
	g.Run(0, 4, func(p *Process) {
		for i := 0; i < n; i += residentPages {
			sweep := residentPages
			if left := n - i; left < sweep {
				sweep = left
			}
			base := p.Mmap(sweep)
			if perPage {
				p.TouchRangeByPage(base, sweep, true)
			} else {
				p.TouchRange(base, sweep, true)
			}
			if err := p.Munmap(base, sweep); err != nil {
				panic(err)
			}
		}
	})
	sys.Eng.Wait()
}

func BenchmarkTouchRangeResident(b *testing.B) {
	for _, c := range touchRangeConfigs {
		b.Run(c.name, func(b *testing.B) { benchTouchRangeResident(b, c.cfg, c.direct, false) })
	}
}

func BenchmarkTouchRangeResidentPerPage(b *testing.B) {
	for _, c := range touchRangeConfigs {
		b.Run(c.name, func(b *testing.B) { benchTouchRangeResident(b, c.cfg, c.direct, true) })
	}
}

func BenchmarkTouchRangeFaulting(b *testing.B) {
	for _, c := range touchRangeConfigs {
		b.Run(c.name, func(b *testing.B) { benchTouchRangeFaulting(b, c.cfg, c.direct, false) })
	}
}

func BenchmarkTouchRangeFaultingPerPage(b *testing.B) {
	for _, c := range touchRangeConfigs {
		b.Run(c.name, func(b *testing.B) { benchTouchRangeFaulting(b, c.cfg, c.direct, true) })
	}
}

// Cold-fault benchmarks: ns/op is the simulator's cost per *page* populated
// by a fresh process touching a cold region — every page runs the full
// demand-zero fault choreography against empty page tables, the workload the
// cold-fault fast lane (solo-vCPU engine bypass + bulk leaf population)
// targets. ColdFaultRange drives the ranged path, ColdFault the per-page
// reference; BENCH_pr3.json pairs them per backend.

func benchColdFault(b *testing.B, cfg Config, direct, ranged bool) {
	opt := DefaultOptions()
	opt.DirectPaging = direct
	sys := NewSystem(cfg, opt)
	g, err := sys.NewGuest("bench")
	if err != nil {
		b.Fatal(err)
	}
	// One short-lived process per chunk: each starts from an empty address
	// space (beyond the image) so every touched page is a cold fault, and
	// with one runnable vCPU the engine's solo bypass is on the path.
	const chunk = 512
	n := b.N
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < n; i += chunk {
		sweep := chunk
		if left := n - i; left < sweep {
			sweep = left
		}
		g.Run(0, 8, func(p *Process) {
			base := p.Mmap(sweep)
			if ranged {
				p.TouchRange(base, sweep, true)
			} else {
				p.TouchRangeByPage(base, sweep, true)
			}
		})
		sys.Eng.Wait()
	}
}

func BenchmarkColdFault(b *testing.B) {
	for _, c := range touchRangeConfigs {
		b.Run(c.name, func(b *testing.B) { benchColdFault(b, c.cfg, c.direct, false) })
	}
}

func BenchmarkColdFaultRange(b *testing.B) {
	for _, c := range touchRangeConfigs {
		b.Run(c.name, func(b *testing.B) { benchColdFault(b, c.cfg, c.direct, true) })
	}
}

// Multi-vCPU contention benchmarks: ns/op is the simulator's cost per page
// when b.N total pages of fault/map/unmap work are divided across 1/2/4/8
// concurrently running processes on the serial conservative engine: the
// host cost of the min-clock gate and the guest kernel's lock handoffs.

// contentionVCPUs are the per-cell process counts; 1 runs on the solo
// bypass.
var contentionVCPUs = []int{1, 2, 4, 8}

func benchMultiVCPU(b *testing.B, cfg Config, direct bool, vcpus int) {
	opt := DefaultOptions()
	opt.DirectPaging = direct
	sys := NewSystem(cfg, opt)
	g, err := sys.NewGuest("bench")
	if err != nil {
		b.Fatal(err)
	}
	// Each process faults through private windows; the map/unmap churn
	// keeps the guest kernel's lock on the path.
	const window = 256
	per := (b.N + vcpus - 1) / vcpus
	b.ReportAllocs()
	b.ResetTimer()
	release := sys.Eng.Hold()
	for w := 0; w < vcpus; w++ {
		g.Run(0, 4, func(p *Process) {
			for i := 0; i < per; i += window {
				sweep := window
				if left := per - i; left < sweep {
					sweep = left
				}
				base := p.Mmap(sweep)
				p.TouchRange(base, sweep, true)
				if err := p.Munmap(base, sweep); err != nil {
					panic(err)
				}
			}
		})
	}
	release()
	sys.Eng.Wait()
	b.StopTimer()
	if err := sys.Eng.Err(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkMultiVCPUContention(b *testing.B) {
	for _, c := range touchRangeConfigs {
		for _, v := range contentionVCPUs {
			b.Run(fmt.Sprintf("%s/vcpus=%d/serial", c.name, v), func(b *testing.B) {
				benchMultiVCPU(b, c.cfg, c.direct, v)
			})
		}
	}
}

// BenchmarkConcurrentMembench measures simulator throughput under the
// contended 16-process Figure 10 workload.
func BenchmarkConcurrentMembench(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := NewSystem(PVMNested, DefaultOptions())
		g, err := sys.NewGuest(fmt.Sprintf("bench%d", i))
		if err != nil {
			b.Fatal(err)
		}
		release := sys.Eng.Hold()
		for w := 0; w < 16; w++ {
			g.Run(0, 4, func(p *Process) {
				base := p.Mmap(256)
				p.TouchRange(base, 256, true)
				if err := p.Munmap(base, 256); err != nil {
					panic(err)
				}
			})
		}
		release()
		sys.Eng.Wait()
	}
}

// Dirty-logging benchmarks. DirtyScan: ns/op is the simulator's cost per
// page written-and-harvested through an armed dirty log on a resident
// working set — each sweep redirties the set and CollectDirty drains it, so
// both the recording path (write-protect traps or PML appends) and the
// epoch harvest are on the measured path, per backend. PreCopy regenerates
// the full pre-copy migration experiment (all backends, both mutators) per
// iteration, like the paper-artifact benchmarks above. BENCH_pr9.json holds
// both.

func benchDirtyScan(b *testing.B, cfg Config, direct bool) {
	opt := DefaultOptions()
	opt.DirectPaging = direct
	sys := NewSystem(cfg, opt)
	g, err := sys.NewGuest("bench")
	if err != nil {
		b.Fatal(err)
	}
	n := b.N
	b.ReportAllocs()
	b.ResetTimer()
	g.Run(0, 4, func(p *Process) {
		base := p.Mmap(residentPages)
		p.TouchRange(base, residentPages, true) // resident set
		p.StartDirtyLog()
		for i := 0; i < n; i += residentPages {
			sweep := residentPages
			if left := n - i; left < sweep {
				sweep = left
			}
			p.TouchRange(base, sweep, true)
			if got := p.CollectDirty(); len(got) != sweep {
				panic(fmt.Sprintf("dirty scan harvested %d pages, wrote %d", len(got), sweep))
			}
		}
		p.StopDirtyLog()
	})
	sys.Eng.Wait()
}

func BenchmarkDirtyScan(b *testing.B) {
	for _, c := range touchRangeConfigs {
		b.Run(c.name, func(b *testing.B) { benchDirtyScan(b, c.cfg, c.direct) })
	}
}

func BenchmarkPreCopy(b *testing.B) { benchExperiment(b, "precopy") }

// Process-lifecycle benchmarks: ns/op is the simulator's cost per lifecycle
// operation on a resident image of the given size — `fork` is the lat_proc
// cycle (fork a COW child that exits immediately: structural clone plus
// shared-image teardown), `forkexit` additionally has the child dirty an
// eighth of the image before exiting (COW breaks plus mixed-refcount
// teardown), and `exec` replaces the whole image (bulk teardown plus
// refault). The PerLeaf variants run the retained per-leaf reference paths
// via SetLifecycleBypass; BENCH_pr8.json pairs them per backend and image
// size, and TestForkTeardownEquivalence proves the pairs observationally
// identical.

var lifecycleImageSizes = []int{256, 1024} // 1 MiB and 4 MiB resident

func benchProcessLifecycle(b *testing.B, cfg Config, direct bool, op string, pages int, perLeaf bool) {
	if perLeaf {
		SetLifecycleBypass(true)
		defer SetLifecycleBypass(false)
	}
	opt := DefaultOptions()
	opt.DirectPaging = direct
	sys := NewSystem(cfg, opt)
	g, err := sys.NewGuest("bench")
	if err != nil {
		b.Fatal(err)
	}
	n := b.N
	b.ReportAllocs()
	b.ResetTimer()
	g.Run(0, 4, func(p *Process) {
		base := p.Mmap(pages)
		p.TouchRange(base, pages, true) // resident image
		for i := 0; i < n; i++ {
			switch op {
			case "fork":
				child, err := p.Fork(nil)
				if err != nil {
					panic(err)
				}
				if err := child.Exit(); err != nil {
					panic(err)
				}
			case "forkexit":
				child, err := p.Fork(nil)
				if err != nil {
					panic(err)
				}
				child.TouchRange(base, pages/8, true) // COW breaks
				if err := child.Exit(); err != nil {
					panic(err)
				}
			case "exec":
				if err := p.Exec(pages); err != nil {
					panic(err)
				}
			}
		}
	})
	sys.Eng.Wait()
}

func benchLifecycleGrid(b *testing.B, op string, perLeaf bool) {
	for _, c := range touchRangeConfigs {
		for _, pages := range lifecycleImageSizes {
			c, pages := c, pages
			b.Run(fmt.Sprintf("%s/pages=%d", c.name, pages), func(b *testing.B) {
				benchProcessLifecycle(b, c.cfg, c.direct, op, pages, perLeaf)
			})
		}
	}
}

func BenchmarkProcessLifecycle(b *testing.B) {
	for _, op := range []string{"fork", "forkexit", "exec"} {
		b.Run(op, func(b *testing.B) { benchLifecycleGrid(b, op, false) })
	}
}

func BenchmarkProcessLifecyclePerLeaf(b *testing.B) {
	for _, op := range []string{"fork", "forkexit", "exec"} {
		b.Run(op, func(b *testing.B) { benchLifecycleGrid(b, op, true) })
	}
}
