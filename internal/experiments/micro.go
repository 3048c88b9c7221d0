package experiments

import (
	"fmt"
	"io"

	"repro/internal/arch"
	"repro/internal/backend"
	"repro/internal/guest"
	"repro/internal/lmbench"
	"repro/internal/metrics"
	"repro/internal/workloads"
)

// measureOn builds a one-guest system of cfg/opt, starts one process with
// the given image, runs fn on it, and returns fn's measured virtual ns.
func measureOn(cfg backend.Config, opt backend.Options, imagePages int, fn func(p *guest.Process) int64) int64 {
	s := backend.NewSystem(cfg, opt)
	g, err := s.NewGuest("g0")
	if err != nil {
		panic(err)
	}
	var out int64
	g.Run(0, imagePages, func(p *guest.Process) { out = fn(p) })
	s.Eng.Wait()
	return out
}

// perOp measures the mean per-iteration latency of op.
func perOp(cfg backend.Config, opt backend.Options, iters int, op func(p *guest.Process)) int64 {
	return measureOn(cfg, opt, 4, func(p *guest.Process) int64 {
		start := p.CPU.Now()
		for i := 0; i < iters; i++ {
			op(p)
		}
		return (p.CPU.Now() - start) / int64(iters)
	})
}

func init() {
	register(Experiment{ID: "table1", Title: "Average round-trip latency (µs) of VM exits/entries, KPTI enabled/disabled", Run: table1})
	register(Experiment{ID: "table2", Title: "Execution time (µs) of syscall get_pid, KPTI enabled/disabled", Run: table2})
	register(Experiment{ID: "switchcost", Title: "World-switch cost (µs): single-level vs nested vs PVM switcher", Run: switchCost})
	register(Experiment{ID: "fig2", Title: "Overhead analysis of nested virtualization (normalized exec time)", Run: fig2})
}

// table1 reproduces Table 1: privileged-operation round trips under
// kvm (BM), pvm (BM), kvm (NST), pvm (NST), each with KPTI on/off.
func table1(sc Scale, w io.Writer) error {
	ops := []struct {
		name string
		op   arch.PrivOp
	}{
		{"Hypercall", arch.OpHypercall},
		{"Exception", arch.OpException},
		{"MSR access", arch.OpMSRAccess},
		{"CPUID", arch.OpCPUID},
		{"PIO", arch.OpPIO},
	}
	cfgs := []struct {
		name string
		cfg  backend.Config
	}{
		{"kvm (BM)", backend.KVMEPTBM},
		{"pvm (BM)", backend.PVMBM},
		{"kvm (NST)", backend.KVMEPTNST},
		{"pvm (NST)", backend.PVMNST},
	}
	t := &metrics.Table{Title: "Table 1 (KPTI on / KPTI off)"}
	for _, c := range cfgs {
		t.Columns = append(t.Columns, c.name)
	}
	// One cell per (operation, configuration, KPTI) triple.
	nc := len(cfgs)
	vals := runCells(sc, len(ops)*nc*2, func(i int) int64 {
		o := ops[i/(nc*2)]
		c := cfgs[(i/2)%nc]
		opt := backend.DefaultOptions()
		opt.KPTI = i%2 == 0
		return perOp(c.cfg, opt, sc.MicroIters, func(p *guest.Process) { p.PrivOp(o.op) })
	})
	for oi, o := range ops {
		row := metrics.TableRow{Label: o.name}
		for ci := range cfgs {
			base := (oi*nc + ci) * 2
			row.Cells = append(row.Cells, us(vals[base])+"/"+us(vals[base+1]))
		}
		t.Rows = append(t.Rows, row)
	}
	_, err := io.WriteString(w, t.Format())
	return err
}

// table2 reproduces Table 2: get_pid latency across configurations,
// including PVM with and without direct switching.
func table2(sc Scale, w io.Writer) error {
	type variant struct {
		name   string
		cfg    backend.Config
		direct bool
		note   string
	}
	variants := []variant{
		{"kvm-ept (BM)", backend.KVMEPTBM, true, ""},
		{"kvm-spt (BM)", backend.KVMSPTBM, true, ""},
		{"pvm (BM)", backend.PVMBM, false, "none"},
		{"pvm (BM)", backend.PVMBM, true, "direct-switch"},
		{"kvm (NST)", backend.KVMEPTNST, true, ""},
		{"pvm (NST)", backend.PVMNST, false, "none"},
		{"pvm (NST)", backend.PVMNST, true, "direct-switch"},
	}
	t := &metrics.Table{
		Title:   "Table 2",
		Columns: []string{"Optimization", "Syscall (µs, KPTI on/off)"},
	}
	// One cell per (variant, KPTI) pair.
	vals := runCells(sc, len(variants)*2, func(i int) int64 {
		v := variants[i/2]
		opt := backend.DefaultOptions()
		opt.KPTI = i%2 == 0
		opt.DirectSwitch = v.direct
		return perOp(v.cfg, opt, sc.MicroIters, func(p *guest.Process) { p.Getpid() })
	})
	for vi, v := range variants {
		t.Rows = append(t.Rows, metrics.TableRow{
			Label: v.name,
			Cells: []string{v.note, us(vals[vi*2]) + "/" + us(vals[vi*2+1])},
		})
	}
	_, err := io.WriteString(w, t.Format())
	return err
}

// switchCost reproduces the §2.2/§3.3.2 measurement: the cost of one world
// switch under single-level virtualization (0.105 µs), hardware-assisted
// nesting (1.3 µs), and PVM's switcher (0.179 µs). Measured as half the
// round trip of a minimal trap, minus the handler body.
func switchCost(sc Scale, w io.Writer) error {
	opt := backend.DefaultOptions()
	prm := backend.NewSystem(backend.KVMEPTBM, opt).Prm

	cfgs := []backend.Config{backend.KVMEPTBM, backend.KVMEPTNST, backend.PVMNST}
	rts := runCells(sc, len(cfgs), func(i int) int64 {
		return perOp(cfgs[i], opt, sc.MicroIters, func(p *guest.Process) { p.PrivOp(arch.OpHypercall) })
	})
	single := (rts[0] - prm.HandlerHypercall) / 2
	nested := (rts[1] - prm.HandlerHypercall - prm.NestedExitHousekeeping) / 2
	pvm := (rts[2] - prm.PVMHandlerHypercall) / 2

	t := &metrics.Table{
		Title:   "World-switch cost (µs); paper: 0.105 / 1.3 / 0.179",
		Columns: []string{"measured"},
		Rows: []metrics.TableRow{
			{Label: "single-level (L1↔L0, VMX)", Cells: []string{us(single)}},
			{Label: "nested (L2↔L1 via L0)", Cells: []string{us(nested)}},
			{Label: "PVM switcher (L2↔L1)", Cells: []string{us(pvm)}},
		},
	}
	_, err := io.WriteString(w, t.Format())
	return err
}

// fig2 reproduces Figure 2: normalized execution time of secure containers
// under hardware-assisted nesting (kvm NST) relative to single-level
// virtualization (kvm BM), for LMbench operations (one container) and
// kbuild/specjbb (16 containers).
func fig2(sc Scale, w io.Writer) error {
	type bench struct {
		name string
		conc int
		run  func(p *guest.Process) int64
	}
	benches := []bench{
		{"null call", 1, func(p *guest.Process) int64 { return lmbench.NullIO(p, sc.LMIters).Total }},
		{"stat", 1, func(p *guest.Process) int64 { return lmbench.Stat(p, sc.LMIters).Total }},
		{"open/close", 1, func(p *guest.Process) int64 { return lmbench.OpenClose(p, sc.LMIters).Total }},
		{"slct tcp", 1, func(p *guest.Process) int64 { return lmbench.SelectTCP(p, sc.LMIters).Total }},
		{"sig inst", 1, func(p *guest.Process) int64 { return lmbench.SigInstall(p, sc.LMIters).Total }},
		{"sig hndl", 1, func(p *guest.Process) int64 { return lmbench.SigHandle(p, sc.LMIters).Total }},
		{"fork", 1, func(p *guest.Process) int64 { return lmbench.ForkProc(p, 2).Total }},
		{"exec", 1, func(p *guest.Process) int64 { return lmbench.ExecProc(p, 2).Total }},
		{"sh", 1, func(p *guest.Process) int64 { return lmbench.ShProc(p, 1).Total }},
		{"kbuild", 16, func(p *guest.Process) int64 { return workloads.Kbuild(p, sc.AppRounds) }},
		{"specjbb", 16, func(p *guest.Process) int64 { return workloads.SPECjbb(p, sc.AppRounds*4) }},
	}
	t := &metrics.Table{
		Title:   "Figure 2: normalized exec time (kvm NST / kvm BM); 1 = no overhead",
		Columns: []string{"KVM", "KVM (NST)"},
	}
	// One cell per (benchmark, configuration) pair: even = BM, odd = NST.
	vals := runCells(sc, len(benches)*2, func(i int) int64 {
		b := benches[i/2]
		cfg := backend.KVMEPTBM
		if i%2 == 1 {
			cfg = backend.KVMEPTNST
		}
		return runConcurrent(cfg, backend.DefaultOptions(), sc, b.conc, b.run)
	})
	for bi, b := range benches {
		ratio := float64(vals[bi*2+1]) / float64(vals[bi*2])
		t.Rows = append(t.Rows, metrics.TableRow{
			Label: b.name,
			Cells: []string{"1.00", fmt.Sprintf("%.2f", ratio)},
		})
	}
	_, err := io.WriteString(w, t.Format())
	return err
}

// runConcurrent runs fn in conc containers concurrently (one process each)
// and returns the mean per-container measured time.
func runConcurrent(cfg backend.Config, opt backend.Options, sc Scale, conc int, fn func(p *guest.Process) int64) int64 {
	opt.Cores = sc.Cores
	s := backend.NewSystem(cfg, opt)
	results := make([]int64, conc)
	// Hold the engine across the admission loop (see memRun).
	release := s.Eng.Hold()
	for i := 0; i < conc; i++ {
		g, err := s.NewGuest(fmt.Sprintf("g%02d", i))
		if err != nil {
			panic(err)
		}
		idx := i
		g.Run(0, lmbench.ProcImagePages, func(p *guest.Process) {
			results[idx] = fn(p)
		})
	}
	release()
	s.Eng.Wait()
	var sum int64
	for _, r := range results {
		sum += r
	}
	return sum / int64(conc)
}
