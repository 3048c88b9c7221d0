package experiments

import (
	"fmt"
	"io"

	"repro/internal/arch"
	"repro/internal/backend"
	"repro/internal/guest"
	"repro/internal/metrics"
	"repro/internal/vclock"
	"repro/internal/workloads"
)

func init() {
	register(Experiment{ID: "future", Title: "§5 future-work designs vs shipping PVM (memory workload)", Run: futureExp})
	register(Experiment{ID: "vmcsshadow", Title: "§2.1: exits per nested world switch with/without VMCS shadowing", Run: vmcsShadowExp})
	register(Experiment{ID: "migration", Title: "§2.3: L1 instance lifecycle control per configuration", Run: migrationExp})
}

// futureExp compares shipping PVM (NST) against the three §5 extensions on
// the Figure 10 workload: switcher fault classification (2n+4 → 2n+3
// switches), collaborative WP-free sync (no write-protection traps), and
// Xen-style direct paging (constant switches per fault).
func futureExp(sc Scale, w io.Writer) error {
	variants := []struct {
		name string
		mut  func(*backend.Options)
	}{
		{"pvm (NST), shipping", func(o *backend.Options) {}},
		{"+ switcher fault classification", func(o *backend.Options) { o.SwitcherFaultClassify = true }},
		{"+ collaborative sync (no WP)", func(o *backend.Options) { o.CollaborativeSync = true }},
		{"+ direct paging", func(o *backend.Options) { o.DirectPaging = true }},
	}
	t := &metrics.Table{
		Title:   fmt.Sprintf("Future-work designs: %d MiB alloc/release per process", sc.MembenchMiB),
		Columns: []string{"time (ms)", "switches/fault", "PTE-write traps"},
	}
	procs := 8
	pages := sc.MembenchMiB * workloads.PagesPerMiB
	// One cell per variant.
	rows := runCells(sc, len(variants), func(i int) []string {
		v := variants[i]
		opt := backend.DefaultOptions()
		opt.Cores = sc.Cores
		v.mut(&opt)
		s := backend.NewSystem(backend.PVMNST, opt)
		g, err := s.NewGuest("future")
		if err != nil {
			panic(err)
		}
		// Hold the engine across the admission loop (see memRun).
		release := s.Eng.Hold()
		for j := 0; j < procs; j++ {
			g.Run(0, 4, func(p *guest.Process) {
				workloads.MembenchCycle(p, pages)
			})
		}
		release()
		s.Eng.Wait()
		snap := s.Ctr.Snapshot()
		perFault := float64(0)
		if snap.GuestFaults > 0 {
			perFault = float64(snap.WorldSwitches) / float64(snap.GuestFaults)
		}
		return []string{
			fmt.Sprintf("%.3f", float64(s.Eng.Makespan())/1e6),
			fmt.Sprintf("%.1f", perFault),
			fmt.Sprintf("%d", snap.PTEWriteTraps),
		}
	})
	for vi, v := range variants {
		t.Rows = append(t.Rows, metrics.TableRow{Label: v.name, Cells: rows[vi]})
	}
	_, err := io.WriteString(w, t.Format())
	return err
}

// vmcsShadowExp reproduces the §2.1 motivation for VMCS shadowing: without
// it, the L1 hypervisor's VMCS12 accesses while handling one L2 world
// switch cause 40–50 exits to L0.
func vmcsShadowExp(sc Scale, w io.Writer) error {
	measure := func(shadowing bool) (exits int64, latency int64) {
		opt := backend.DefaultOptions()
		opt.VMCSShadowing = shadowing
		s := backend.NewSystem(backend.KVMEPTNST, opt)
		g, err := s.NewGuest("g0")
		if err != nil {
			panic(err)
		}
		g.Run(0, 4, func(p *guest.Process) {
			before := s.Ctr.Snapshot().L0Exits
			start := p.CPU.Now()
			for i := 0; i < sc.MicroIters; i++ {
				p.PrivOp(arch.OpHypercall)
			}
			latency = (p.CPU.Now() - start) / int64(sc.MicroIters)
			exits = (s.Ctr.Snapshot().L0Exits - before) / int64(sc.MicroIters)
		})
		s.Eng.Wait()
		return exits, latency
	}
	type res struct{ exits, latency int64 }
	vals := runCells(sc, 2, func(i int) res {
		e, l := measure(i == 0)
		return res{e, l}
	})
	withE, withL := vals[0].exits, vals[0].latency
	withoutE, withoutL := vals[1].exits, vals[1].latency
	t := &metrics.Table{
		Title:   "VMCS shadowing (per hypercall round trip); paper: 40–50 exits/switch unshadowed",
		Columns: []string{"L0 exits", "latency (µs)"},
		Rows: []metrics.TableRow{
			{Label: "with VMCS shadowing", Cells: []string{fmt.Sprintf("%d", withE), us(withL)}},
			{Label: "without VMCS shadowing", Cells: []string{fmt.Sprintf("%d", withoutE), us(withoutL)}},
		},
	}
	_, err := io.WriteString(w, t.Format())
	return err
}

// migrationExp demonstrates §2.3's management-flexibility claim: with a
// running L2 guest, the provider can still migrate/save/load a PVM L1
// instance but not a hardware-assisted nested one.
func migrationExp(sc Scale, w io.Writer) error {
	t := &metrics.Table{
		Title:   "L1 instance lifecycle with a running L2 guest",
		Columns: []string{"migratable", "reason"},
	}
	for _, cfg := range []backend.Config{backend.KVMEPTNST, backend.SPTEPTNST, backend.PVMNST} {
		s := backend.NewSystem(cfg, backend.DefaultOptions())
		g, err := s.NewGuest("g0")
		if err != nil {
			panic(err)
		}
		var ok bool
		var why string
		done := make(chan struct{})
		s.Eng.Go(0, func(c *vclock.CPU) {
			p, err := g.Kern.StartProcess(c, 16)
			if err != nil {
				panic(err)
			}
			ok, why = s.CanMigrateL1()
			close(done)
			if err := p.Exit(); err != nil {
				panic(err)
			}
		})
		s.Eng.Wait()
		<-done
		t.Rows = append(t.Rows, metrics.TableRow{
			Label: cfg.String(),
			Cells: []string{fmt.Sprintf("%v", ok), why},
		})
	}
	_, err := io.WriteString(w, t.Format())
	return err
}
