package experiments

import (
	"fmt"
	"io"

	"repro/internal/backend"
	"repro/internal/container"
	"repro/internal/guest"
	"repro/internal/metrics"
	"repro/internal/workloads"
)

func init() {
	register(Experiment{ID: "fig11", Title: "Real-world applications under different concurrency (per-container time / throughput)", Run: fig11})
	register(Experiment{ID: "fig12", Title: "fluidanimate under high container density", Run: fig12})
	register(Experiment{ID: "fig13", Title: "CloudSuite benchmarks (performance normalized to kvm-ept (BM))", Run: fig13})
}

// appRun deploys `conc` secure containers running the workload and returns
// the mean workload time over successful containers plus the failure count.
func appRun(cfg backend.Config, sc Scale, conc int, imagePages int, fn func(p *guest.Process)) (mean int64, failures int) {
	opt := backend.DefaultOptions()
	opt.Cores = sc.Cores
	s := backend.NewSystem(cfg, opt)
	rt := container.NewRuntime(s)
	cs, err := rt.DeployFleet(conc, imagePages, 50_000, func(idx int, p *guest.Process) { fn(p) })
	if err != nil {
		panic(err)
	}
	m, ok := container.MeanWorkloadTime(cs)
	if !ok {
		return 0, rt.Failures()
	}
	return m, rt.Failures()
}

// fig11 reproduces Figure 11: kbuild, blogbench, specjbb, and fluidanimate
// in 1/4/16 secure containers across the five configurations. kbuild and
// fluidanimate report mean execution time (s, lower is better); blogbench
// and specjbb report throughput (rounds/s, higher is better).
func fig11(sc Scale, w io.Writer) error {
	type app struct {
		name       string
		image      int
		throughput bool
		rounds     int
		run        func(p *guest.Process, rounds int) int64
	}
	apps := []app{
		{"kbuild", 420, false, sc.AppRounds, workloads.Kbuild},
		{"blogbench", 96, true, sc.AppRounds * 4, workloads.Blogbench},
		{"specjbb", 256, true, sc.AppRounds * 4, workloads.SPECjbb},
		{"fluidanimate", 128, false, sc.AppRounds * 30, workloads.Fluidanimate},
	}
	// One cell per (app, configuration, concurrency) triple.
	cfgs := paperConfigs()
	nc, nn := len(cfgs), len(sc.Fig11Concurrency)
	type cellRes struct {
		mean  int64
		fails int
	}
	vals := runCells(sc, len(apps)*nc*nn, func(i int) cellRes {
		a := apps[i/(nc*nn)]
		cfg := cfgs[(i/nn)%nc]
		conc := sc.Fig11Concurrency[i%nn]
		mean, fails := appRun(cfg, sc, conc, a.image, func(p *guest.Process) {
			a.run(p, a.rounds)
		})
		return cellRes{mean, fails}
	})
	for ai, a := range apps {
		unit := "s (lower better)"
		if a.throughput {
			unit = "rounds/s (higher better)"
		}
		t := &metrics.Table{Title: fmt.Sprintf("Figure 11: %s — %s", a.name, unit)}
		for _, conc := range sc.Fig11Concurrency {
			t.Columns = append(t.Columns, fmt.Sprintf("%d", conc))
		}
		for ci, cfg := range cfgs {
			row := metrics.TableRow{Label: cfg.String()}
			for ni := range sc.Fig11Concurrency {
				r := vals[(ai*nc+ci)*nn+ni]
				switch {
				case r.fails > 0 && r.mean == 0:
					row.Cells = append(row.Cells, "FAIL")
				case a.throughput:
					row.Cells = append(row.Cells, fmt.Sprintf("%.2f", float64(a.rounds)/(float64(r.mean)/1e9)))
				default:
					row.Cells = append(row.Cells, seconds(r.mean))
				}
			}
			t.Rows = append(t.Rows, row)
		}
		if _, err := io.WriteString(w, t.Format()); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// fig12 reproduces Figure 12: fluidanimate at container densities up to the
// machine's capacity. The hardware-assisted nested configuration fails to
// start containers within the runtime deadline at high density (the paper's
// observed RunD connection failure).
func fig12(sc Scale, w io.Writer) error {
	t := &metrics.Table{Title: "Figure 12: fluidanimate mean exec time (s); X = container start failures"}
	for _, d := range sc.DensityLevels {
		t.Columns = append(t.Columns, fmt.Sprintf("%d", d))
	}
	// One cell per (configuration, density) pair.
	cfgs := paperConfigs()
	nd := len(sc.DensityLevels)
	type cellRes struct {
		mean  int64
		fails int
	}
	vals := runCells(sc, len(cfgs)*nd, func(i int) cellRes {
		mean, fails := appRun(cfgs[i/nd], sc, sc.DensityLevels[i%nd], 128, func(p *guest.Process) {
			workloads.Fluidanimate(p, sc.AppRounds*10)
		})
		return cellRes{mean, fails}
	})
	for ci, cfg := range cfgs {
		row := metrics.TableRow{Label: cfg.String()}
		for di := range sc.DensityLevels {
			r := vals[ci*nd+di]
			cell := seconds(r.mean)
			if r.fails > 0 {
				cell = fmt.Sprintf("X(%d)", r.fails)
				if r.mean > 0 {
					cell = fmt.Sprintf("%s X(%d)", seconds(r.mean), r.fails)
				}
			}
			row.Cells = append(row.Cells, cell)
		}
		t.Rows = append(t.Rows, row)
	}
	_, err := io.WriteString(w, t.Format())
	return err
}

// fig13 reproduces Figure 13: CloudSuite data/graph/in-memory analytics,
// normalized to kvm-ept (BM) (1.0 = bare-metal hardware performance;
// higher is better).
func fig13(sc Scale, w io.Writer) error {
	kinds := []workloads.CloudKind{
		workloads.DataAnalytics, workloads.GraphAnalytics, workloads.InMemoryAnalytics,
	}
	t := &metrics.Table{Title: "Figure 13: normalized performance (kvm-ept (BM) = 1.0)"}
	for _, k := range kinds {
		t.Columns = append(t.Columns, k.String())
	}
	// One cell per (configuration, kind) pair; the baseline kvm-ept (BM)
	// measurement is the first configuration's row (the calls are
	// identical, so the values match the separately-measured baseline).
	cfgs := paperConfigs()
	nk := len(kinds)
	vals := runCells(sc, len(cfgs)*nk, func(i int) int64 {
		mean, _ := appRun(cfgs[i/nk], sc, 2, 256, func(p *guest.Process) {
			workloads.CloudSuite(p, kinds[i%nk], sc.CloudRounds, sc.CloudDatasetPages)
		})
		return mean
	})
	base := map[workloads.CloudKind]int64{}
	for ki, k := range kinds {
		base[k] = vals[ki] // cfgs[0] == backend.KVMEPTBM
	}
	for ci, cfg := range cfgs {
		row := metrics.TableRow{Label: cfg.String()}
		for ki, k := range kinds {
			row.Cells = append(row.Cells, fmt.Sprintf("%.2f", float64(base[k])/float64(vals[ci*nk+ki])))
		}
		t.Rows = append(t.Rows, row)
	}
	_, err := io.WriteString(w, t.Format())
	return err
}
