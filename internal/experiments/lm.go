package experiments

import (
	"fmt"
	"io"

	"repro/internal/backend"
	"repro/internal/guest"
	"repro/internal/lmbench"
	"repro/internal/metrics"
)

func init() {
	register(Experiment{ID: "table3", Title: "LMbench processes — time in µs (smaller is better)", Run: table3})
	register(Experiment{ID: "table4", Title: "LMbench file & VM system latencies in µs (smaller is better)", Run: table4})
}

// paperConfigs are the five deployment scenarios of §4.
func paperConfigs() []backend.Config {
	return []backend.Config{
		backend.KVMEPTBM, backend.KVMSPTBM, backend.PVMBM,
		backend.KVMEPTNST, backend.PVMNST,
	}
}

// table3 reproduces Table 3: the LMbench process suite at 1 and 32
// concurrent processes for each configuration.
func table3(sc Scale, w io.Writer) error {
	names := []string{
		"null I/O", "stat", "open/close", "slct TCP", "sig inst",
		"sig hndl", "fork proc", "exec proc", "sh proc",
	}
	t := &metrics.Table{Title: "Table 3", Columns: append([]string{"#P"}, names...)}
	// One cell per (configuration, process count) pair.
	cfgs := paperConfigs()
	procCounts := []int{1, 32}
	np := len(procCounts)
	vals := runCells(sc, len(cfgs)*np, func(i int) map[string]int64 {
		return lmProcRun(cfgs[i/np], sc, procCounts[i%np])
	})
	for ci, cfg := range cfgs {
		for pi, procs := range procCounts {
			res := vals[ci*np+pi]
			row := metrics.TableRow{Label: cfg.String(), Cells: []string{fmt.Sprintf("%d", procs)}}
			for _, name := range names {
				row.Cells = append(row.Cells, us(res[name]))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	_, err := io.WriteString(w, t.Format())
	return err
}

// lmProcRun runs the process suite in one container with `procs` concurrent
// processes and returns mean per-op latency by benchmark name.
func lmProcRun(cfg backend.Config, sc Scale, procs int) map[string]int64 {
	opt := backend.DefaultOptions()
	opt.Cores = sc.Cores
	s := backend.NewSystem(cfg, opt)
	g, err := s.NewGuest("lmbench")
	if err != nil {
		panic(err)
	}
	all := make([][]lmbench.Result, procs)
	// Hold the engine across the admission loop (see memRun).
	release := s.Eng.Hold()
	for i := 0; i < procs; i++ {
		idx := i
		g.Run(0, lmbench.ProcImagePages, func(p *guest.Process) {
			all[idx] = lmbench.ProcSuite(p, sc.LMIters)
		})
	}
	release()
	s.Eng.Wait()
	out := map[string]int64{}
	counts := map[string]int64{}
	for _, rs := range all {
		for _, r := range rs {
			out[r.Name] += r.PerOp()
			counts[r.Name]++
		}
	}
	for k := range out {
		out[k] /= counts[k]
	}
	return out
}

// table4 reproduces Table 4: file creation/deletion, mmap, protection
// faults, page faults, and select across the five configurations.
func table4(sc Scale, w io.Writer) error {
	cols := []string{
		"0K create", "0K delete", "10K create", "10K delete",
		"mmap(total)", "prot fault", "page fault", "100fd select",
	}
	t := &metrics.Table{Title: "Table 4 (µs; mmap total in ms)", Columns: cols}
	// One cell per configuration.
	cfgs := paperConfigs()
	vals := runCells(sc, len(cfgs), func(i int) map[string]string {
		cfg := cfgs[i]
		res := map[string]string{}
		measureOn(cfg, backend.DefaultOptions(), lmbench.ProcImagePages, func(p *guest.Process) int64 {
			c0, d0 := lmbench.FileCreateDelete0K(p, sc.LMIters)
			c10, d10 := lmbench.FileCreateDelete10K(p, sc.LMIters)
			res["0K create"] = us(c0.PerOp())
			res["0K delete"] = us(d0.PerOp())
			res["10K create"] = us(c10.PerOp())
			res["10K delete"] = us(d10.PerOp())
			mm := lmbench.Mmap(p)
			res["mmap(total)"] = fmt.Sprintf("%.1f", float64(mm.Total)/1e6)
			pf := lmbench.ProtFault(p, 128)
			res["prot fault"] = us(pf.PerOp())
			pg := lmbench.PageFault(p, 256)
			res["page fault"] = us(pg.PerOp())
			sel := lmbench.Select100FD(p, sc.LMIters)
			res["100fd select"] = us(sel.PerOp())
			return 0
		})
		return res
	})
	for ci, cfg := range cfgs {
		row := metrics.TableRow{Label: cfg.String()}
		for _, c := range cols {
			row.Cells = append(row.Cells, vals[ci][c])
		}
		t.Rows = append(t.Rows, row)
	}
	_, err := io.WriteString(w, t.Format())
	return err
}
