package experiments

import (
	"fmt"
	"io"

	"repro/internal/backend"
	"repro/internal/guest"
	"repro/internal/metrics"
	"repro/internal/workloads"
)

func init() {
	register(Experiment{ID: "fig4", Title: "EPT vs SPT with/without nested virtualization (execution time, s)", Run: fig4})
	register(Experiment{ID: "fig10", Title: "Guest page fault handling performance and PVM ablations (execution time, s)", Run: fig10})
}

// memRun runs the memory micro-benchmark in one secure container with
// `procs` concurrent processes and returns the makespan in virtual ns.
func memRun(cfg backend.Config, opt backend.Options, sc Scale, procs int, cycle bool) int64 {
	opt.Cores = sc.Cores
	s := backend.NewSystem(cfg, opt)
	g, err := s.NewGuest("membench")
	if err != nil {
		panic(err)
	}
	pages := sc.MembenchMiB * workloads.PagesPerMiB
	// Admit the whole process set under an engine hold so the conservative
	// minimum is computed over the complete vCPU population regardless of
	// how the host scheduler interleaves this loop with the guests.
	release := s.Eng.Hold()
	for i := 0; i < procs; i++ {
		g.Run(0, 4, func(p *guest.Process) {
			if cycle {
				workloads.MembenchCycle(p, pages)
			} else {
				workloads.MembenchCumulative(p, pages)
			}
		})
	}
	release()
	s.Eng.Wait()
	return s.Eng.Makespan()
}

// fig4 reproduces Figure 4: the cumulative-allocation benchmark under the
// four memory-virtualization designs of §2.2.
func fig4(sc Scale, w io.Writer) error {
	rows := []struct {
		name string
		cfg  backend.Config
	}{
		{"EPT", backend.KVMEPTBM},
		{"SPT", backend.KVMSPTBM},
		{"EPT-EPT", backend.KVMEPTNST},
		{"SPT-EPT", backend.SPTEPTNST},
	}
	t := &metrics.Table{Title: fmt.Sprintf("Figure 4: execution time (s), %d MiB/process", sc.MembenchMiB)}
	for _, procs := range sc.Fig4Procs {
		t.Columns = append(t.Columns, fmt.Sprintf("%d proc", procs))
	}
	// One cell per (configuration, process count) pair.
	np := len(sc.Fig4Procs)
	vals := runCells(sc, len(rows)*np, func(i int) int64 {
		return memRun(rows[i/np].cfg, backend.DefaultOptions(), sc, sc.Fig4Procs[i%np], false)
	})
	for ri, r := range rows {
		row := metrics.TableRow{Label: r.name}
		for pi := range sc.Fig4Procs {
			row.Cells = append(row.Cells, seconds(vals[ri*np+pi]))
		}
		t.Rows = append(t.Rows, row)
	}
	_, err := io.WriteString(w, t.Format())
	return err
}

// fig10Variants are the Figure 10 lines: the five deployment configurations
// plus PVM (NST) with exactly one optimization enabled at a time.
func fig10Variants() []struct {
	name string
	cfg  backend.Config
	opt  backend.Options
} {
	all := backend.DefaultOptions()
	single := func(prefault, pcid, lock bool) backend.Options {
		o := backend.DefaultOptions()
		o.Prefault = prefault
		o.PCIDMap = pcid
		o.FineLock = lock
		return o
	}
	return []struct {
		name string
		cfg  backend.Config
		opt  backend.Options
	}{
		{"kvm-ept (BM)", backend.KVMEPTBM, all},
		{"kvm-spt (BM)", backend.KVMSPTBM, all},
		{"pvm (BM)", backend.PVMBM, all},
		{"kvm-ept (NST)", backend.KVMEPTNST, all},
		{"pvm (NST)", backend.PVMNST, all},
		{"pvm (NST-prefault)", backend.PVMNST, single(true, false, false)},
		{"pvm (NST-pcid)", backend.PVMNST, single(false, true, false)},
		{"pvm (NST-lock)", backend.PVMNST, single(false, false, true)},
	}
}

// fig10 reproduces Figure 10: the allocate/release benchmark scaling from 1
// to 32 processes, with PVM's optimizations ablated one at a time.
func fig10(sc Scale, w io.Writer) error {
	t := &metrics.Table{Title: fmt.Sprintf("Figure 10: execution time (s), %d MiB touched/process", sc.MembenchMiB)}
	for _, procs := range sc.Fig10Procs {
		t.Columns = append(t.Columns, fmt.Sprintf("%d", procs))
	}
	// One cell per (variant, process count) pair.
	variants := fig10Variants()
	np := len(sc.Fig10Procs)
	vals := runCells(sc, len(variants)*np, func(i int) int64 {
		v := variants[i/np]
		return memRun(v.cfg, v.opt, sc, sc.Fig10Procs[i%np], true)
	})
	for vi, v := range variants {
		row := metrics.TableRow{Label: v.name}
		for pi := range sc.Fig10Procs {
			row.Cells = append(row.Cells, seconds(vals[vi*np+pi]))
		}
		t.Rows = append(t.Rows, row)
	}
	_, err := io.WriteString(w, t.Format())
	return err
}
