package experiments

import (
	"fmt"
	"io"

	"repro/internal/arch"
	"repro/internal/backend"
	"repro/internal/guest"
	"repro/internal/metrics"
	"repro/internal/workloads"
)

func init() {
	register(Experiment{
		ID:    "precopy",
		Title: "Pre-copy live migration on dirty-page logging: rounds to converge per backend",
		Extra: true,
		Run:   precopyExp,
	})
}

// precopyResult summarizes one simulated pre-copy migration.
type precopyResult struct {
	rounds     int   // iterative rounds after the initial full copy
	firstDirty int   // dirty pages harvested in the first round
	lastDirty  int   // dirty pages in the final (stop-and-copy) round
	copied     int64 // total pages copied, initial copy included
	makespan   int64 // virtual ns, admission to quiescence
	converged  bool
}

// mutate dirties n distinct pages of the working set. Sequential mode is
// membench-style locality: one long run for the ranged-access fast path,
// each page written once. Strided mode is lmbench-style: stride-4 single
// touches, then a second pass over the same pages — rewrites that hit the
// TLB entries the first pass installed, the path the armed write gate
// keeps honest — so the modes dirty the same page count per round but
// spend different virtual time doing it.
func mutate(p *guest.Process, base arch.VA, n int, strided bool) {
	if !strided {
		p.TouchRange(base, n, true)
		return
	}
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			p.Touch(base+arch.VA(4*i)*arch.PageSize, true)
		}
	}
}

// precopyCell simulates one migration: make the working set resident, arm
// dirty logging, pay the initial full copy, then iterate — the guest
// mutates at the scale's dirty rate for as long as the previous round took,
// the migrator harvests the epoch and copies it — until a round's dirty set
// fits the stop-and-copy threshold or the round budget runs out. Copy
// bandwidth is modeled as CopyPage virtual ns per page on the same vCPU, so
// each backend's own fault and logging costs feed back into its round
// lengths and therefore its convergence.
func precopyCell(cfg backend.Config, opt backend.Options, sc Scale, strided bool) precopyResult {
	opt.Cores = sc.Cores
	s := backend.NewSystem(cfg, opt)
	g, err := s.NewGuest("migrate")
	if err != nil {
		panic(err)
	}
	total := sc.MembenchMiB * workloads.PagesPerMiB
	hot := max(total/4, 1) // mutation cap: the hot quarter of the set
	copyPage := s.Prm.CopyPage
	var res precopyResult
	g.Run(0, 4, func(p *guest.Process) {
		base := p.Mmap(total)
		p.TouchRange(base, total, true)
		p.StartDirtyLog()
		roundStart := p.CPU.Now()
		p.Compute(int64(total) * copyPage)
		res.copied = int64(total)
		for {
			// Dirty rate × previous round's virtual duration, in pages.
			dur := p.CPU.Now() - roundStart
			roundStart = p.CPU.Now()
			n := int(dur * int64(sc.PrecopyRatePages) / 1e6)
			n = min(max(n, 1), hot)
			mutate(p, base, n, strided)
			dirty := p.CollectDirty()
			res.rounds++
			if res.rounds == 1 {
				res.firstDirty = len(dirty)
			}
			res.lastDirty = len(dirty)
			res.copied += int64(len(dirty))
			p.Compute(int64(len(dirty)) * copyPage)
			if len(dirty) <= sc.PrecopyThreshold {
				res.converged = true
				break
			}
			if res.rounds >= sc.PrecopyRounds {
				break
			}
		}
		p.StopDirtyLog()
	})
	s.Eng.Wait()
	res.makespan = s.Eng.Makespan()
	return res
}

// precopyVariants are the migration sources: the five deployment
// configurations plus direct paging — both dirty-log lanes (write-protect
// and PML) across bare-metal and nested stacks.
func precopyVariants() []struct {
	name string
	cfg  backend.Config
	opt  backend.Options
} {
	direct := backend.DefaultOptions()
	direct.DirectPaging = true
	return []struct {
		name string
		cfg  backend.Config
		opt  backend.Options
	}{
		{"kvm-ept (BM)", backend.KVMEPTBM, backend.DefaultOptions()},
		{"kvm-spt (BM)", backend.KVMSPTBM, backend.DefaultOptions()},
		{"pvm (BM)", backend.PVMBM, backend.DefaultOptions()},
		{"kvm-ept (NST)", backend.KVMEPTNST, backend.DefaultOptions()},
		{"pvm (NST)", backend.PVMNST, backend.DefaultOptions()},
		{"pvm-direct (NST)", backend.PVMNST, direct},
	}
}

// precopyExp prints one table per mutation mode: rounds to convergence,
// first/last round dirty-set sizes, total pages copied, and migration time.
func precopyExp(sc Scale, w io.Writer) error {
	variants := precopyVariants()
	modes := []struct {
		label   string
		strided bool
	}{
		{"sequential mutator", false},
		{"strided mutator", true},
	}
	// One cell per (mode, variant) pair.
	nv := len(variants)
	vals := runCells(sc, len(modes)*nv, func(i int) precopyResult {
		v := variants[i%nv]
		return precopyCell(v.cfg, v.opt, sc, modes[i/nv].strided)
	})
	for mi, m := range modes {
		t := &metrics.Table{
			Title: fmt.Sprintf("Pre-copy migration (%s): %d MiB set, %d pages/ms, threshold %d pages",
				m.label, sc.MembenchMiB, sc.PrecopyRatePages, sc.PrecopyThreshold),
			Columns: []string{"rounds", "first", "last", "copied", "time (ms)", "converged"},
		}
		for vi, v := range variants {
			r := vals[mi*nv+vi]
			t.Rows = append(t.Rows, metrics.TableRow{Label: v.name, Cells: []string{
				fmt.Sprintf("%d", r.rounds),
				fmt.Sprintf("%d", r.firstDirty),
				fmt.Sprintf("%d", r.lastDirty),
				fmt.Sprintf("%d", r.copied),
				fmt.Sprintf("%.3f", float64(r.makespan)/1e6),
				fmt.Sprintf("%v", r.converged),
			}})
		}
		if _, err := io.WriteString(w, t.Format()); err != nil {
			return err
		}
		if mi < len(modes)-1 {
			fmt.Fprintln(w)
		}
	}
	return nil
}
