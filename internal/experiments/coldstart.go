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
	register(Experiment{ID: "coldstart", Title: "§4.4: secure-container cold-start latency vs burst size (serverless traffic spikes)", Run: coldstart})
}

// coldstart quantifies the §4.4 deployment story: serverless traffic spikes
// are absorbed by promptly launching secure containers. It reports the worst
// (tail) sandbox startup latency when a burst of containers starts at once —
// flat for PVM, linear in burst size for hardware-assisted nesting, whose
// boots serialize on the L0 mmu_lock (and eventually blow the runtime's
// connection deadline, Figure 12).
func coldstart(sc Scale, w io.Writer) error {
	bursts := []int{1, 25, 50, 100}
	t := &metrics.Table{Title: "Worst sandbox startup latency (ms) by burst size; X = deadline exceeded"}
	for _, b := range bursts {
		t.Columns = append(t.Columns, fmt.Sprintf("%d", b))
	}
	// One cell per (configuration, burst size) pair.
	cfgs := paperConfigs()
	nb := len(bursts)
	vals := runCells(sc, len(cfgs)*nb, func(i int) string {
		opt := backend.DefaultOptions()
		opt.Cores = sc.Cores
		s := backend.NewSystem(cfgs[i/nb], opt)
		rt := container.NewRuntime(s)
		cs, err := rt.DeployFleet(bursts[i%nb], 32, 10_000, func(_ int, p *guest.Process) {
			// A short serverless function body.
			heap := p.Mmap(64)
			p.TouchRange(heap, 64, true)
			p.Compute(200_000)
			_ = workloads.PagesPerMiB
			if err := p.Munmap(heap, 64); err != nil {
				panic(err)
			}
		})
		if err != nil {
			panic(err)
		}
		var worst int64
		for _, c := range cs {
			if c.StartupLatency() > worst {
				worst = c.StartupLatency()
			}
		}
		cell := fmt.Sprintf("%.1f", float64(worst)/1e6)
		if rt.Failures() > 0 {
			cell += fmt.Sprintf(" X(%d)", rt.Failures())
		}
		return cell
	})
	for ci, cfg := range cfgs {
		row := metrics.TableRow{Label: cfg.String()}
		row.Cells = append(row.Cells, vals[ci*nb:(ci+1)*nb]...)
		t.Rows = append(t.Rows, row)
	}
	_, err := io.WriteString(w, t.Format())
	return err
}
