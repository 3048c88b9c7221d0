package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
)

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end metrics only
}

// benchSpec is BENCHMARK.json, the benchmark's declaration of its workloads
// and metrics; runs report exactly the metrics it names, in its units.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// endToEnd computes the end-to-end metrics of a run's untraced phase. Times
// are reference-speed host times (see refspeed.go), read one of two ways:
//
//   - For a workload of short ops (w.best), each op's time is its fastest
//     over the run's passes, at the reference kernel's best speed: wall_s is
//     their sum, op_ms_p50 and op_ms_p90 their median and 90th percentile.
//     A sub-millisecond op runs at whatever speed the host has at that
//     instant, and the host spends most of its time 1.5 to 2 times slower
//     than its best, in a share that changes from run to run; each op's
//     fastest of twenty or more passes, like the kernel's fastest samples,
//     lands in the host's best state in every run.
//   - For a workload of long ops, the medians over passes and over every
//     op's latency, at the speed of the median kernel sample: an op of tens
//     of milliseconds spans the host's states itself, and a run holds too
//     few passes for a fastest one to recur.
func endToEnd(w workload, o *outcome) map[string]float64 {
	ph := o.untraced
	f := timeScale(w, o)
	wall, lats := median(ph.walls), ph.lats
	if w.best {
		lats = ph.bestLats()
		wall = 0
		for _, l := range lats {
			wall += l / 1e3
		}
	}
	p90, _ := percentile(lats, 0.9)
	return map[string]float64{
		"setup_s":     o.ref.factor() * median(o.setups),
		"wall_s":      f * wall,
		"op_ms_p50":   f * median(lats),
		"op_ms_p90":   f * p90,
		"max_rss_mib": median(ph.peaks),
		"alloc_mib":   median(ph.allocs),
	}
}

// timeScale is the scale endToEnd applies to w's op and pass times.
func timeScale(w workload, o *outcome) float64 {
	if w.best {
		return o.ref.bestFactor()
	}
	return o.ref.factor()
}

// bestLats returns each op's fastest latency over the phase's passes, in ms.
func (ph *phase) bestLats() []float64 {
	best := slices.Clone(ph.lats[:ph.opsPer])
	for p := ph.opsPer; p < len(ph.lats); p += ph.opsPer {
		for i, l := range ph.lats[p : p+ph.opsPer] {
			best[i] = min(best[i], l)
		}
	}
	return best
}

// resetPeakRSS starts a new peak of the process's resident set size, so
// that each pass reads its own peak: the process-wide peak is set by
// whichever pass the collector let grow furthest. Where the kernel does not
// allow the reset, peaks read as the process's peak so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB is the process's peak resident set size since the last reset.
func peakRSSMiB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 64); err == nil {
					return kib / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// guestCalls are the guest-API calls the benchmark records as spans.
var guestCalls = []string{"mmap", "touch_range", "touch", "munmap", "mprotect", "fork", "exec", "exit", "dirty_collect"}

// simPackages are the simulator's packages (internal/<pkg>) the workloads
// run, each reported as a share of host CPU samples.
var simPackages = []string{
	"arch", "backend", "check", "container", "core", "cost", "guest", "hv",
	"insn", "interrupt", "mem", "metrics", "pagetable", "tlb", "trace",
	"vclock", "virtio", "vmx",
}

// perLayer computes the per-layer metrics of a run's traced phase. Counts
// are per op (or per pass, where the name says calls), host times come from
// the spans the benchmark recorded around each call into a layer, and host
// shares from the phase's CPU profile.
func perLayer(o *outcome) (map[string]float64, error) {
	ph := o.traced
	m := map[string]float64{}
	passes := float64(len(ph.walls))
	per := func(v, n float64) float64 {
		if n == 0 {
			return 0
		}
		return v / n
	}

	m["trace_overhead_pct"] = 100 * (median(ph.walls)/median(o.untraced.walls) - 1)

	tot := ph.tr.totals()
	get := func(name string) spanTotals {
		if t := tot[name]; t != nil {
			return *t
		}
		return spanTotals{}
	}
	for _, g := range guestCalls {
		t := get("guest." + g)
		m["guest."+g+".calls"] = per(float64(t.calls), passes)
		m["guest."+g+".host_ns_per_page"] = per(float64(t.ns), float64(t.pages))
		m["guest."+g+".vns_per_call"] = per(float64(t.vns), float64(t.calls))
	}
	t := get("backend.new_system")
	m["backend.new_system_us"] = per(float64(t.ns)/1e3, float64(t.calls))
	t = get("backend.new_guest")
	m["backend.new_guest_us"] = per(float64(t.ns)/1e3, float64(t.calls))
	t = get("check.generate")
	m["check.generate_us"] = per(float64(t.ns)/1e3, float64(t.calls))
	t = get("check.run")
	m["check.run_ms"] = per(float64(t.ns)/1e6, float64(t.calls))
	// Host time simulated vCPUs ran while the benchmark waited for them,
	// outside every recorded guest call: engine gating and parking, and the
	// process start, exit and container boot work no span covers.
	m["vclock.wait_s"] = per(float64(get("vclock.wait").self+get("container.deploy_fleet").self)/1e9, passes)

	a := ph.acc
	ops := float64(a.ops)
	var events int64
	for i, name := range simNames {
		m["sim."+name] = per(float64(a.sim[i]), ops)
		events += a.sim[i]
	}
	var hostNS float64
	for _, l := range ph.lats {
		hostNS += l * 1e6
	}
	m["sim.host_ns_per_event"] = per(hostNS, float64(events))
	m["sim.virtual_ns"] = per(float64(a.virtNS), ops)
	m["pagetable.gpt.walks"] = per(float64(a.gpt.Walks), ops)
	m["pagetable.gpt.maps"] = per(float64(a.gpt.Maps), ops)
	m["pagetable.gpt.unmaps"] = per(float64(a.gpt.Unmaps), ops)
	m["pagetable.gpt.protects"] = per(float64(a.gpt.Protects), ops)
	m["pagetable.gpt.pte_writes"] = per(float64(a.gpt.PTEWrites), ops)
	m["pagetable.gpt.tables"] = per(float64(a.gpt.Tables), ops)
	m["mem.gpa.allocs"] = per(float64(a.gpa[0]), ops)
	m["mem.gpa.frees"] = per(float64(a.gpa[1]), ops)
	m["mem.gpa.leaked"] = float64(a.leaked)
	m["vclock.l0_mmu.acquisitions"] = per(float64(a.l0.Acquisitions), ops)
	m["vclock.l0_mmu.contended_ratio"] = per(float64(a.l0.Contended), float64(a.l0.Acquisitions))
	m["vclock.l0_mmu.wait_vns"] = per(float64(a.l0.WaitTime), ops)
	m["vclock.solo_share"] = per(float64(a.soloOps), ops)
	m["trace.events"] = per(float64(a.traceEvs), ops)
	m["trace.dropped"] = per(float64(a.traceDrp), ops)

	shares, _, err := pkgShares(ph.prof)
	if err != nil {
		return nil, err
	}
	for _, pkg := range append(simPackages, otherPkg) {
		m["host."+pkg+".self_pct"] = shares[pkg]
	}
	m["host.ref_kernel_ms"] = 1e3 * median(o.ref.times)
	m["go.gc_cycles"] = per(float64(ph.gcs), passes)
	m["go.gc_pause_ms"] = per(float64(ph.pauseNS)/1e6, passes)
	return m, nil
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line: exactly the metrics specs declares, with
// their declared units.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newReport(o *outcome, specs []metricSpec, values map[string]float64) (*report, error) {
	r := &report{
		Correct:   o.failed() == 0,
		Attempted: o.attempted(),
		Failed:    o.failed(),
		Metrics:   map[string]metricValue{},
	}
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared but not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", s.Name, v)
		}
		r.Metrics[s.Name] = metricValue{v, s.Unit}
	}
	if len(values) != len(specs) {
		var extra []string
		for name := range values {
			if _, ok := r.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		return nil, fmt.Errorf("metrics measured but not declared in BENCHMARK.json: %s", strings.Join(extra, ", "))
	}
	return r, nil
}
