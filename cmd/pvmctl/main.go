// Command pvmctl is an inspection tool for the PVM simulator: it boots a
// deployment configuration, launches secure containers with a chosen
// workload, and reports the virtualization-event profile (world switches,
// L0 exits, faults, hypercalls) alongside virtual run time — the quantities
// the paper's analysis is built on.
//
// Usage:
//
//	pvmctl run -config pvm-nst -containers 4 -procs 2 -workload membench
//	pvmctl compare -workload membench -procs 8
//	pvmctl surface
//	pvmctl configs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/backend"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/metrics"
	"repro/internal/workloads"
)

var configNames = map[string]backend.Config{
	"kvm-ept-bm":  backend.KVMEPTBM,
	"kvm-spt-bm":  backend.KVMSPTBM,
	"pvm-bm":      backend.PVMBM,
	"kvm-ept-nst": backend.KVMEPTNST,
	"spt-ept-nst": backend.SPTEPTNST,
	"pvm-nst":     backend.PVMNST,
}

type workloadFn func(p *guest.Process)

func workloadByName(name string, rounds int) (workloadFn, error) {
	switch name {
	case "membench":
		return func(p *guest.Process) {
			workloads.MembenchCycle(p, rounds*workloads.PagesPerMiB)
		}, nil
	case "membench-cumulative":
		return func(p *guest.Process) {
			workloads.MembenchCumulative(p, rounds*workloads.PagesPerMiB)
		}, nil
	case "kbuild":
		return func(p *guest.Process) { workloads.Kbuild(p, rounds) }, nil
	case "blogbench":
		return func(p *guest.Process) { workloads.Blogbench(p, rounds*4) }, nil
	case "specjbb":
		return func(p *guest.Process) { workloads.SPECjbb(p, rounds*4) }, nil
	case "fluidanimate":
		return func(p *guest.Process) { workloads.Fluidanimate(p, rounds*4) }, nil
	case "getpid":
		return func(p *guest.Process) {
			for i := 0; i < rounds*1000; i++ {
				p.Getpid()
			}
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (membench, membench-cumulative, kbuild, blogbench, specjbb, fluidanimate, getpid)", name)
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "surface":
		err = cmdSurface()
	case "configs":
		err = cmdConfigs()
	case "trace":
		err = cmdTrace(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pvmctl: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `pvmctl — inspect the PVM simulator
commands:
  run      boot one configuration, run containers, report event profile
  compare  run the same workload under every configuration
  trace    record and print the event-by-event choreography of a tiny run
  surface  show the §5 attack-surface comparison
  configs  list deployment configurations`)
}

func cmdConfigs() error {
	fmt.Println("configurations:")
	names := make([]string, 0, len(configNames))
	for n := range configNames {
		names = append(names, n)
	}
	for _, cfg := range backend.Configs() {
		for _, n := range names {
			if configNames[n] == cfg {
				fmt.Printf("  %-12s %s\n", n, cfg)
			}
		}
	}
	return nil
}

func cmdSurface() error {
	secure := core.PVMSecureContainerSurface()
	trad := core.TraditionalContainerSurface()
	fmt.Println("attack surface (paper §5):")
	fmt.Printf("  %s\n  %s\n", secure, trad)
	if secure.Narrower(trad) {
		fmt.Printf("  → PVM narrows the host-facing interface by %.0fx and adds a defense layer\n",
			float64(trad.Interfaces)/float64(secure.Interfaces))
	}
	return nil
}

// runReport is the machine-readable form of a run (pvmctl run -json).
type runReport struct {
	Config     string            `json:"config"`
	Containers int               `json:"containers"`
	Procs      int               `json:"procs"`
	Workload   string            `json:"workload"`
	MakespanNS int64             `json:"makespan_ns"`
	Gates      int64             `json:"gates"`
	Failures   int               `json:"failures"`
	Events     metrics.Snapshot  `json:"events"`
	PerCont    []containerReport `json:"per_container"`
}

type containerReport struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	StartupNS  int64  `json:"startup_ns"`
	WorkloadNS int64  `json:"workload_ns"`
}

// runOnce boots a system and runs the workload; returns virtual makespan ns.
func runOnce(cfg backend.Config, containers, procs, rounds int, wname string, report bool) (int64, error) {
	_, ms, err := runDetailed(cfg, containers, procs, rounds, wname, report)
	return ms, err
}

// runDetailed is runOnce plus the structured report.
func runDetailed(cfg backend.Config, containers, procs, rounds int, wname string, report bool) (*runReport, int64, error) {
	wl, err := workloadByName(wname, rounds)
	if err != nil {
		return nil, 0, err
	}
	opt := backend.DefaultOptions()
	opt.Cores = 104
	sys := backend.NewSystem(cfg, opt)
	rt := container.NewRuntime(sys)
	// Admit every vCPU before any runs (see container.DeployFleet): the
	// schedule must not depend on how far an early vCPU's goroutine gets
	// while later ones are still being launched.
	release := sys.Eng.Hold()
	for i := 0; i < containers; i++ {
		c, err := rt.Deploy(fmt.Sprintf("c%02d", i))
		if err != nil {
			return nil, 0, err
		}
		c.VCPUs = procs
		for q := 0; q < procs; q++ {
			if q == 0 {
				c.Start(0, 64, wl)
			} else {
				c.Guest.Run(0, 64, wl)
			}
		}
	}
	release()
	sys.Eng.Wait()
	makespan := sys.Eng.Makespan()
	rep := &runReport{
		Config:     cfg.String(),
		Containers: containers,
		Procs:      procs,
		Workload:   wname,
		MakespanNS: makespan,
		Gates:      sys.Eng.Gates(),
		Failures:   rt.Failures(),
		Events:     sys.MetricsSnapshot(),
	}
	for _, c := range rt.Containers() {
		rep.PerCont = append(rep.PerCont, containerReport{
			ID: c.ID, State: c.State().String(),
			StartupNS: c.StartupLatency(), WorkloadNS: c.WorkloadTime(),
		})
	}
	if report {
		fmt.Printf("config:     %s\n", cfg)
		fmt.Printf("containers: %d × %d proc(s), workload %s\n", containers, procs, wname)
		fmt.Printf("virtual time: %.3f ms\n", float64(makespan)/1e6)
		fmt.Printf("gates:      %d gated engine operations (global ordering paid)\n", sys.Eng.Gates())
		if fails := rt.Failures(); fails > 0 {
			fmt.Printf("FAILED container starts: %d (runtime deadline exceeded)\n", fails)
		}
		fmt.Printf("events:     %s\n", sys.MetricsSnapshot())
		for _, c := range rt.Containers() {
			fmt.Printf("  %s: state=%s startup=%.2fms workload=%.3fms\n",
				c.ID, c.State(), float64(c.StartupLatency())/1e6, float64(c.WorkloadTime())/1e6)
		}
	}
	return rep, makespan, nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	cfgName := fs.String("config", "pvm-nst", "configuration ("+strings.Join(keys(), ", ")+")")
	containers := fs.Int("containers", 1, "secure containers to deploy")
	procs := fs.Int("procs", 1, "workload processes per container")
	rounds := fs.Int("rounds", 4, "workload size (MiB for membench, rounds otherwise)")
	wname := fs.String("workload", "membench", "workload name")
	asJSON := fs.Bool("json", false, "emit a machine-readable JSON report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, ok := configNames[*cfgName]
	if !ok {
		return fmt.Errorf("unknown config %q", *cfgName)
	}
	if *asJSON {
		rep, _, err := runDetailed(cfg, *containers, *procs, *rounds, *wname, false)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	_, err := runOnce(cfg, *containers, *procs, *rounds, *wname, true)
	return err
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	containers := fs.Int("containers", 1, "secure containers")
	procs := fs.Int("procs", 4, "processes per container")
	rounds := fs.Int("rounds", 4, "workload size")
	wname := fs.String("workload", "membench", "workload name")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Printf("workload %s, %d container(s) × %d proc(s):\n", *wname, *containers, *procs)
	var base int64
	for _, cfg := range backend.Configs() {
		ms, err := runOnce(cfg, *containers, *procs, *rounds, *wname, false)
		if err != nil {
			return err
		}
		if base == 0 {
			base = ms
		}
		fmt.Printf("  %-18s %10.3f ms   (%.2fx of %s)\n",
			cfg.String(), float64(ms)/1e6, float64(ms)/float64(base), backend.KVMEPTBM)
	}
	return nil
}

// cmdTrace runs a tiny workload with tracing on and prints the event-level
// choreography — e.g. the Figure 9 sequence of one PVM page fault.
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	cfgName := fs.String("config", "pvm-nst", "configuration")
	pages := fs.Int("pages", 2, "pages to fault in")
	limit := fs.Int("limit", 80, "max events to print (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, ok := configNames[*cfgName]
	if !ok {
		return fmt.Errorf("unknown config %q", *cfgName)
	}
	opt := backend.DefaultOptions()
	opt.TraceEvents = 4096
	sys := backend.NewSystem(cfg, opt)
	g, err := sys.NewGuest("trace")
	if err != nil {
		return err
	}
	n := *pages
	g.Run(0, 0, func(p *guest.Process) {
		base := p.Mmap(n)
		p.TouchRange(base, n, true)
		p.Getpid()
		if err := p.Munmap(base, n); err != nil {
			panic(err)
		}
	})
	sys.Eng.Wait()
	fmt.Printf("event choreography: %s, %d fresh page fault(s) + get_pid + munmap\n\n", cfg, n)
	fmt.Print(sys.Tracer.Format(*limit))
	fmt.Printf("\ntotals: %s\n", sys.MetricsSnapshot())
	if d := sys.Tracer.Dropped(); d > 0 {
		fmt.Printf("trace ring overflowed: %d event(s) dropped; raise -limit or TraceEvents to widen the window\n", d)
	}
	return nil
}

func keys() []string {
	out := make([]string, 0, len(configNames))
	for k := range configNames {
		out = append(out, k)
	}
	return out
}
