// Command pvmbench regenerates the tables and figures of the PVM paper
// (SOSP'23) on the simulator.
//
// Usage:
//
//	pvmbench -list
//	pvmbench -exp fig4 [-scale default|quick|full]
//	pvmbench -exp all [-parallel N]
//	pvmbench -exp all -cpuprofile cpu.pprof -memprofile mem.pprof
//	pvmbench -precopy [-precopy-rate N] [-precopy-threshold N] [-precopy-rounds N]
//
// -exp all runs the paper's core evaluation; extra experiments (the
// pre-copy migration study) run only by explicit id or via -precopy, which
// is shorthand for -exp precopy plus its tuning flags.
//
// Every run is deterministic for a given scale: -parallel only fans
// independent experiment cells across host workers and never changes the
// output bytes.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		exp        = flag.String("exp", "", "experiment id (see -list), or 'all'")
		scale      = flag.String("scale", "default", "workload scale: quick, default, or full")
		list       = flag.Bool("list", false, "list available experiments")
		parallel   = flag.Int("parallel", runtime.NumCPU(), "host worker goroutines for independent experiment cells (<=1 = serial)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to `file`")
		memprofile = flag.String("memprofile", "", "write an allocation profile taken after the run to `file`")

		precopy     = flag.Bool("precopy", false, "run the pre-copy migration experiment (shorthand for -exp precopy)")
		precopyRate = flag.Int("precopy-rate", 0, "pre-copy: mutator dirty rate in pages per virtual ms (0 = scale default)")
		precopyThr  = flag.Int("precopy-threshold", 0, "pre-copy: stop-and-copy threshold in pages (0 = scale default)")
		precopyRnds = flag.Int("precopy-rounds", 0, "pre-copy: round budget after the initial full copy (0 = scale default)")
	)
	flag.Parse()

	if *precopy {
		*exp = "precopy"
	}
	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, e := range experiments.List() {
			extra := ""
			if e.Extra {
				extra = " (extra: not part of -exp all)"
			}
			fmt.Printf("  %-12s %s%s\n", e.ID, e.Title, extra)
		}
		fmt.Println("  all          run the core evaluation")
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	var sc experiments.Scale
	switch *scale {
	case "quick":
		sc = experiments.QuickScale()
	case "default":
		sc = experiments.DefaultScale()
	case "full":
		sc = experiments.FullScale()
	default:
		fmt.Fprintf(os.Stderr, "pvmbench: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	sc.Parallel = *parallel
	if *precopyRate > 0 {
		sc.PrecopyRatePages = *precopyRate
	}
	if *precopyThr > 0 {
		sc.PrecopyThreshold = *precopyThr
	}
	if *precopyRnds > 0 {
		sc.PrecopyRounds = *precopyRnds
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pvmbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "pvmbench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	start := time.Now()
	var err error
	if *exp == "all" {
		err = experiments.RunAll(sc, os.Stdout)
	} else {
		err = experiments.Run(*exp, sc, os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pvmbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\n(%s wall-clock, %d workers)\n", time.Since(start).Round(time.Millisecond), *parallel)

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pvmbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "pvmbench: %v\n", err)
			os.Exit(1)
		}
	}
}
