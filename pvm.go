// Package pvm is a faithful, executable reproduction of "PVM: Efficient
// Shadow Paging for Deploying Secure Containers in Cloud-native
// Environments" (SOSP'23) as a deterministic full-system simulator.
//
// The library models the complete x86 virtualization stack — radix page
// tables, a tagged TLB, VMX/VMCS with shadowing, EPT, shadow paging — and
// implements the paper's contribution (the PVM guest hypervisor: switcher,
// direct switch, PVM-on-EPT shadow paging with prefault, PCID mapping, and
// fine-grained locking) next to every baseline the paper measures
// (kvm-ept/kvm-spt on bare metal, EPT-on-EPT and SPT-on-EPT nested). Costs
// are virtual nanoseconds calibrated from the paper's own measurements;
// world-switch counts fall out of executing the real fault choreography.
//
// # Quick start
//
//	sys := pvm.NewSystem(pvm.PVMNested, pvm.DefaultOptions())
//	g, _ := sys.NewGuest("demo")
//	g.Run(0, 64, func(p *pvm.Process) {
//	    base := p.Mmap(256)
//	    p.TouchRange(base, 256, true) // full PVM-on-EPT fault path
//	})
//	sys.Engine().Wait()
//	fmt.Println(sys.Counters().Snapshot())
//
// To regenerate a paper table or figure:
//
//	pvm.RunExperiment("fig10", pvm.ScaleDefault, os.Stdout)
//
// or use the pvmbench command.
package pvm

import (
	"fmt"
	"io"

	"repro/internal/backend"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/experiments"
	"repro/internal/guest"
	"repro/internal/metrics"
	"repro/internal/vclock"
)

// Config identifies one of the paper's deployment scenarios.
type Config = backend.Config

// The five evaluation configurations (§4) plus the SPT-on-EPT baseline
// (§2.2). PVMNested is the paper's contribution: PVM as a guest hypervisor
// inside an ordinary cloud VM.
const (
	KVMEPTBareMetal = backend.KVMEPTBM
	KVMSPTBareMetal = backend.KVMSPTBM
	PVMBareMetal    = backend.PVMBM
	KVMEPTNested    = backend.KVMEPTNST
	SPTOnEPTNested  = backend.SPTEPTNST
	PVMNested       = backend.PVMNST
)

// Configs lists every configuration in paper order.
func Configs() []Config { return backend.Configs() }

// Options tune a System; see DefaultOptions.
type Options = backend.Options

// DefaultOptions returns the paper's defaults: KPTI on, every PVM
// optimization (direct switch, prefault, PCID mapping, fine-grained locks)
// enabled, warm L1 instance.
func DefaultOptions() Options { return backend.DefaultOptions() }

// Params is the calibrated virtual-time cost model.
type Params = cost.Params

// DefaultParams returns the paper-calibrated unit costs.
func DefaultParams() Params { return cost.Default() }

// System is one simulated physical machine running a configuration.
type System = backend.System

// Guest is one secure container's VM.
type Guest = backend.Guest

// Process is a guest process bound to a vCPU; its methods (Touch, Mmap,
// Fork, Syscall, PrivOp, Halt, BlockIO, …) drive the virtualization stack.
type Process = guest.Process

// Kernel is the paravirtualized guest kernel inside each Guest.
type Kernel = guest.Kernel

// SetLifecycleBypass disables (true) or restores (false) the structural
// process-lifecycle fast lane (fork page-table cloning, exec/exit bulk
// teardown), routing those paths through the per-leaf reference
// implementations instead. The lanes are observationally identical; the
// toggle exists for the equivalence grids and the PerLeaf benchmarks, and
// must only change while no simulation is running.
func SetLifecycleBypass(on bool) { guest.SetLifecycleBypass(on) }

// CPU is a simulated vCPU with a deterministic virtual clock.
type CPU = vclock.CPU

// Counters aggregates virtualization events (world switches by kind, L0
// exits, faults, hypercalls, TLB flushes, …).
type Counters = metrics.Counters

// Snapshot is an immutable copy of Counters.
type Snapshot = metrics.Snapshot

// NewSystem builds a machine of the given configuration with
// paper-calibrated costs.
func NewSystem(cfg Config, opt Options) *System { return backend.NewSystem(cfg, opt) }

// NewSystemWithParams builds a machine with explicit cost parameters.
func NewSystemWithParams(cfg Config, opt Options, prm Params) *System {
	return backend.NewSystemWithParams(cfg, opt, prm)
}

// Runtime is the RunD-style secure-container runtime.
type Runtime = container.Runtime

// Container is one deployed secure container.
type Container = container.Container

// NewRuntime creates a container runtime on sys.
func NewRuntime(sys *System) *Runtime { return container.NewRuntime(sys) }

// Surface quantifies an attack surface (§5).
type Surface = core.Surface

// AttackSurfaces returns the paper's §5 comparison: PVM secure containers
// expose ~22 hypercalls behind two defense layers versus 250+ syscalls and
// a single layer for traditional containers.
func AttackSurfaces() (pvmSecure, traditional Surface) {
	return core.PVMSecureContainerSurface(), core.TraditionalContainerSurface()
}

// Scale names an experiment workload scale.
type Scale string

// Experiment scales: quick (tests), default (seconds per experiment), full
// (closer to the paper's working-set sizes).
const (
	ScaleQuick   Scale = "quick"
	ScaleDefault Scale = "default"
	ScaleFull    Scale = "full"
)

func (s Scale) resolve() (experiments.Scale, error) {
	switch s {
	case ScaleQuick:
		return experiments.QuickScale(), nil
	case ScaleDefault, "":
		return experiments.DefaultScale(), nil
	case ScaleFull:
		return experiments.FullScale(), nil
	}
	return experiments.Scale{}, fmt.Errorf("pvm: unknown scale %q", s)
}

// RunExperiment regenerates one paper table/figure (see ListExperiments)
// at the given scale, writing the result to w. Deterministic per scale.
func RunExperiment(id string, scale Scale, w io.Writer) error {
	sc, err := scale.resolve()
	if err != nil {
		return err
	}
	return experiments.Run(id, sc, w)
}

// RunAllExperiments regenerates every table and figure.
func RunAllExperiments(scale Scale, w io.Writer) error {
	sc, err := scale.resolve()
	if err != nil {
		return err
	}
	return experiments.RunAll(sc, w)
}

// ListExperiments returns the available experiment ids with titles.
func ListExperiments() []string {
	var out []string
	for _, e := range experiments.List() {
		out = append(out, fmt.Sprintf("%-12s %s", e.ID, e.Title))
	}
	return out
}
