// Package container implements the secure-container runtime the paper
// deploys on (RunD-style): each container is a lightweight VM (a
// backend.Guest) booted with a minimal rootfs, into which workload processes
// are launched. The runtime tracks startup latency against a connection
// deadline — at extreme densities the hardware-assisted nested
// configuration's startup exceeds it, reproducing the Figure 12 observation
// that kvm-ept (NST) "crashed due to a failure to connect to the RunD
// container runtime".
package container

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/guest"
	"repro/internal/vclock"
)

// Startup parameters of one secure container (RunD-style lightweight VM).
const (
	// RootfsPages is the page footprint touched while booting the
	// sandbox (guest kernel + agent + container rootfs overlay).
	RootfsPages = 512
	// RootfsBlocks is the block I/O performed during boot.
	RootfsBlocks = 64
	// AgentSyscalls is the agent's setup syscall count.
	AgentSyscalls = 120
)

// DefaultStartupDeadline is the runtime's sandbox-connection timeout
// (RunD-class serverless cold starts are expected within ~100 ms; the
// runtime gives up well before a second). Startups slower than this in
// virtual time count as failed — at extreme densities the hardware-assisted
// nested configuration's boots, serialized on the L0 mmu_lock, blow through
// it (Figure 12's crash).
const DefaultStartupDeadline = 120 * time.Millisecond

// State of a container.
type State uint8

const (
	Created State = iota
	Running
	Stopped
	Failed
)

func (s State) String() string {
	switch s {
	case Created:
		return "created"
	case Running:
		return "running"
	case Stopped:
		return "stopped"
	default:
		return "failed"
	}
}

// Container is one secure container: a workload sandboxed in its own
// lightweight VM.
type Container struct {
	ID    string
	Guest *backend.Guest

	// VCPUs is the sandbox's vCPU count, 1 as deployed: the runtime runs
	// every process of a single-vCPU sandbox on the vCPU Start creates, so
	// Start binds the guest to it (backend.Guest.Bind). Set it before Start
	// when more processes will run on vCPUs of their own (Guest.Run).
	VCPUs int

	// deadline is the sandbox-connection timeout (virtual ns), inherited
	// from the runtime at deployment.
	deadline int64

	mu           sync.Mutex
	state        State
	startupVirt  int64 // virtual ns spent booting the sandbox
	workloadVirt int64 // virtual ns of the workload itself
}

// State returns the container's lifecycle state.
func (c *Container) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// StartupLatency returns the sandbox boot time in virtual ns.
func (c *Container) StartupLatency() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.startupVirt
}

// WorkloadTime returns the workload's virtual duration.
func (c *Container) WorkloadTime() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.workloadVirt
}

// Runtime manages secure containers on one System.
type Runtime struct {
	Sys *backend.System

	// StartupDeadline bounds sandbox boot (virtual time); exceeded →
	// the container is marked Failed and its workload is not run.
	StartupDeadline time.Duration

	mu         sync.Mutex
	containers []*Container
}

// NewRuntime creates a runtime on sys.
func NewRuntime(sys *backend.System) *Runtime {
	return &Runtime{Sys: sys, StartupDeadline: DefaultStartupDeadline}
}

// Containers returns all containers deployed so far.
func (r *Runtime) Containers() []*Container {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Container(nil), r.containers...)
}

// Failures counts containers in the Failed state.
func (r *Runtime) Failures() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, c := range r.containers {
		if c.state == Failed {
			n++
		}
	}
	return n
}

// Deploy creates (but does not start) a container.
func (r *Runtime) Deploy(id string) (*Container, error) {
	g, err := r.Sys.NewGuest(id)
	if err != nil {
		return nil, fmt.Errorf("container: deploying %s: %w", id, err)
	}
	c := &Container{ID: id, Guest: g, VCPUs: 1, state: Created, deadline: int64(r.StartupDeadline)}
	r.mu.Lock()
	r.containers = append(r.containers, c)
	r.mu.Unlock()
	return c, nil
}

// Start boots the sandbox and runs the workload, all on a fresh vCPU
// starting at virtual time startAt. imagePages is the workload's resident
// image. The returned CPU finishes when the workload (or a failed startup)
// completes. A single-vCPU sandbox's guest is bound to that vCPU first.
func (c *Container) Start(startAt int64, imagePages int, workload func(p *guest.Process)) *vclock.CPU {
	rt := c.Guest.Sys
	deadline := c.deadline
	if deadline <= 0 {
		deadline = int64(DefaultStartupDeadline)
	}
	return rt.Eng.Go(startAt, func(cpu *vclock.CPU) {
		if c.VCPUs == 1 {
			if err := c.Guest.Bind(cpu); err != nil {
				panic(fmt.Sprintf("container %s: %v", c.ID, err))
			}
		}
		c.mu.Lock()
		c.state = Running
		c.mu.Unlock()

		bootStart := cpu.Now()
		// Sandbox boot: agent init process with the rootfs footprint.
		initProc, err := c.Guest.Kern.StartProcess(cpu, RootfsPages)
		if err != nil {
			panic(fmt.Sprintf("container %s: boot: %v", c.ID, err))
		}
		initProc.BlockIO(RootfsBlocks, 4096)
		for i := 0; i < AgentSyscalls; i++ {
			initProc.Syscall(1200)
		}
		boot := cpu.Now() - bootStart
		c.mu.Lock()
		c.startupVirt = boot
		c.mu.Unlock()
		if boot > deadline {
			c.mu.Lock()
			c.state = Failed
			c.mu.Unlock()
			if err := initProc.Exit(); err != nil {
				panic(err)
			}
			return
		}

		// Workload process inside the sandbox.
		wStart := cpu.Now()
		p, err := c.Guest.Kern.StartProcess(cpu, imagePages)
		if err != nil {
			panic(fmt.Sprintf("container %s: workload: %v", c.ID, err))
		}
		workload(p)
		if err := p.Exit(); err != nil {
			panic(err)
		}
		if err := initProc.Exit(); err != nil {
			panic(err)
		}
		c.mu.Lock()
		c.workloadVirt = cpu.Now() - wStart
		c.state = Stopped
		c.mu.Unlock()
	})
}

// DeployFleet deploys and starts n containers running the same workload,
// staggering their starts by stagger virtual ns (cold-start bursts are the
// serverless pattern the paper's density experiments model). It returns
// after all containers finish.
func (r *Runtime) DeployFleet(n int, imagePages int, stagger int64, workload func(idx int, p *guest.Process)) ([]*Container, error) {
	cs := make([]*Container, n)
	for i := 0; i < n; i++ {
		c, err := r.Deploy(fmt.Sprintf("c%03d", i))
		if err != nil {
			return nil, err
		}
		cs[i] = c
	}
	// Hold the engine while the burst is admitted: without the barrier the
	// first containers can start executing before the later ones are in the
	// scheduling heap, and the conservative minimum — computed over an
	// incomplete vCPU set — depends on how the Go scheduler interleaves this
	// loop with the fleet (observable at GOMAXPROCS > 1).
	release := r.Sys.Eng.Hold()
	for i, c := range cs {
		idx := i
		c.Start(int64(i)*stagger, 64, func(p *guest.Process) { workload(idx, p) })
	}
	release()
	r.Sys.Eng.Wait()
	return cs, nil
}

// MeanWorkloadTime averages the workload virtual duration over successful
// containers; the boolean reports whether any container succeeded.
func MeanWorkloadTime(cs []*Container) (int64, bool) {
	var sum int64
	n := 0
	for _, c := range cs {
		if c.State() == Stopped {
			sum += c.WorkloadTime()
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / int64(n), true
}
