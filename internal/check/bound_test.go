package check

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/backend"
	"repro/internal/guest"
	"repro/internal/vclock"
)

// boundAblations are the option sets the bound-guest differential runs each
// backend under: the paper defaults plus one ablation each for the lock
// scheme, PCID mapping, huge EPT pages, collaborative sync, VMCS shadowing,
// a cold L1 instance (nested EPT01 violations contend on the shared L0
// mmu_lock, and a recycled L1 frame skips its violation), and an
// oversubscribed machine (Compute dilation reads the runnable count, so it
// sees exactly when each sandbox's vCPU departs).
var boundAblations = []struct {
	name string
	set  func(*backend.Options)
}{
	{"defaults", func(*backend.Options) {}},
	{"coarse-locks", func(o *backend.Options) { o.FineLock = false }},
	{"pcid-off", func(o *backend.Options) { o.PCIDMap = false }},
	{"huge-ept", func(o *backend.Options) { o.HugePagesEPT = true }},
	{"collab-sync", func(o *backend.Options) { o.CollaborativeSync = true }},
	{"vmcs-shadow-off", func(o *backend.Options) { o.VMCSShadowing = false }},
	{"cold-l1", func(o *backend.Options) { o.Warm = false }},
	{"cores-2", func(o *backend.Options) { o.Cores = 2 }},
}

// sandboxLife is one container-style sandbox on its own vCPU, shaped like
// container.Start: an init process boots (rootfs touch, block I/O, agent
// syscalls), then a workload process exercises every platform operation —
// faults, dirty logging, fork with COW breaks, mprotect, partial munmap,
// privileged ops, interrupts, network I/O, exec — and both exit. bind
// decides whether the guest is bound to the vCPU first; nothing else
// differs between the two runs.
func sandboxLife(g *backend.Guest, idx int, bind bool) func(*vclock.CPU) {
	return func(cpu *vclock.CPU) {
		if bind {
			must(g.Bind(cpu))
		}
		initProc, err := g.Kern.StartProcess(cpu, 24)
		must(err)
		initProc.BlockIO(8, 4096)
		for i := 0; i < 4; i++ {
			initProc.Syscall(1200)
		}

		p, err := g.Kern.StartProcess(cpu, 8)
		must(err)
		heap := p.Mmap(48)
		p.TouchRange(heap, 48, true)
		p.StartDirtyLog()
		p.TouchRange(heap+4*arch.PageSize, 8, true)
		p.Compute(int64(20_000 + 3_000*idx))
		p.CollectDirty()
		p.StopDirtyLog()
		child, err := p.Fork(nil)
		must(err)
		child.TouchRange(heap, 6, true) // COW breaks
		must(child.Exit())
		area := p.Mmap(16)
		p.TouchRange(area, 16, true)
		must(p.Mprotect(area, 16, false))
		p.TouchRange(area, 16, false)
		must(p.Mprotect(area, 16, true))
		p.Touch(area+3*arch.PageSize, true)
		for _, op := range []arch.PrivOp{
			arch.OpHypercall, arch.OpException, arch.OpMSRAccess,
			arch.OpCPUID, arch.OpPIO, arch.OpIret, arch.OpWriteCR3,
		} {
			p.PrivOp(op)
		}
		p.Interrupt(40)
		p.NetIO(2, 1500)
		must(p.Munmap(heap+8*arch.PageSize, 24))
		p.Compute(15_000)
		must(p.Exec(6))
		p.TouchRange(guest.ImageBase, 6, false)
		must(p.Exit())
		must(initProc.Exit())
	}
}

// must panics on err inside a sandbox's vCPU; the engine reports the panic
// through Engine.Err.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// runSandboxFleet deploys size sandboxes, each running life (sandboxLife
// or another body of the same shape), on a fresh System, starts them
// staggered under Engine.Hold as container.DeployFleet does, and captures
// the outcome together with every guest VM's mmu_lock statistics
// (per-guest VMs on bare metal, the shared L1 instance when nested).
func runSandboxFleet(t *testing.T, cfg backend.Config, opt backend.Options, size int, life func(g *backend.Guest, idx int, bind bool) func(*vclock.CPU), bind bool) (Observation, []vclock.LockStats) {
	t.Helper()
	sys := backend.NewSystem(cfg, opt)
	gs := make([]*backend.Guest, size)
	for i := range gs {
		g, err := sys.NewGuest(fmt.Sprintf("c%03d", i))
		if err != nil {
			t.Fatal(err)
		}
		gs[i] = g
	}
	release := sys.Eng.Hold()
	for i, g := range gs {
		sys.Eng.Go(int64(i)*10_000, life(g, i, bind))
	}
	release()
	sys.Eng.Wait()
	if err := sys.Eng.Err(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Eng.Audit(); err != nil {
		t.Fatal(err)
	}
	var locks []vclock.LockStats
	for _, g := range gs {
		locks = append(locks, g.VM().MMULock.Stats())
	}
	return Capture(sys), locks
}

// TestBoundFleetDifferential is the sandbox-binding theorem: binding each
// sandbox guest to its vCPU only removes global ordering the guest's private
// state never needed, so every observable — clocks, makespan, metrics, the
// trace digest, lock statistics — is bit-identical to the same fleet run
// unbound, across all eight backend choices, fleet sizes 1, 4 and 16, and
// the ablations above. The unbound run simply does not call Bind. As an
// anti-vacuity guard, the bound run must pay strictly fewer gates.
func TestBoundFleetDifferential(t *testing.T) {
	sizes := []int{1, 4, 16}
	if testing.Short() {
		sizes = []int{1, 4}
	}
	for _, bc := range backendChoices {
		for _, ab := range boundAblations {
			for _, size := range sizes {
				name := fmt.Sprintf("%s/%s/%d", bc.name, ab.name, size)
				t.Run(name, func(t *testing.T) {
					opt := backend.DefaultOptions()
					opt.DirectPaging = bc.direct
					opt.TraceEvents = 1 << 14
					ab.set(&opt)
					free, freeLocks := runSandboxFleet(t, bc.cfg, opt, size, sandboxLife, false)
					bound, boundLocks := runSandboxFleet(t, bc.cfg, opt, size, sandboxLife, true)
					if d := Diff(free, bound); d != "" {
						t.Fatalf("binding changed observables: %s", d)
					}
					if !reflect.DeepEqual(freeLocks, boundLocks) {
						t.Fatalf("binding changed mmu_lock statistics:\n  %+v\nvs\n  %+v", freeLocks, boundLocks)
					}
					if bound.Gates >= free.Gates {
						t.Fatalf("bound fleet paid %d gates, unbound %d: binding elided nothing", bound.Gates, free.Gates)
					}
				})
			}
		}
	}
}

// TestBoundBareMetalGatesIgnorePages pins where a bound sandbox still pays
// global ordering per page. Each sandbox of a bound 4-sandbox fleet maps,
// touches and unmaps a heap of the given size. On bare metal every frame a
// page costs (backing, shadow table, EPT01) comes from the sandbox VM's own
// allocator, so the fleet pays the same number of gates at 64 pages as at
// 256. Nested, those frames are the shared L1 instance's and each draw and
// return still gates, so the count grows with the heap: the boundary of
// what binding can elide.
func TestBoundBareMetalGatesIgnorePages(t *testing.T) {
	heapLife := func(pages int) func(*backend.Guest, int, bool) func(*vclock.CPU) {
		return func(g *backend.Guest, _ int, bind bool) func(*vclock.CPU) {
			return func(cpu *vclock.CPU) {
				if bind {
					must(g.Bind(cpu))
				}
				p, err := g.Kern.StartProcess(cpu, 8)
				must(err)
				heap := p.Mmap(pages)
				p.TouchRange(heap, pages, true)
				must(p.Munmap(heap, pages))
				must(p.Exit())
			}
		}
	}
	for _, bc := range backendChoices {
		t.Run(bc.name, func(t *testing.T) {
			opt := backend.DefaultOptions()
			opt.DirectPaging = bc.direct
			gates := func(pages int) int64 {
				o, _ := runSandboxFleet(t, bc.cfg, opt, 4, heapLife(pages), true)
				return o.Gates
			}
			small, large := gates(64), gates(256)
			t.Logf("gates: %d at 64 pages, %d at 256", small, large)
			switch {
			case !bc.cfg.Nested() && small != large:
				t.Fatalf("bound bare-metal fleet paid %d gates at 64 pages but %d at 256: a page still gates", small, large)
			case bc.cfg.Nested() && large <= small:
				t.Fatalf("nested fleet paid %d gates at 64 pages and %d at 256: L1 frames no longer gate per page", small, large)
			}
		})
	}
}
