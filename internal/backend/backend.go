// Package backend assembles the paper's five deployment configurations for
// secure containers (§4: kvm-ept (BM), kvm-spt (BM), pvm (BM),
// kvm-ept (NST), pvm (NST)) plus the SPT-on-EPT nested baseline from §2.2,
// implementing guest.Platform once per configuration.
//
// A System is one physical machine (plus, in nested deployments, the single
// L1 cloud instance all secure containers share). A Guest is one secure
// container's VM: an L2 guest in nested configurations, a first-level VM in
// bare-metal ones. Each Guest composes two strategies:
//
//   - an mmuStrategy owning the memory-virtualization choreography (the
//     per-fault world-switch sequences of Figures 3 and 9), and
//   - a cpuStrategy owning syscalls, privileged operations, HLT,
//     interrupts, and I/O kick/completion paths.
package backend

import (
	"fmt"
	"sync"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/guest"
	"repro/internal/hv"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/pagetable"
	"repro/internal/tlb"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/virtio"
	"repro/internal/vmx"
)

// Config identifies a deployment scenario from the paper's evaluation.
type Config uint8

const (
	// KVMEPTBM: secure containers on a bare-metal instance, hardware
	// VMX + EPT (single-level; the paper's best case).
	KVMEPTBM Config = iota
	// KVMSPTBM: bare-metal with software shadow paging.
	KVMSPTBM
	// PVMBM: PVM loaded as the L0 hypervisor on bare metal.
	PVMBM
	// KVMEPTNST: nested virtualization with hardware support exposed to
	// L1 (EPT-on-EPT, the state of the art the paper argues against).
	KVMEPTNST
	// SPTEPTNST: nested with shadow paging at L1 (SPT-on-EPT, §2.2's
	// worst case; included for Figure 4).
	SPTEPTNST
	// PVMNST: PVM as a guest hypervisor inside an ordinary cloud VM —
	// the paper's contribution.
	PVMNST
	numConfigs
)

var configNames = [numConfigs]string{
	"kvm-ept (BM)", "kvm-spt (BM)", "pvm (BM)",
	"kvm-ept (NST)", "spt-on-ept (NST)", "pvm (NST)",
}

func (c Config) String() string {
	if int(c) < len(configNames) {
		return configNames[c]
	}
	return fmt.Sprintf("config(%d)", uint8(c))
}

// Nested reports whether the configuration is a 2-level deployment.
func (c Config) Nested() bool {
	return c == KVMEPTNST || c == SPTEPTNST || c == PVMNST
}

// Configs lists all configurations in paper order.
func Configs() []Config {
	return []Config{KVMEPTBM, KVMSPTBM, PVMBM, KVMEPTNST, SPTEPTNST, PVMNST}
}

// Options tune a System.
type Options struct {
	// KPTI enables kernel page-table isolation in the guests (the
	// paper's default).
	KPTI bool

	// PVM optimizations (§3.2–3.3); all default on. Disabling them
	// yields the Figure 10 ablation variants.
	DirectSwitch bool // switcher-local syscall path
	Prefault     bool // install SPT leaf during fault completion
	PCIDMap      bool // map L2 address spaces onto host PCIDs 32–63
	FineLock     bool // meta/pt/rmap locks instead of one mmu_lock

	// Experimental features from the paper's §5 (Discussions and Future
	// Work); all default off.

	// SwitcherFaultClassify lets the switcher distinguish guest page
	// faults from shadow faults and inject the former straight into the
	// L2 guest kernel, saving one exit to the PVM hypervisor per fault
	// (2n+4 → 2n+3 world switches).
	SwitcherFaultClassify bool

	// CollaborativeSync removes the write protection on guest page
	// tables: the guest logs its PTE updates in a shared ring and PVM
	// replays the log at the next synchronization point (fault fix or
	// TLB flush), eliminating the 2n per-fault write-protection traps.
	CollaborativeSync bool

	// DirectPaging replaces shadow paging with a Xen-style direct-paging
	// MMU on KVM: the guest's (validated) page table is used directly by
	// the hardware and updates are applied through batched mmu_update
	// hypercalls — no shadow structure, no prefault, constant switches
	// per fault.
	DirectPaging bool

	// VMCSShadowing enables hardware VMCS shadowing for nested
	// configurations (§2.1). Without it, every VMCS12 access by the L1
	// hypervisor while handling an L2 exit traps to L0 — 40–50 exits
	// per world switch. Default on (modern hardware).
	VMCSShadowing bool

	// HugePagesEPT backs guest memory with 2 MiB EPT mappings at the
	// host hypervisor (KVM huge pages): one violation populates a whole
	// 512-frame block. Most visible in the kvm-ept (BM) configuration.
	HugePagesEPT bool

	// TraceEvents, when positive, attaches a trace.Buffer of that
	// capacity to the System, recording switches, faults, syscalls,
	// interrupts, and I/O with virtual timestamps.
	TraceEvents int

	// TLBEntries sizes each vCPU's simulated TLB.
	TLBEntries int

	// Cores bounds simulated hardware parallelism (0 = unlimited).
	Cores int

	// Warm treats the L1 instance as long-running: EPT01 violations are
	// installed silently (§4.1's standing assumption). Only meaningful
	// for nested configurations.
	Warm bool

	// GPAFrames bounds each guest's guest-physical memory (0 =
	// unlimited).
	GPAFrames int64
}

// DefaultOptions returns the paper's defaults: KPTI on, every PVM
// optimization on, warm L1.
func DefaultOptions() Options {
	return Options{
		KPTI:          true,
		DirectSwitch:  true,
		Prefault:      true,
		PCIDMap:       true,
		FineLock:      true,
		VMCSShadowing: true,
		TLBEntries:    1536,
		Warm:          true,
	}
}

// System is one physical machine running one deployment configuration.
type System struct {
	Cfg Config
	Opt Options
	Prm cost.Params
	Eng *vclock.Engine
	Ctr *metrics.Counters

	// Host is the L0 hypervisor/machine.
	Host *hv.Host

	// L1 is the single cloud instance hosting all secure containers in
	// nested configurations (nil on bare metal).
	L1 *hv.VM

	// PCIDs is the PVM PCID-mapping allocator (§3.3.2).
	PCIDs *core.PCIDAllocator

	// Tracer records simulator events when Options.TraceEvents > 0.
	Tracer *trace.Buffer

	guests   []*Guest
	nextVPID arch.VPID
}

// NewSystem creates a system with paper-calibrated cost parameters.
func NewSystem(cfg Config, opt Options) *System {
	return NewSystemWithParams(cfg, opt, cost.Default())
}

// NewSystemWithParams creates a system with explicit cost parameters.
func NewSystemWithParams(cfg Config, opt Options, prm cost.Params) *System {
	if opt.TLBEntries <= 0 {
		opt.TLBEntries = 1536
	}
	eng := vclock.NewEngine()
	if opt.Cores > 0 {
		eng.SetCores(opt.Cores)
	}
	ctr := &metrics.Counters{}
	host := hv.NewHost(eng, prm, ctr)
	s := &System{
		Cfg:      cfg,
		Opt:      opt,
		Prm:      prm,
		Eng:      eng,
		Ctr:      ctr,
		Host:     host,
		PCIDs:    core.NewPCIDAllocator(),
		nextVPID: 1,
	}
	if opt.TraceEvents > 0 {
		s.Tracer = trace.NewBuffer(opt.TraceEvents)
	}
	host.HugeEPT = opt.HugePagesEPT
	if cfg.Nested() {
		host.Warm = opt.Warm
		l1, err := host.NewVM("l1-instance", opt.GPAFrames)
		if err != nil {
			panic(err)
		}
		s.L1 = l1
	}
	return s
}

// Guests returns the secure-container VMs created so far.
func (s *System) Guests() []*Guest { return s.guests }

// MetricsSnapshot is Ctr.Snapshot plus the per-run observability state only
// the System has at hand: the trace ring's dropped-event count, so a report
// reading event totals can tell when the trace window undercounts them. The
// check oracle deliberately snapshots Ctr directly — the drop count depends
// on ring capacity, which equivalence variants are free to differ on.
func (s *System) MetricsSnapshot() metrics.Snapshot {
	snap := s.Ctr.Snapshot()
	if s.Tracer != nil {
		snap.TraceDropped = s.Tracer.Dropped()
	}
	return snap
}

// trace records a typed event when tracing is enabled. The payload is a
// form id plus scalar arguments; formatting is deferred to read-out (Events,
// Filter, Format) so the recording path never calls fmt (see package trace).
func (s *System) trace(c *vclock.CPU, kind trace.Kind, form trace.Form, label string, pid int, a uint64, b int64, str string) {
	if s.Tracer == nil {
		return
	}
	s.Tracer.Add(trace.Event{
		T: c.Now(), CPU: c.ID(), Kind: kind,
		Form: form, Label: label, PID: pid, A: a, B: b, Str: str,
	})
}

// Guest is one secure container's VM, implementing guest.Platform.
type Guest struct {
	Sys  *System
	Name string
	Kern *guest.Kernel

	// vm is the guest's L0-level VM: its own VM on bare metal, the
	// shared L1 instance when nested.
	vm *hv.VM

	// VPID tags this guest's TLB entries.
	VPID arch.VPID

	mmu mmuStrategy
	cpu cpuStrategy

	blk *virtio.Device
	net *virtio.Device

	// vmcs12 is the software VMCS the L1 hypervisor keeps for this L2
	// guest under hardware-assisted nesting (§2.1). When Options.
	// VMCSShadowing is off, every non-root access to it traps to L0.
	vmcs12 *vmx.VMCS

	procMu    sync.Mutex
	liveProcs int

	// owner, once set by Bind, is the one vCPU all of this guest's
	// processes run on. Written before the guest runs anything and read
	// only from owner's goroutine.
	owner *vclock.CPU
}

// Bind dedicates the guest to vCPU c — the sandbox guarantee that every one
// of its processes runs on c — and stops ordering c globally for state no
// other vCPU can reach. The guest kernel refuses processes on any other vCPU
// from now on; c owns the guest's own locks (the PVM shadow lock set, the
// SPT and EPT-on-EPT per-guest mmu_locks, and on bare metal the guest VM's
// mmu_lock, but never the nested L1 instance's); and return-to-guest legs
// become private charges, as do the draws and returns of a bare-metal
// guest's host frames (withFrames). Every touch of System-shared state — the
// L1 instance's frame allocators, EPT01 and mmu_lock, the PID and PCID
// allocators, the live-process count, Compute dilation — keeps its gate at
// the same virtual instant, so virtual time is unchanged (DESIGN.md §4,
// "Sandbox-bound guests").
//
// Call Bind from c's goroutine before the guest runs any process there;
// it fails when a live process already runs on another vCPU.
func (g *Guest) Bind(c *vclock.CPU) error {
	if err := g.Kern.Bind(c); err != nil {
		return fmt.Errorf("backend: binding %s: %w", g.Name, err)
	}
	if g.owner == c {
		return nil
	}
	g.owner = c
	if g.vm != g.Sys.L1 {
		g.vm.Bind(c)
	}
	g.mmu.bind(c)
	return nil
}

// order charges d at an ordering point whose gate orders only this guest's
// own state: elided once the guest is bound (see vclock.CPU.Order).
func (g *Guest) order(c *vclock.CPU, d int64) { c.Order(d, g.owner != nil) }

// machineFrames returns the frame source of the guest's backing frames and
// shadow tables: its own VM's host frames on bare metal, the L1 instance's
// guest-physical frames when nested.
func (g *Guest) machineFrames() *mem.Allocator {
	if g.Sys.Cfg.Nested() {
		return g.Sys.L1.GPA
	}
	return g.vm.Frames
}

// withFrames runs fn, a body that draws or returns machineFrames, under lock
// with hold charged inside. On bare metal the frames are the guest VM's own,
// so on a lock the guest's vCPU owns the body is private (Lock.WithPrivate).
// Nested, they are L1's, shared by every L2 guest, and a recycled L1 frame
// keeps its EPT01 backing, so which frame a guest draws reaches virtual
// time: the body gates (Lock.With).
func (g *Guest) withFrames(lock *vclock.Lock, c *vclock.CPU, hold int64, fn func()) {
	if g.Sys.Cfg.Nested() {
		lock.With(c, hold, fn)
	} else {
		lock.WithPrivate(c, hold, fn)
	}
}

// VMCS12 returns the guest's software VMCS (nil for non-nested-KVM guests).
func (g *Guest) VMCS12() *vmx.VMCS { return g.vmcs12 }

// LiveProcs returns the number of registered (running) processes — the
// guest's active vCPU count, which sizes TLB-shootdown fan-out.
func (g *Guest) LiveProcs() int {
	g.procMu.Lock()
	defer g.procMu.Unlock()
	return g.liveProcs
}

// mmuStrategy is the per-configuration memory-virtualization choreography.
type mmuStrategy interface {
	register(p *guest.Process)
	unregister(p *guest.Process)
	access(p *guest.Process, va arch.VA, write bool)
	accessRange(p *guest.Process, va arch.VA, pages int, write bool)
	releasePage(p *guest.Process, va arch.VA, gpa arch.PFN)
	flushRange(p *guest.Process, pages int)

	// Dirty-page logging lifecycle (see dirtylog.go): arm, harvest one
	// epoch (re-arming), disarm. The Guest wrappers guard the armed
	// state; strategies only run their lane's choreography.
	dirtyStart(p *guest.Process)
	dirtyCollect(p *guest.Process) []arch.VA
	dirtyStop(p *guest.Process)

	// audit checks the strategy's structural invariants for one process
	// (see audit.go). Pure reads only: no costs, no stats, no caches.
	audit(p *guest.Process) error

	// bind hands the strategy's per-guest locks to c (see Guest.Bind).
	bind(c *vclock.CPU)
}

// cpuStrategy is the per-configuration CPU/interrupt/I/O choreography.
type cpuStrategy interface {
	syscall(p *guest.Process, body int64)
	privOp(p *guest.Process, op arch.PrivOp)
	halt(p *guest.Process)
	interrupt(p *guest.Process, vector uint8)
	ioKick(p *guest.Process)
	ioComplete(p *guest.Process)
}

// NewGuest creates a secure container VM named name.
func (s *System) NewGuest(name string) (*Guest, error) {
	g := &Guest{Sys: s, Name: name}
	g.blk = virtio.NewDevice(virtio.Blk, s.Prm, 128)
	g.net = virtio.NewDevice(virtio.Net, s.Prm, 256)
	g.VPID = s.nextVPID
	s.nextVPID++

	switch s.Cfg {
	case KVMEPTBM, KVMSPTBM, PVMBM:
		vm, err := s.Host.NewVM(name, s.Opt.GPAFrames)
		if err != nil {
			return nil, err
		}
		g.vm = vm
	default:
		g.vm = s.L1
	}
	if s.Cfg == KVMEPTNST || s.Cfg == SPTEPTNST {
		// Hardware-assisted nesting: L1 keeps a software VMCS for the
		// L2 guest; L0 shadows it when the hardware supports that.
		g.vmcs12 = vmx.NewVMCS("vmcs12:" + name)
		g.vmcs12.VPID = g.VPID
		g.vmcs12.Shadowed = s.Opt.VMCSShadowing
	}

	// The guest kernel allocates its frames from the guest's own
	// guest-physical space; nested guests get a per-guest L2 GPA space
	// carved (lazily backed) out of the L1 instance.
	var kern *guest.Kernel
	switch s.Cfg {
	case KVMEPTBM, KVMSPTBM, PVMBM:
		kern = guest.NewKernel(g, g.vm.GPA)
	default:
		kern = guest.NewKernel(g, newL2GPASpace(name, s.Opt.GPAFrames))
	}
	g.Kern = kern

	switch s.Cfg {
	case KVMEPTBM:
		g.mmu = newEPTMMU(g)
		g.cpu = newHWCPU(g, false, false)
	case KVMSPTBM:
		g.mmu = newSPTMMU(g, false)
		g.cpu = newHWCPU(g, false, true)
	case PVMBM:
		if s.Opt.DirectPaging {
			g.mmu = newPVMDirectMMU(g, false)
		} else {
			g.mmu = newPVMMMU(g, false)
		}
		g.cpu = newPVMCPU(g, false)
	case KVMEPTNST:
		g.mmu = newEPTNestedMMU(g)
		g.cpu = newHWCPU(g, true, false)
	case SPTEPTNST:
		g.mmu = newSPTMMU(g, true)
		g.cpu = newHWCPU(g, true, true)
	case PVMNST:
		if s.Opt.DirectPaging {
			g.mmu = newPVMDirectMMU(g, true)
		} else {
			g.mmu = newPVMMMU(g, true)
		}
		g.cpu = newPVMCPU(g, true)
	default:
		return nil, fmt.Errorf("backend: unknown config %v", s.Cfg)
	}
	s.guests = append(s.guests, g)
	return g, nil
}

// BlockDevice returns the guest's virtio-blk device.
func (g *Guest) BlockDevice() *virtio.Device { return g.blk }

// NetDevice returns the guest's vhost-net device.
func (g *Guest) NetDevice() *virtio.Device { return g.net }

// VM returns the guest's L0-level VM (shared L1 instance when nested).
func (g *Guest) VM() *hv.VM { return g.vm }

// --- guest.Platform implementation (delegation) ---

// Params returns the system cost parameters.
func (g *Guest) Params() *cost.Params { return &g.Sys.Prm }

// Counters returns the system-wide counters.
func (g *Guest) Counters() *metrics.Counters { return g.Sys.Ctr }

// Engine returns the virtual-time engine.
func (g *Guest) Engine() *vclock.Engine { return g.Sys.Eng }

// KPTI reports whether guest kernels run with page-table isolation.
func (g *Guest) KPTI() bool { return g.Sys.Opt.KPTI }

// RegisterProcess implements guest.Platform.
//
// The live-process count is shared mutable state observed by concurrent
// vCPUs (it sizes TLB-shootdown fan-out), so the mutation gates first:
// its effective virtual instant is then the gate's, identical under fused
// and eager charging, rather than wherever the caller's lazy stretch
// happened to leave the clock.
func (g *Guest) RegisterProcess(p *guest.Process) {
	p.CPU.Sync()
	g.procMu.Lock()
	g.liveProcs++
	g.procMu.Unlock()
	g.mmu.register(p)
}

// UnregisterProcess implements guest.Platform. Gates like RegisterProcess.
// The process's TLB hands its arena on to the next process (tlb.Release);
// the teardown's per-page flushes that follow find it empty.
func (g *Guest) UnregisterProcess(p *guest.Process) {
	p.CPU.Sync()
	g.procMu.Lock()
	g.liveProcs--
	g.procMu.Unlock()
	g.mmu.unregister(p)
	pd(p).tlb.Release()
}

// FlushRange implements guest.Platform.
func (g *Guest) FlushRange(p *guest.Process, pages int) {
	g.Sys.Ctr.TLBFlushes.Add(1)
	g.Sys.trace(p.CPU, trace.KindFlush, trace.FormFlush, g.Name, p.PID, uint64(pages), 0, "")
	g.mmu.flushRange(p, pages)
}

// Access implements guest.Platform.
func (g *Guest) Access(p *guest.Process, va arch.VA, write bool) {
	g.mmu.access(p, va, write)
}

// AccessRange implements guest.Platform: it resolves the pages of
// [va, va+pages·4K) in maximal same-outcome runs — one TLB probe per page
// (batched by LookupRange), one lazy advance per hit run, and the ordinary
// per-page miss choreography at each run boundary. Observationally it is
// identical to pages sequential Access calls.
func (g *Guest) AccessRange(p *guest.Process, va arch.VA, pages int, write bool) {
	if pages <= 0 {
		return
	}
	g.mmu.accessRange(p, va, pages, write)
}

// ReleasePage implements guest.Platform.
func (g *Guest) ReleasePage(p *guest.Process, va arch.VA, gpa arch.PFN) {
	g.mmu.releasePage(p, va, gpa)
}

// SyscallRoundTrip implements guest.Platform.
func (g *Guest) SyscallRoundTrip(p *guest.Process, body int64) {
	g.Sys.Ctr.Syscalls.Add(1)
	g.Sys.trace(p.CPU, trace.KindSyscall, trace.FormSyscall, g.Name, p.PID, uint64(body), 0, "")
	g.cpu.syscall(p, body)
}

// PrivOp implements guest.Platform.
func (g *Guest) PrivOp(p *guest.Process, op arch.PrivOp) {
	g.Sys.trace(p.CPU, trace.KindPrivOp, trace.FormPrivOp, g.Name, p.PID, 0, 0, op.String())
	g.cpu.privOp(p, op)
}

// Halt implements guest.Platform.
func (g *Guest) Halt(p *guest.Process) { g.cpu.halt(p) }

// DeliverInterrupt implements guest.Platform.
func (g *Guest) DeliverInterrupt(p *guest.Process, vector uint8) {
	g.Sys.Ctr.Interrupts.Add(1)
	g.Sys.trace(p.CPU, trace.KindInterrupt, trace.FormInterrupt, g.Name, p.PID, uint64(vector), 0, "")
	g.cpu.interrupt(p, vector)
}

// BlockIO implements guest.Platform.
func (g *Guest) BlockIO(p *guest.Process, n int, bytes int64) {
	g.submitIO(p, g.blk, n, bytes)
}

// NetIO implements guest.Platform.
func (g *Guest) NetIO(p *guest.Process, n int, bytes int64) {
	g.submitIO(p, g.net, n, bytes)
}

func (g *Guest) submitIO(p *guest.Process, dev *virtio.Device, n int, bytes int64) {
	if n <= 0 {
		return
	}
	g.Sys.trace(p.CPU, trace.KindIO, trace.FormIO, g.Name, p.PID, uint64(n), bytes, dev.String())
	// The virtio ring is shared by every vCPU of the guest and its batching
	// state feeds service times: gate so ring order is a function of
	// virtual time, not of goroutine interleaving (a bound guest has one).
	g.order(p.CPU, 0)
	b := dev.Submit(n, bytes)
	g.Sys.Ctr.IORequests.Add(int64(n))
	for i := int64(0); i < b.Kicks; i++ {
		g.cpu.ioKick(p)
	}
	p.CPU.AdvanceLazy(b.Service)
	for i := int64(0); i < b.Completes; i++ {
		g.cpu.ioComplete(p)
	}
}

// Run launches fn as a new guest process with a warmed image of imagePages
// pages on a fresh vCPU starting at virtual time start. The process exits
// when fn returns. Errors inside process setup panic: they indicate
// simulator misconfiguration, not workload conditions.
func (g *Guest) Run(start int64, imagePages int, fn func(p *guest.Process)) *vclock.CPU {
	return g.Sys.Eng.Go(start, func(c *vclock.CPU) {
		p, err := g.Kern.StartProcess(c, imagePages)
		if err != nil {
			panic(fmt.Sprintf("backend: starting process in %s: %v", g.Name, err))
		}
		fn(p)
		if err := p.Exit(); err != nil {
			panic(fmt.Sprintf("backend: exiting process in %s: %v", g.Name, err))
		}
	})
}

// procData is the per-process platform state shared by all strategies.
type procData struct {
	tlb *tlb.TLB

	// Shadow-paging state (SPT and PVM configurations). For PVM, shadow
	// owns both tables and sptUser/sptKernel alias its halves.
	sptUser   *pagetable.PageTable
	sptKernel *pagetable.PageTable
	shadow    *core.ShadowSpace

	// sptMapper is a cached-leaf write cursor over sptUser, used by the
	// SPT and direct-paging fix paths so a run of cold faults builds the
	// shadow with one upper-level walk per 2 MiB span. Owned by the
	// process's vCPU; zap paths mutate leaves in place, keeping the cache
	// coherent (see pagetable.Mapper).
	sptMapper pagetable.Mapper

	// PVM PCID mapping (§3.3.2): host PCIDs assigned to this L2 address
	// space. Zero when the optimization is off.
	pcidUser   arch.PCID
	pcidKernel arch.PCID

	// switcher is the per-vCPU switcher state (PVM configurations).
	switcher *vmx.PerVCPUSwitcherState

	// syncLog is the collaborative-sync shared ring (§5 extension):
	// guest PTE updates logged without trapping, replayed by PVM at the
	// next synchronization point. Owned by the process's vCPU.
	syncLog []pagetable.WriteEvent

	// dirty is the dirty-page logging epoch state (dirtylog.go). Nil
	// until the first StartDirtyLog; dies with the procData on exec.
	dirty *dirtyState
}

func pd(p *guest.Process) *procData { return p.PlatformData.(*procData) }
