package backend

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/guest"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// runOne builds a system of the given config, creates one guest and one
// empty process, runs fn on it, and returns the system for inspection.
func runOne(t *testing.T, cfg Config, opt Options, fn func(s *System, p *guest.Process)) *System {
	t.Helper()
	s := NewSystem(cfg, opt)
	g, err := s.NewGuest("g0")
	if err != nil {
		t.Fatal(err)
	}
	s.Eng.Go(0, func(c *vclock.CPU) {
		p, err := g.Kern.NewProcess(c)
		if err != nil {
			panic(err)
		}
		fn(s, p)
	})
	s.Eng.Wait()
	return s
}

// diffSnapshot captures counters around an action.
func diff(s *System, act func()) metrics.Snapshot {
	before := s.Ctr.Snapshot()
	act()
	after := s.Ctr.Snapshot()
	return metrics.Snapshot{
		WorldSwitches: after.WorldSwitches - before.WorldSwitches,
		L0Exits:       after.L0Exits - before.L0Exits,
		L1Exits:       after.L1Exits - before.L1Exits,
		GuestFaults:   after.GuestFaults - before.GuestFaults,
		ShadowFaults:  after.ShadowFaults - before.ShadowFaults,
		EPTViolations: after.EPTViolations - before.EPTViolations,
		PTEWriteTraps: after.PTEWriteTraps - before.PTEWriteTraps,
		Prefaults:     after.Prefaults - before.Prefaults,
		Hypercalls:    after.Hypercalls - before.Hypercalls,
		Syscalls:      after.Syscalls - before.Syscalls,
	}
}

// The paper's per-fault world-switch arithmetic (§2.2, §3.3.2), with
// n = m = 4 page-table levels written on a first-touch in an empty table:
//
//	kvm-ept (BM):    2 switches, 1 L0 exit (the EPT violation)
//	kvm-spt (BM):    2n+4 = 12 switches, n+2 = 6 L0 exits
//	pvm (BM/NST):    2n+4 = 12 switches, 0 L0 exits
//	kvm-ept (NST):   2m+6 = 14 switches, m+3 = 7 L0 exits
//	spt-on-ept(NST): 4n+8 = 24 switches, 2n+4 = 12 L0 exits

func touchFreshPage(t *testing.T, cfg Config, opt Options) metrics.Snapshot {
	t.Helper()
	var d metrics.Snapshot
	runOne(t, cfg, opt, func(s *System, p *guest.Process) {
		base := p.Mmap(4)
		d = diff(s, func() { p.Touch(base, true) })
	})
	return d
}

func TestFaultChoreographyKVMEPTBM(t *testing.T) {
	d := touchFreshPage(t, KVMEPTBM, DefaultOptions())
	if d.WorldSwitches != 2 || d.L0Exits != 1 || d.GuestFaults != 1 ||
		d.EPTViolations != 1 || d.PTEWriteTraps != 0 {
		t.Fatalf("kvm-ept(BM) fresh-page fault: %+v", d)
	}
}

func TestFaultChoreographyKVMSPTBM(t *testing.T) {
	d := touchFreshPage(t, KVMSPTBM, DefaultOptions())
	if d.WorldSwitches != 12 {
		t.Errorf("kvm-spt(BM) switches = %d, want 2n+4 = 12", d.WorldSwitches)
	}
	if d.L0Exits != 6 {
		t.Errorf("kvm-spt(BM) L0 exits = %d, want n+2 = 6", d.L0Exits)
	}
	if d.PTEWriteTraps != 4 || d.GuestFaults != 1 || d.ShadowFaults != 1 {
		t.Errorf("kvm-spt(BM) counters: %+v", d)
	}
}

func TestFaultChoreographyPVM(t *testing.T) {
	for _, cfg := range []Config{PVMBM, PVMNST} {
		d := touchFreshPage(t, cfg, DefaultOptions())
		if d.WorldSwitches != 12 {
			t.Errorf("%v switches = %d, want 2n+4 = 12", cfg, d.WorldSwitches)
		}
		if d.L0Exits != 0 {
			t.Errorf("%v L0 exits = %d, want 0 (PVM never involves L0)", cfg, d.L0Exits)
		}
		if d.PTEWriteTraps != 4 || d.GuestFaults != 1 || d.Prefaults != 1 {
			t.Errorf("%v counters: %+v", cfg, d)
		}
		if d.Hypercalls != 1 { // the iret hypercall
			t.Errorf("%v hypercalls = %d, want 1", cfg, d.Hypercalls)
		}
	}
}

func TestFaultChoreographyPVMNoPrefault(t *testing.T) {
	opt := DefaultOptions()
	opt.Prefault = false
	d := touchFreshPage(t, PVMNST, opt)
	if d.WorldSwitches != 14 {
		t.Errorf("pvm(NST) without prefault: switches = %d, want 2n+6 = 14", d.WorldSwitches)
	}
	if d.Prefaults != 0 || d.ShadowFaults != 1 {
		t.Errorf("pvm(NST) without prefault: %+v", d)
	}
}

func TestFaultChoreographyKVMEPTNST(t *testing.T) {
	d := touchFreshPage(t, KVMEPTNST, DefaultOptions())
	if d.WorldSwitches != 14 {
		t.Errorf("kvm-ept(NST) switches = %d, want 2m+6 = 14", d.WorldSwitches)
	}
	if d.L0Exits != 7 {
		t.Errorf("kvm-ept(NST) L0 exits = %d, want m+3 = 7", d.L0Exits)
	}
	if d.GuestFaults != 1 || d.EPTViolations != 1 || d.PTEWriteTraps != 4 {
		t.Errorf("kvm-ept(NST) counters: %+v", d)
	}
}

func TestFaultChoreographySPTonEPTNST(t *testing.T) {
	d := touchFreshPage(t, SPTEPTNST, DefaultOptions())
	if d.WorldSwitches != 24 {
		t.Errorf("spt-on-ept(NST) switches = %d, want 4n+8 = 24", d.WorldSwitches)
	}
	if d.L0Exits != 12 {
		t.Errorf("spt-on-ept(NST) L0 exits = %d, want 2n+4 = 12", d.L0Exits)
	}
}

func TestSecondPageCheaper(t *testing.T) {
	// A page in an already-populated leaf table writes one PTE (n=1):
	// pvm needs 2n+4 = 6 switches.
	runOne(t, PVMNST, DefaultOptions(), func(s *System, p *guest.Process) {
		base := p.Mmap(4)
		p.Touch(base, true)
		d := diff(s, func() { p.Touch(base+arch.PageSize, true) })
		if d.WorldSwitches != 6 {
			t.Errorf("second-page fault: switches = %d, want 6", d.WorldSwitches)
		}
	})
}

func TestTLBHitIsFree(t *testing.T) {
	runOne(t, PVMNST, DefaultOptions(), func(s *System, p *guest.Process) {
		base := p.Mmap(1)
		p.Touch(base, true)
		d := diff(s, func() { p.Touch(base, true) })
		if d.WorldSwitches != 0 || d.GuestFaults != 0 {
			t.Errorf("re-touch should hit the TLB: %+v", d)
		}
	})
}

func TestShadowOnlyFault(t *testing.T) {
	// A read of a present-in-GPT page whose shadow entry was zapped is a
	// shadow-only fault: 2 switches, no guest kernel involvement.
	runOne(t, PVMNST, DefaultOptions(), func(s *System, p *guest.Process) {
		base := p.Mmap(1)
		p.Touch(base, true)
		// Zap the shadow by writing the GPT (protect does a PTE store,
		// which the platform syncs by invalidating the shadow leaf).
		pd(p).sptUser.Unmap(base)
		pd(p).tlb.FlushAll()
		d := diff(s, func() { p.Touch(base, false) })
		if d.WorldSwitches != 2 || d.GuestFaults != 0 || d.ShadowFaults != 1 {
			t.Errorf("shadow-only fault: %+v", d)
		}
	})
}

// Table 2: get_pid syscall latencies.
func TestSyscallLatencies(t *testing.T) {
	measure := func(cfg Config, opt Options) int64 {
		var elapsed int64
		runOne(t, cfg, opt, func(s *System, p *guest.Process) {
			start := p.CPU.Now()
			p.Getpid()
			elapsed = p.CPU.Now() - start
		})
		return elapsed
	}
	opt := DefaultOptions()
	noKPTI := DefaultOptions()
	noKPTI.KPTI = false
	noDirect := DefaultOptions()
	noDirect.DirectSwitch = false

	cases := []struct {
		name string
		cfg  Config
		opt  Options
		want int64
	}{
		{"kvm-ept(BM) KPTI", KVMEPTBM, opt, 210},
		{"kvm-ept(BM) noKPTI", KVMEPTBM, noKPTI, 60},
		{"kvm-spt(BM) KPTI", KVMSPTBM, opt, 2130},
		{"kvm-spt(BM) noKPTI", KVMSPTBM, noKPTI, 60},
		{"kvm-ept(NST) KPTI", KVMEPTNST, opt, 210},
		{"pvm(BM) direct", PVMBM, opt, 290},
		{"pvm(NST) direct", PVMNST, opt, 290},
		{"pvm(NST) no-direct", PVMNST, noDirect, 1906},
	}
	for _, c := range cases {
		if got := measure(c.cfg, c.opt); got != c.want {
			t.Errorf("%s: syscall = %d ns, want %d", c.name, got, c.want)
		}
	}
	// KPTI off must NOT help PVM (§4.1's observation).
	noKPTIDirect := noKPTI
	if got := measure(PVMNST, noKPTIDirect); got != 290 {
		t.Errorf("pvm(NST) without KPTI: syscall = %d ns, want 290 (unchanged)", got)
	}
}

// Table 1: privileged-operation round-trip latencies.
func TestPrivOpLatencies(t *testing.T) {
	measure := func(cfg Config, op arch.PrivOp) int64 {
		var elapsed int64
		runOne(t, cfg, DefaultOptions(), func(s *System, p *guest.Process) {
			start := p.CPU.Now()
			p.PrivOp(op)
			elapsed = p.CPU.Now() - start
		})
		return elapsed
	}
	cases := []struct {
		cfg  Config
		op   arch.PrivOp
		want int64
	}{
		{KVMEPTBM, arch.OpHypercall, 460},
		{KVMEPTBM, arch.OpException, 1660},
		{KVMEPTBM, arch.OpMSRAccess, 870},
		{KVMEPTBM, arch.OpCPUID, 540},
		{KVMEPTBM, arch.OpPIO, 3790},
		{PVMBM, arch.OpHypercall, 538},
		{PVMBM, arch.OpException, 1668},
		{PVMBM, arch.OpMSRAccess, 2528},
		{PVMBM, arch.OpCPUID, 598},
		{PVMBM, arch.OpPIO, 4548},
		{KVMEPTNST, arch.OpHypercall, 7050},
		{KVMEPTNST, arch.OpCPUID, 7130},
		{PVMNST, arch.OpHypercall, 538},
		{PVMNST, arch.OpCPUID, 598},
		{PVMNST, arch.OpPIO, 12548},
	}
	for _, c := range cases {
		if got := measure(c.cfg, c.op); got != c.want {
			t.Errorf("%v %v: %d ns, want %d", c.cfg, c.op, got, c.want)
		}
	}
	// Ordering claims from Table 1: pvm (NST) reduces exit latency vs
	// kvm (NST) by a large factor; pvm (BM) is close to kvm (BM).
	for _, op := range []arch.PrivOp{arch.OpHypercall, arch.OpException, arch.OpCPUID, arch.OpPIO} {
		kvmNST := measure(KVMEPTNST, op)
		pvmNST := measure(PVMNST, op)
		if pvmNST >= kvmNST {
			t.Errorf("%v: pvm(NST)=%d should beat kvm(NST)=%d", op, pvmNST, kvmNST)
		}
	}
}

func TestForkCOWBehaviour(t *testing.T) {
	// Under EPT, fork's page-table writes never trap; under PVM every
	// parent COW protect does.
	const image = 32
	countTraps := func(cfg Config) (traps, faults int64) {
		s := NewSystem(cfg, DefaultOptions())
		g, err := s.NewGuest("g0")
		if err != nil {
			t.Fatal(err)
		}
		s.Eng.Go(0, func(c *vclock.CPU) {
			p, err := g.Kern.StartProcess(c, image)
			if err != nil {
				panic(err)
			}
			before := s.Ctr.Snapshot()
			child, err := p.Fork(nil)
			if err != nil {
				panic(err)
			}
			after := s.Ctr.Snapshot()
			traps = after.PTEWriteTraps - before.PTEWriteTraps

			// Child write → COW break.
			b2 := s.Ctr.Snapshot()
			child.Touch(guest.ImageBase, true)
			a2 := s.Ctr.Snapshot()
			faults = a2.COWBreaks - b2.COWBreaks
			if err := child.Exit(); err != nil {
				panic(err)
			}
			if err := p.Exit(); err != nil {
				panic(err)
			}
		})
		s.Eng.Wait()
		return traps, faults
	}
	traps, cow := countTraps(KVMEPTBM)
	if traps != 0 {
		t.Errorf("kvm-ept(BM) fork PTE traps = %d, want 0", traps)
	}
	if cow != 1 {
		t.Errorf("kvm-ept(BM) COW breaks = %d, want 1", cow)
	}
	traps, cow = countTraps(PVMNST)
	// image + stack pages are writable and resident: each gets a COW
	// protect store in the parent.
	want := int64(image + guest.StackPages)
	if traps != want {
		t.Errorf("pvm(NST) fork PTE traps = %d, want %d", traps, want)
	}
	if cow != 1 {
		t.Errorf("pvm(NST) COW breaks = %d, want 1", cow)
	}
}

func TestFreePageReportingRefaults(t *testing.T) {
	// After munmap, re-touching the region must re-fault the whole
	// nested path (the RunD-style density story).
	runOne(t, KVMEPTNST, DefaultOptions(), func(s *System, p *guest.Process) {
		base := p.Mmap(8)
		p.TouchRange(base, 8, true)
		first := s.Ctr.Snapshot().EPTViolations
		if err := p.Munmap(base, 8); err != nil {
			panic(err)
		}
		base2 := p.Mmap(8)
		p.TouchRange(base2, 8, true)
		second := s.Ctr.Snapshot().EPTViolations
		if second-first != 8 {
			t.Errorf("EPT violations after reuse = %d, want 8 (refault)", second-first)
		}
	})
}

func TestMunmapStoresTrapsUnderShadowPaging(t *testing.T) {
	runOne(t, PVMNST, DefaultOptions(), func(s *System, p *guest.Process) {
		base := p.Mmap(8)
		p.TouchRange(base, 8, true)
		d := diff(s, func() {
			if err := p.Munmap(base, 8); err != nil {
				panic(err)
			}
		})
		if d.PTEWriteTraps != 8 {
			t.Errorf("munmap PTE-clear traps = %d, want 8", d.PTEWriteTraps)
		}
	})
}

func TestSwitcherMappedIntoBothShadowSpaces(t *testing.T) {
	runOne(t, PVMNST, DefaultOptions(), func(s *System, p *guest.Process) {
		m := s.Guests()[0].mmu.(*pvmMMU)
		d := pd(p)
		if !m.Switcher().MappedIn(d.sptUser) {
			t.Error("switcher not mapped into the guest-user shadow space")
		}
		if !m.Switcher().MappedIn(d.sptKernel) {
			t.Error("switcher not mapped into the guest-kernel shadow space")
		}
		if d.sptUser == d.sptKernel {
			t.Error("guest user and kernel must have separate shadow tables")
		}
	})
}

func TestPVMPCIDMapping(t *testing.T) {
	runOne(t, PVMNST, DefaultOptions(), func(s *System, p *guest.Process) {
		d := pd(p)
		if d.pcidUser < arch.PVMUserPCIDBase || d.pcidUser >= arch.PVMUserPCIDBase+arch.PCID(arch.PVMUserPCIDLen) {
			t.Errorf("user PCID %d outside the 48–63 window", d.pcidUser)
		}
		if d.pcidKernel < arch.PVMKernelPCIDBase || d.pcidKernel >= arch.PVMKernelPCIDBase+arch.PCID(arch.PVMKernelPCIDLen) {
			t.Errorf("kernel PCID %d outside the 32–47 window", d.pcidKernel)
		}
	})
}

func TestRegisterScrubbingOnExit(t *testing.T) {
	runOne(t, PVMNST, DefaultOptions(), func(s *System, p *guest.Process) {
		base := p.Mmap(1)
		p.Touch(base, true)
		d := pd(p)
		if d.switcher.ScrubbedGPRs != arch.ScrubbedGPRs {
			t.Errorf("scrubbed GPRs = %d, want %d (all but RSP/RAX)",
				d.switcher.ScrubbedGPRs, arch.ScrubbedGPRs)
		}
		if d.switcher.Saves == 0 || d.switcher.Restores == 0 {
			t.Error("switcher state never saved/restored")
		}
	})
}

func TestHaltPathsPVMAvoidRootMode(t *testing.T) {
	var pvmL0, kvmL0 int64
	runOne(t, PVMNST, DefaultOptions(), func(s *System, p *guest.Process) {
		d := diff(s, func() { p.Halt() })
		pvmL0 = d.L0Exits
	})
	runOne(t, KVMEPTNST, DefaultOptions(), func(s *System, p *guest.Process) {
		d := diff(s, func() { p.Halt() })
		kvmL0 = d.L0Exits
	})
	if pvmL0 != 0 {
		t.Errorf("pvm(NST) HLT took %d L0 exits, want 0", pvmL0)
	}
	if kvmL0 == 0 {
		t.Error("kvm(NST) HLT should exit to L0")
	}
}

func TestDeterministicConcurrentRun(t *testing.T) {
	run := func() int64 {
		s := NewSystem(PVMNST, DefaultOptions())
		g, err := s.NewGuest("g0")
		if err != nil {
			t.Fatal(err)
		}
		release := s.Eng.Hold()
		for i := 0; i < 6; i++ {
			g.Run(0, 4, func(p *guest.Process) {
				for round := 0; round < 5; round++ {
					base := p.Mmap(16)
					p.TouchRange(base, 16, true)
					if err := p.Munmap(base, 16); err != nil {
						panic(err)
					}
				}
			})
		}
		release()
		s.Eng.Wait()
		return s.Eng.Makespan()
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d: makespan %d != %d (nondeterministic)", i, got, first)
		}
	}
}

func TestFineLockScalesBetterThanCoarse(t *testing.T) {
	run := func(fine bool) int64 {
		opt := DefaultOptions()
		opt.FineLock = fine
		s := NewSystem(PVMNST, opt)
		g, err := s.NewGuest("g0")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			g.Run(0, 2, func(p *guest.Process) {
				base := p.Mmap(64)
				p.TouchRange(base, 64, true)
			})
		}
		s.Eng.Wait()
		return s.Eng.Makespan()
	}
	fine := run(true)
	coarse := run(false)
	if fine >= coarse {
		t.Errorf("fine-grained locking (%d ns) should beat the global mmu_lock (%d ns)", fine, coarse)
	}
}

func TestNestedKVMCollapsesUnderConcurrency(t *testing.T) {
	// Per-process runtime should degrade much more for kvm-ept (NST)
	// than for pvm (NST) as concurrency grows — the Figure 10 story.
	perProc := func(cfg Config, procs int) int64 {
		s := NewSystem(cfg, DefaultOptions())
		g, err := s.NewGuest("g0")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < procs; i++ {
			g.Run(0, 2, func(p *guest.Process) {
				base := p.Mmap(128)
				p.TouchRange(base, 128, true)
			})
		}
		s.Eng.Wait()
		return s.Eng.Makespan()
	}
	kvmSlowdown := float64(perProc(KVMEPTNST, 16)) / float64(perProc(KVMEPTNST, 1))
	pvmSlowdown := float64(perProc(PVMNST, 16)) / float64(perProc(PVMNST, 1))
	if pvmSlowdown >= kvmSlowdown {
		t.Errorf("pvm slowdown %.2f should be below kvm-ept(NST) slowdown %.2f",
			pvmSlowdown, kvmSlowdown)
	}
}

func TestExecTearsDownAndRebuilds(t *testing.T) {
	runOne(t, PVMNST, DefaultOptions(), func(s *System, p *guest.Process) {
		base := p.Mmap(8)
		p.TouchRange(base, 8, true)
		resident := p.ResidentPages()
		if resident == 0 {
			t.Fatal("no resident pages before exec")
		}
		if err := p.Exec(16); err != nil {
			panic(err)
		}
		if got := p.ResidentPages(); got != 16+guest.StackPages {
			t.Errorf("resident after exec = %d, want %d", got, 16+guest.StackPages)
		}
		if p.VMACount() != 2 { // image + stack
			t.Errorf("vma count after exec = %d, want 2", p.VMACount())
		}
	})
}

func TestGuestMemoryAccounting(t *testing.T) {
	// After exit, guest-physical frames and shadow frames must be freed.
	s := NewSystem(PVMNST, DefaultOptions())
	g, err := s.NewGuest("g0")
	if err != nil {
		t.Fatal(err)
	}
	s.Eng.Go(0, func(c *vclock.CPU) {
		p, err := g.Kern.StartProcess(c, 16)
		if err != nil {
			panic(err)
		}
		base := p.Mmap(16)
		p.TouchRange(base, 16, true)
		if err := p.Exit(); err != nil {
			panic(err)
		}
	})
	s.Eng.Wait()
	if got := g.Kern.GPA.InUse(); got != 0 {
		t.Errorf("guest GPA frames leaked: %d", got)
	}
}

func TestConfigStringsAndNesting(t *testing.T) {
	for _, cfg := range Configs() {
		if cfg.String() == "" {
			t.Errorf("config %d has no name", cfg)
		}
	}
	if KVMEPTBM.Nested() || KVMSPTBM.Nested() || PVMBM.Nested() {
		t.Error("bare-metal configs report nested")
	}
	if !KVMEPTNST.Nested() || !SPTEPTNST.Nested() || !PVMNST.Nested() {
		t.Error("nested configs report bare-metal")
	}
}

func TestPVMInstructionSimulatorExecutes(t *testing.T) {
	runOne(t, PVMNST, DefaultOptions(), func(s *System, p *guest.Process) {
		p.PrivOp(arch.OpMSRAccess)
		p.PrivOp(arch.OpMSRAccess)
		em := s.Guests()[0].cpu.(*pvmCPU).Emulator()
		if em.Emulated != 2 {
			t.Errorf("emulated instructions = %d, want 2", em.Emulated)
		}
		if em.MSRs[msrPerfGlobalCtrl] != 1 {
			t.Errorf("MSR state not updated: %v", em.MSRs)
		}
	})
}

func TestTracerIntegration(t *testing.T) {
	opt := DefaultOptions()
	opt.TraceEvents = 512
	runOne(t, PVMNST, opt, func(s *System, p *guest.Process) {
		base := p.Mmap(2)
		p.TouchRange(base, 2, true)
		p.Getpid()
		if err := p.Munmap(base, 2); err != nil {
			panic(err)
		}
		if s.Tracer == nil || s.Tracer.Len() == 0 {
			t.Fatal("tracer attached but empty")
		}
		counts := s.Tracer.CountByKind()
		if counts[trace.KindFault] < 2 || counts[trace.KindSwitch] == 0 ||
			counts[trace.KindSyscall] == 0 || counts[trace.KindFlush] == 0 {
			t.Errorf("trace kinds incomplete: %v", counts)
		}
		// Events must be time-ordered.
		evs := s.Tracer.Events()
		for i := 1; i < len(evs); i++ {
			if evs[i].T < evs[i-1].T {
				t.Fatalf("trace out of order at %d", i)
			}
		}
	})
}
