package backend

import (
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/guest"
	"repro/internal/vclock"
)

func TestMigrationPVMStaysMigratable(t *testing.T) {
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
		// L2 guest actively running: PVM's L1 is still an ordinary VM.
		ok, why := s.CanMigrateL1()
		if !ok {
			t.Errorf("pvm (NST) L1 not migratable: %s", why)
		}
		before := c.Now()
		if err := s.MigrateL1(c); err != nil {
			t.Errorf("migration failed: %v", err)
		}
		if c.Now() == before {
			t.Error("migration charged no time")
		}
		if err := p.Exit(); err != nil {
			panic(err)
		}
	})
	s.Eng.Wait()
}

func TestMigrationBlockedUnderHardwareNesting(t *testing.T) {
	s := NewSystem(KVMEPTNST, DefaultOptions())
	g, err := s.NewGuest("g0")
	if err != nil {
		t.Fatal(err)
	}
	// Before any L2 runs, migration is still possible.
	if ok, _ := s.CanMigrateL1(); !ok {
		t.Error("idle nested instance should be migratable")
	}
	s.Eng.Go(0, func(c *vclock.CPU) {
		p, err := g.Kern.StartProcess(c, 16)
		if err != nil {
			panic(err)
		}
		ok, why := s.CanMigrateL1()
		if ok {
			t.Error("kvm-ept (NST) with running L2 must not be migratable (§2.3)")
		}
		if !strings.Contains(why, "pinned at L0") {
			t.Errorf("unexpected reason: %s", why)
		}
		if err := s.MigrateL1(c); err == nil {
			t.Error("MigrateL1 should fail")
		}
		if err := p.Exit(); err != nil {
			panic(err)
		}
	})
	s.Eng.Wait()
}

func TestMigrationBareMetalHasNoL1(t *testing.T) {
	s := NewSystem(KVMEPTBM, DefaultOptions())
	if ok, _ := s.CanMigrateL1(); ok {
		t.Error("bare metal has no L1 instance to migrate")
	}
}

func TestVMCSShadowingExitStorm(t *testing.T) {
	// §2.1: without VMCS shadowing, handling a single L2 world switch
	// costs 40–50 exits to L0.
	exitsPerTrip := func(shadowing bool) int64 {
		opt := DefaultOptions()
		opt.VMCSShadowing = shadowing
		s := NewSystem(KVMEPTNST, opt)
		g, err := s.NewGuest("g0")
		if err != nil {
			t.Fatal(err)
		}
		var exits int64
		s.Eng.Go(0, func(c *vclock.CPU) {
			p, err := g.Kern.NewProcess(c)
			if err != nil {
				panic(err)
			}
			before := s.Ctr.Snapshot().L0Exits
			g.l2ToL1(c)
			exits = s.Ctr.Snapshot().L0Exits - before
			g.l1ToL2(c)
			_ = p
		})
		s.Eng.Wait()
		return exits
	}
	with := exitsPerTrip(true)
	without := exitsPerTrip(false)
	if with != 1 {
		t.Errorf("exits per L2→L1 switch with shadowing = %d, want 1", with)
	}
	if without < 40 || without > 51 {
		t.Errorf("exits per L2→L1 switch without shadowing = %d, want 40–50 (paper §2.1)", without)
	}
}

// TestVMCS12AccessAccounting pins the VMCS12 traffic of nested exits: L1's
// handler touches the VMCS12 45 times per L2→L1 trip (VMCSAccessesPerExit),
// alternating reads and writes from a read, so a System holding one nested
// KVM guest counts exactly 23 reads and 22 writes per L1 exit, with VMCS
// shadowing on or off (shadowing changes which accesses trap, not how many
// there are). L1Exits counts the whole System, and its only other source is
// the PVM switcher, so one guest makes the identity exact.
func TestVMCS12AccessAccounting(t *testing.T) {
	if n := cost.Default().VMCSAccessesPerExit; n != 45 {
		t.Fatalf("VMCSAccessesPerExit = %d, the identities below assume 45", n)
	}
	if !DefaultOptions().VMCSShadowing {
		t.Error("default options should enable VMCS shadowing")
	}
	for _, cfg := range []Config{KVMEPTNST, SPTEPTNST} {
		for _, shadowing := range []bool{true, false} {
			opt := DefaultOptions()
			opt.VMCSShadowing = shadowing
			s := NewSystem(cfg, opt)
			g, err := s.NewGuest("g0")
			if err != nil {
				t.Fatal(err)
			}
			if g.VMCS12() == nil || g.VMCS12().Shadowed != shadowing {
				t.Fatalf("%s: VMCS12 missing or shadowing not %v", cfg, shadowing)
			}
			g.Run(0, 2, func(p *guest.Process) {
				base := p.Mmap(8)
				p.TouchRange(base, 8, true)
				p.Syscall(100)
			})
			s.Eng.Wait()
			exits := s.Ctr.L1Exits.Load()
			r, w := g.VMCS12().Accesses()
			if exits == 0 || r != 23*exits || w != 22*exits {
				t.Errorf("%s shadowing=%v: VMCS12 accesses = (%d, %d) over %d L1 exits, want (23, 22) per exit",
					cfg, shadowing, r, w, exits)
			}
		}
	}
	// PVM guests have no VMCS12 at all — the design point.
	s2 := NewSystem(PVMNST, DefaultOptions())
	g2, err := s2.NewGuest("g0")
	if err != nil {
		t.Fatal(err)
	}
	if g2.VMCS12() != nil {
		t.Error("pvm guest should not carry a VMCS12")
	}
}

// TestMetricsSnapshotTraceDropped pins the assembled snapshot: a trace ring
// too small for the run reports its overwrites through MetricsSnapshot,
// while the raw counter snapshot (the equivalence oracle's view) stays
// tracer-free.
func TestMetricsSnapshotTraceDropped(t *testing.T) {
	opt := DefaultOptions()
	opt.TraceEvents = 8
	s := NewSystem(PVMNST, opt)
	g, err := s.NewGuest("g0")
	if err != nil {
		t.Fatal(err)
	}
	s.Eng.Go(0, func(c *vclock.CPU) {
		p, err := g.Kern.StartProcess(c, 4)
		if err != nil {
			panic(err)
		}
		base := p.Mmap(64)
		p.TouchRange(base, 64, true)
		if err := p.Exit(); err != nil {
			panic(err)
		}
	})
	s.Eng.Wait()
	if err := s.Eng.Err(); err != nil {
		t.Fatal(err)
	}
	snap := s.MetricsSnapshot()
	if snap.TraceDropped == 0 {
		t.Fatal("8-entry ring retained a 64-page fault storm; expected drops")
	}
	if got, want := snap.TraceDropped, s.Tracer.Dropped(); got != want {
		t.Errorf("snapshot TraceDropped = %d, tracer reports %d", got, want)
	}
	if raw := s.Ctr.Snapshot(); raw.TraceDropped != 0 {
		t.Errorf("raw counter snapshot carries TraceDropped = %d, want 0", raw.TraceDropped)
	}
	// Beyond TraceDropped the assembled snapshot is the raw one (snapshots
	// hold a map, so compare the stable rendering).
	snap.TraceDropped = 0
	if raw := s.Ctr.Snapshot(); raw.String() != snap.String() {
		t.Errorf("MetricsSnapshot diverges from Ctr.Snapshot beyond TraceDropped:\n%s\n%s",
			snap.String(), raw.String())
	}
	// A system without a tracer must not panic and reports zero.
	opt.TraceEvents = 0
	s2 := NewSystem(PVMNST, opt)
	if d := s2.MetricsSnapshot().TraceDropped; d != 0 {
		t.Errorf("tracerless system TraceDropped = %d, want 0", d)
	}
}
