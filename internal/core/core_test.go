package core

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/vclock"
)

func TestSwitcherMappedAtIdenticalVA(t *testing.T) {
	alloc := mem.NewAllocator("hv", 0, 0)
	sw := NewSwitcher(alloc)
	spaces := []*ShadowSpace{
		NewShadowSpace(alloc, sw),
		NewShadowSpace(alloc, sw),
	}
	for i, s := range spaces {
		for _, tbl := range []*pagetable.PageTable{s.User, s.Kernel} {
			e, ok := tbl.Lookup(sw.Base)
			if !ok {
				t.Fatalf("space %d: switcher missing", i)
			}
			if !e.Flags.Has(pagetable.Global) {
				t.Errorf("space %d: switcher page not global", i)
			}
		}
	}
	// Identical frames at identical VAs in every space.
	e1, _ := spaces[0].User.Lookup(sw.Base)
	e2, _ := spaces[1].Kernel.Lookup(sw.Base)
	if e1.PFN != e2.PFN {
		t.Error("switcher text frame differs between address spaces")
	}
	if !sw.MappedIn(spaces[0].User) || !sw.MappedIn(spaces[1].Kernel) {
		t.Error("MappedIn disagrees with Lookup")
	}
}

func TestSwitcherIDTIsCustom(t *testing.T) {
	sw := NewSwitcher(mem.NewAllocator("hv", 0, 0))
	if !sw.IDT.Custom {
		t.Error("switcher IDT must be the customized one")
	}
	if h := sw.IDT.Handler(14); h != "switcher" {
		t.Errorf("#PF handler = %q, want switcher", h)
	}
}

func TestShadowSpaceInstallZap(t *testing.T) {
	alloc := mem.NewAllocator("hv", 0, 0)
	s := NewShadowSpace(alloc, nil)
	va := arch.VA(0x7000)
	s.Install(va, 99, pagetable.Writable|pagetable.User)
	e, ok := s.Lookup(va)
	if !ok || e.PFN != 99 || !e.Flags.Has(pagetable.Writable) {
		t.Fatalf("lookup after install: %+v %v", e, ok)
	}
	// Read-only guest flags → read-only shadow entry.
	s.Install(va+arch.PageSize, 100, pagetable.User)
	e, _ = s.Lookup(va + arch.PageSize)
	if e.Flags.Has(pagetable.Writable) {
		t.Error("read-only guest page got writable shadow entry")
	}
	if !s.Zap(va) {
		t.Error("zap of present entry failed")
	}
	if _, ok := s.Lookup(va); ok {
		t.Error("entry survives zap")
	}
	if s.MappedLeaves() != 1 {
		t.Errorf("mapped leaves = %d, want 1", s.MappedLeaves())
	}
}

func TestShadowSpaceDestroyFreesFrames(t *testing.T) {
	alloc := mem.NewAllocator("hv", 0, 0)
	sw := NewSwitcher(alloc)
	s := NewShadowSpace(alloc, sw)
	s.Install(0x4000, 7, pagetable.Writable)
	if err := s.Destroy(); err != nil {
		t.Fatal(err)
	}
	// Only the switcher's own two frames remain.
	if got := alloc.InUse(); got != 2 {
		t.Errorf("frames in use after destroy = %d, want 2 (switcher pages)", got)
	}
}

func TestPCIDAllocatorWindows(t *testing.T) {
	a := NewPCIDAllocator()
	seen := map[arch.PCID]bool{}
	for i := 0; i < 40; i++ { // more than the window size: wraps
		u, k := a.Alloc()
		if u < arch.PVMUserPCIDBase || u >= arch.PVMUserPCIDBase+arch.PCID(arch.PVMUserPCIDLen) {
			t.Fatalf("user PCID %d outside window", u)
		}
		if k < arch.PVMKernelPCIDBase || k >= arch.PVMKernelPCIDBase+arch.PCID(arch.PVMKernelPCIDLen) {
			t.Fatalf("kernel PCID %d outside window", k)
		}
		if u == k {
			t.Fatal("user and kernel PCIDs must differ")
		}
		seen[u] = true
	}
	if len(seen) != int(arch.PVMUserPCIDLen) {
		t.Errorf("distinct user PCIDs = %d, want %d (full window use)", len(seen), arch.PVMUserPCIDLen)
	}
}

func TestLockSetGranularity(t *testing.T) {
	eng := vclock.NewEngine()
	ls := NewLockSet(eng, "g", FineLock)
	// Same 2 MiB span → same pt_lock; different spans or owners → distinct.
	a := ls.PT(1, 0x200000)
	b := ls.PT(1, 0x200000+arch.PageSize)
	if a != b {
		t.Error("addresses in one shadow page got distinct pt_locks")
	}
	c := ls.PT(1, 0x400000)
	if c == a {
		t.Error("distinct shadow pages share a pt_lock")
	}
	d := ls.PT(2, 0x200000)
	if d == a {
		t.Error("distinct owners share a pt_lock")
	}
	if ls.PTLockCount() != 3 {
		t.Errorf("pt lock count = %d, want 3", ls.PTLockCount())
	}
	r1 := ls.Rmap(5)
	r2 := ls.Rmap(5)
	r3 := ls.Rmap(6)
	if r1 != r2 || r1 == r3 {
		t.Error("rmap locks not keyed by GFN")
	}
	if FineLock.String() != "fine" || CoarseLock.String() != "coarse" {
		t.Error("LockMode stringer broken")
	}
}

// TestRmapLocksByFrame pins the rmap_lock table: one lock per guest frame,
// the same on every call, distinct across frames, chunk boundaries
// (511/512/513) and the guest-physical range included; and every rmap_lock
// of an owned set is owned, whether created before Own or after it.
func TestRmapLocksByFrame(t *testing.T) {
	eng := vclock.NewEngine()
	ls := NewLockSet(eng, "g", FineLock)
	before := []arch.PFN{5, 7, 511, 512, 513, 0x1000, 0x1001, 0x1200}
	after := []arch.PFN{0, 6, 1023, 1024, 0x1002, 0x5000}
	seen := map[*vclock.Lock]arch.PFN{}
	check := func(gfns []arch.PFN) {
		for _, gfn := range gfns {
			l := ls.Rmap(gfn)
			if l != ls.Rmap(gfn) {
				t.Errorf("frame %#x: Rmap returned two locks", gfn)
			}
			if other, dup := seen[l]; dup && other != gfn {
				t.Errorf("frames %#x and %#x share an rmap_lock", other, gfn)
			}
			seen[l] = gfn
		}
	}
	check(before)
	c := eng.NewCPU(0)
	defer c.Done()
	ls.Own(c)
	check(after)
	for l, gfn := range seen {
		if l.Owner() != c {
			t.Errorf("rmap_lock of frame %#x not owned after Own", gfn)
		}
	}
	if len(seen) != len(before)+len(after) {
		t.Errorf("%d distinct rmap_locks for %d frames", len(seen), len(before)+len(after))
	}
}

func TestAttackSurface(t *testing.T) {
	trad := TraditionalContainerSurface()
	pvm := PVMSecureContainerSurface()
	if !pvm.Narrower(trad) {
		t.Errorf("PVM surface (%v) should be narrower than traditional (%v)", pvm, trad)
	}
	if pvm.Interfaces != 22 {
		t.Errorf("PVM hypercall surface = %d, want 22", pvm.Interfaces)
	}
	if pvm.DefenseLayers != 2 {
		t.Errorf("PVM defense layers = %d, want 2 (guest kernel + PVM hypervisor)", pvm.DefenseLayers)
	}
	if trad.Interfaces < 250 {
		t.Errorf("traditional container surface = %d, want >= 250", trad.Interfaces)
	}
	if pvm.String() == "" || trad.String() == "" {
		t.Error("empty surface strings")
	}
}

func TestDirectSwitchAccounting(t *testing.T) {
	sw := NewSwitcher(mem.NewAllocator("hv", 0, 0))
	sw.RecordDirectSwitch()
	sw.RecordDirectSwitch()
	if sw.DirectSwitches() != 2 {
		t.Errorf("direct switches = %d, want 2", sw.DirectSwitches())
	}
	st := sw.NewVCPUState()
	if st == nil {
		t.Fatal("nil vCPU state")
	}
}

func TestSwitcherNotMappedInFreshTable(t *testing.T) {
	alloc := mem.NewAllocator("hv", 0, 0)
	sw := NewSwitcher(alloc)
	empty, err := pagetable.New(alloc)
	if err != nil {
		t.Fatal(err)
	}
	if sw.MappedIn(empty) {
		t.Error("switcher reported mapped in a table it was never mapped into")
	}
	s := NewShadowSpace(alloc, nil)
	if s.Zap(0x9000) {
		t.Error("zap of never-installed entry reported success")
	}
	if s.MappedLeaves() != 0 {
		t.Errorf("fresh space has %d mapped leaves", s.MappedLeaves())
	}
}
