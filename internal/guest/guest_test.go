package guest

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/cost"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/pagetable"
	"repro/internal/vclock"
)

// fakePlatform is a minimal hardware-assisted-style platform: guest faults
// are resolved by calling straight back into the kernel, with no shadow
// structures and no cost choreography beyond the fault itself.
type fakePlatform struct {
	eng *vclock.Engine
	prm cost.Params
	ctr *metrics.Counters

	kern     *Kernel
	released []arch.PFN
	accesses int
	syscalls int
	flushes  int
}

func newFakePlatform() *fakePlatform {
	return &fakePlatform{
		eng: vclock.NewEngine(),
		prm: cost.Default(),
		ctr: &metrics.Counters{},
	}
}

func (f *fakePlatform) Params() *cost.Params         { return &f.prm }
func (f *fakePlatform) Counters() *metrics.Counters  { return f.ctr }
func (f *fakePlatform) Engine() *vclock.Engine       { return f.eng }
func (f *fakePlatform) KPTI() bool                   { return true }
func (f *fakePlatform) RegisterProcess(p *Process)   { p.PlatformData = struct{}{} }
func (f *fakePlatform) UnregisterProcess(p *Process) {}
func (f *fakePlatform) SyscallRoundTrip(p *Process, body int64) {
	f.syscalls++
	p.CPU.Advance(f.prm.SyscallHW + f.prm.SyscallBody + body)
}
func (f *fakePlatform) PrivOp(p *Process, op arch.PrivOp)    {}
func (f *fakePlatform) Halt(p *Process)                      {}
func (f *fakePlatform) BlockIO(p *Process, n int, b int64)   {}
func (f *fakePlatform) NetIO(p *Process, n int, b int64)     {}
func (f *fakePlatform) DeliverInterrupt(p *Process, v uint8) {}

func (f *fakePlatform) ReleasePage(p *Process, va arch.VA, gpa arch.PFN) {
	f.released = append(f.released, gpa)
}

func (f *fakePlatform) FlushRange(p *Process, pages int) {
	f.flushes++
}

func (f *fakePlatform) StartDirtyLog(p *Process)          {}
func (f *fakePlatform) CollectDirty(p *Process) []arch.VA { return nil }
func (f *fakePlatform) StopDirtyLog(p *Process)           {}

func (f *fakePlatform) Access(p *Process, va arch.VA, write bool) {
	f.accesses++
	if _, _, fault := p.GPT.Walk(va.PageDown(), write, true); fault != nil {
		if _, err := f.kern.HandleFault(p, va, write); err != nil {
			panic(err)
		}
	}
}

func (f *fakePlatform) AccessRange(p *Process, va arch.VA, pages int, write bool) {
	for i := 0; i < pages; i++ {
		f.Access(p, va+arch.VA(i)*arch.PageSize, write)
	}
}

func newTestKernel() (*Kernel, *fakePlatform) {
	f := newFakePlatform()
	k := NewKernel(f, mem.NewAllocator("gpa", 0, 0x1000))
	f.kern = k
	return k, f
}

// run drives fn on a fresh vCPU and waits for completion.
func run(k *Kernel, fn func(c *vclock.CPU)) {
	k.plat.Engine().Go(0, fn)
	k.plat.Engine().Wait()
}

func TestStartProcessResidency(t *testing.T) {
	k, _ := newTestKernel()
	run(k, func(c *vclock.CPU) {
		p, err := k.StartProcess(c, 10)
		if err != nil {
			panic(err)
		}
		if got := p.ResidentPages(); got != 10+StackPages {
			t.Errorf("resident = %d, want %d", got, 10+StackPages)
		}
		if p.VMACount() != 2 {
			t.Errorf("vmas = %d, want 2 (image + stack)", p.VMACount())
		}
		if !p.Alive() {
			t.Error("fresh process not alive")
		}
	})
}

func TestDemandPaging(t *testing.T) {
	k, _ := newTestKernel()
	run(k, func(c *vclock.CPU) {
		p, err := k.NewProcess(c)
		if err != nil {
			panic(err)
		}
		base := p.Mmap(4)
		if p.ResidentPages() != 0 {
			t.Error("mmap should not populate pages")
		}
		p.Touch(base+2*arch.PageSize, true)
		if p.ResidentPages() != 1 {
			t.Errorf("resident = %d, want 1 (demand paging)", p.ResidentPages())
		}
		e, ok := p.GPT.Lookup(base + 2*arch.PageSize)
		if !ok || !e.Flags.Has(pagetable.Writable) {
			t.Errorf("mapped entry = %+v %v", e, ok)
		}
	})
}

func TestSegfaultReported(t *testing.T) {
	k, _ := newTestKernel()
	run(k, func(c *vclock.CPU) {
		p, err := k.NewProcess(c)
		if err != nil {
			panic(err)
		}
		if _, err := k.HandleFault(p, 0xdead0000, false); err == nil {
			t.Error("access outside any VMA did not error")
		}
	})
}

func TestForkSharesPagesCOW(t *testing.T) {
	k, _ := newTestKernel()
	run(k, func(c *vclock.CPU) {
		p, err := k.StartProcess(c, 4)
		if err != nil {
			panic(err)
		}
		child, err := p.Fork(nil)
		if err != nil {
			panic(err)
		}
		if child.PID == p.PID {
			t.Error("child shares pid")
		}
		// Same frames, both read-only.
		pe, _ := p.GPT.Lookup(ImageBase)
		ce, _ := child.GPT.Lookup(ImageBase)
		if pe.PFN != ce.PFN {
			t.Error("fork did not share frames")
		}
		if pe.Flags.Has(pagetable.Writable) || ce.Flags.Has(pagetable.Writable) {
			t.Error("COW pages still writable")
		}
		if rc := k.GPA.RefCount(pe.PFN); rc != 2 {
			t.Errorf("refcount = %d, want 2", rc)
		}
		// Parent write → copy; child keeps the old frame.
		p.Touch(ImageBase, true)
		pe2, _ := p.GPT.Lookup(ImageBase)
		if pe2.PFN == ce.PFN {
			t.Error("COW break did not copy")
		}
		if !pe2.Flags.Has(pagetable.Writable) {
			t.Error("parent's copy not writable")
		}
		if rc := k.GPA.RefCount(ce.PFN); rc != 1 {
			t.Errorf("old frame refcount = %d, want 1", rc)
		}
		if k.Procs() != 2 {
			t.Errorf("procs = %d, want 2", k.Procs())
		}
	})
}

func TestCOWLastOwnerReusesFrame(t *testing.T) {
	k, _ := newTestKernel()
	run(k, func(c *vclock.CPU) {
		p, err := k.StartProcess(c, 1)
		if err != nil {
			panic(err)
		}
		child, err := p.Fork(nil)
		if err != nil {
			panic(err)
		}
		if err := child.Exit(); err != nil {
			panic(err)
		}
		before, _ := p.GPT.Lookup(ImageBase)
		p.Touch(ImageBase, true)
		after, _ := p.GPT.Lookup(ImageBase)
		if after.PFN != before.PFN {
			t.Error("sole owner should re-enable write in place, not copy")
		}
		if !after.Flags.Has(pagetable.Writable) {
			t.Error("write not re-enabled")
		}
	})
}

func TestMunmapReleasesAndReports(t *testing.T) {
	k, f := newTestKernel()
	run(k, func(c *vclock.CPU) {
		p, err := k.NewProcess(c)
		if err != nil {
			panic(err)
		}
		base := p.Mmap(4)
		p.TouchRange(base, 4, true)
		inUse := k.GPA.InUse()
		if err := p.Munmap(base, 4); err != nil {
			panic(err)
		}
		if k.GPA.InUse() != inUse-4 {
			t.Error("frames not freed on munmap")
		}
		if len(f.released) != 4 {
			t.Errorf("released reports = %d, want 4", len(f.released))
		}
		if p.VMACount() != 0 {
			t.Error("vma not removed")
		}
		if err := p.Munmap(base, 4); err == nil {
			t.Error("double munmap did not error")
		}
	})
}

func TestMunmapPartial(t *testing.T) {
	k, _ := newTestKernel()
	run(k, func(c *vclock.CPU) {
		p, err := k.NewProcess(c)
		if err != nil {
			panic(err)
		}
		// Middle unmap splits the area in two; the remnants stay usable.
		base := p.Mmap(8)
		p.TouchRange(base, 8, true)
		if err := p.Munmap(base+2*arch.PageSize, 4); err != nil {
			t.Fatalf("middle munmap: %v", err)
		}
		if got := p.VMACount(); got != 2 {
			t.Errorf("vmas after split = %d, want 2", got)
		}
		if k.GPA.InUse() == 0 {
			t.Error("remnant frames should stay allocated")
		}
		p.TouchRange(base, 2, true)
		// Head and tail unmaps shrink the remnants away.
		if err := p.Munmap(base, 2); err != nil {
			t.Fatalf("head munmap: %v", err)
		}
		if err := p.Munmap(base+6*arch.PageSize, 2); err != nil {
			t.Fatalf("tail munmap: %v", err)
		}
		if got := p.VMACount(); got != 0 {
			t.Errorf("vmas after full removal = %d, want 0", got)
		}
		// Unmap retains intermediate table frames; only data frames go.
		if tables := int64(len(p.GPT.TableFrames())); k.GPA.InUse() != tables {
			t.Errorf("GPA frames leaked: %d in use, %d are tables", k.GPA.InUse(), tables)
		}
		// A range escaping the area is still rejected.
		b2 := p.Mmap(4)
		if err := p.Munmap(b2+2*arch.PageSize, 4); err == nil {
			t.Error("munmap escaping the area should be rejected")
		}
		if err := p.Munmap(b2, 0); err == nil {
			t.Error("empty munmap should be rejected")
		}
	})
}

func TestExitFreesEverything(t *testing.T) {
	k, _ := newTestKernel()
	run(k, func(c *vclock.CPU) {
		p, err := k.StartProcess(c, 8)
		if err != nil {
			panic(err)
		}
		base := p.Mmap(8)
		p.TouchRange(base, 8, true)
		if err := p.Exit(); err != nil {
			panic(err)
		}
		if p.Alive() {
			t.Error("process alive after exit")
		}
		if k.GPA.InUse() != 0 {
			t.Errorf("GPA frames leaked: %d", k.GPA.InUse())
		}
		if k.Procs() != 0 {
			t.Errorf("procs = %d, want 0", k.Procs())
		}
		if err := p.Exit(); err != nil {
			t.Errorf("double exit errored: %v", err)
		}
	})
}

func TestForkChildSurvivesParentExit(t *testing.T) {
	k, _ := newTestKernel()
	run(k, func(c *vclock.CPU) {
		p, err := k.StartProcess(c, 4)
		if err != nil {
			panic(err)
		}
		child, err := p.Fork(nil)
		if err != nil {
			panic(err)
		}
		if err := p.Exit(); err != nil {
			panic(err)
		}
		// Shared frames must survive via refcount.
		child.Touch(ImageBase, false)
		e, ok := child.GPT.Lookup(ImageBase)
		if !ok || k.GPA.RefCount(e.PFN) != 1 {
			t.Error("child's frames broken after parent exit")
		}
		if err := child.Exit(); err != nil {
			panic(err)
		}
		if k.GPA.InUse() != 0 {
			t.Errorf("leak after both exits: %d", k.GPA.InUse())
		}
	})
}

func TestFindVMA(t *testing.T) {
	k, _ := newTestKernel()
	run(k, func(c *vclock.CPU) {
		p, err := k.NewProcess(c)
		if err != nil {
			panic(err)
		}
		a := p.Mmap(2)
		b := p.Mmap(3)
		if v, ok := p.FindVMA(a); !ok || v.Start != a {
			t.Error("FindVMA missed first area")
		}
		if v, ok := p.FindVMA(b + 2*arch.PageSize); !ok || v.Start != b {
			t.Error("FindVMA missed interior of second area")
		}
		if _, ok := p.FindVMA(b + 3*arch.PageSize); ok {
			t.Error("FindVMA matched past the end")
		}
		if _, ok := p.FindVMA(0x100); ok {
			t.Error("FindVMA matched unmapped low address")
		}
	})
}

func TestSyscallCharging(t *testing.T) {
	k, f := newTestKernel()
	run(k, func(c *vclock.CPU) {
		p, err := k.NewProcess(c)
		if err != nil {
			panic(err)
		}
		start := c.Now()
		p.Getpid()
		if f.syscalls != 1 {
			t.Errorf("syscalls = %d, want 1", f.syscalls)
		}
		if c.Now() == start {
			t.Error("syscall cost not charged")
		}
	})
}

func TestMprotect(t *testing.T) {
	k, f := newTestKernel()
	run(k, func(c *vclock.CPU) {
		p, err := k.NewProcess(c)
		if err != nil {
			panic(err)
		}
		base := p.Mmap(4)
		p.TouchRange(base, 4, true)
		flushesBefore := f.flushes
		if err := p.Mprotect(base, 4, false); err != nil {
			panic(err)
		}
		e, _ := p.GPT.Lookup(base)
		if e.Flags.Has(pagetable.Writable) {
			t.Error("page still writable after mprotect(RO)")
		}
		if f.flushes != flushesBefore+1 {
			t.Errorf("flushes = %d, want one range flush", f.flushes-flushesBefore)
		}
		// Writing now faults as a protection fault and is rejected (the
		// VMA is read-only).
		if _, err := k.HandleFault(p, base, true); err == nil {
			t.Error("write to mprotected area should be refused")
		}
		// Re-enable and write again.
		if err := p.Mprotect(base, 4, true); err != nil {
			panic(err)
		}
		p.Touch(base, true)
		if err := p.Mprotect(base, 2, true); err == nil {
			t.Error("partial mprotect should be rejected")
		}
	})
}

func TestMprotectPreservesCOW(t *testing.T) {
	k, _ := newTestKernel()
	run(k, func(c *vclock.CPU) {
		p, err := k.StartProcess(c, 2)
		if err != nil {
			panic(err)
		}
		child, err := p.Fork(nil)
		if err != nil {
			panic(err)
		}
		// mprotect(RW) on the image must not make shared frames
		// writable in place.
		if err := p.Mprotect(ImageBase, 2, true); err != nil {
			panic(err)
		}
		e, _ := p.GPT.Lookup(ImageBase)
		if e.Flags.Has(pagetable.Writable) {
			t.Error("COW frame became writable without a copy")
		}
		p.Touch(ImageBase, true) // now COW-breaks properly
		pe, _ := p.GPT.Lookup(ImageBase)
		ce, _ := child.GPT.Lookup(ImageBase)
		if pe.PFN == ce.PFN {
			t.Error("COW break skipped")
		}
		if err := child.Exit(); err != nil {
			panic(err)
		}
	})
}

// newLimitedKernel is newTestKernel with a frame limit, so allocations can
// fail mid-operation.
func newLimitedKernel(limit int64) (*Kernel, *fakePlatform) {
	f := newFakePlatform()
	k := NewKernel(f, mem.NewAllocator("gpa", limit, 0x1000))
	f.kern = k
	return k, f
}

// TestForkUnwindLeaksNothing is the regression test for fork's mid-copy
// error paths: when the child's table-frame allocation fails partway, the
// half-built child GPT, its table frames, and the reference counts already
// taken must all be returned — in both the structural fast lane and the
// per-leaf reference lane. The limit sweep starts at the baseline footprint
// plus one frame and walks upward so the failure lands at every stage of
// the copy (first table, mid-leaves, deep subtree).
func TestForkUnwindLeaksNothing(t *testing.T) {
	const imagePages = 40
	// Baseline footprint: a kernel with one resident process.
	base, _ := newTestKernel()
	var inUse int64
	run(base, func(c *vclock.CPU) {
		p, err := base.StartProcess(c, imagePages)
		if err != nil {
			t.Error(err)
			return
		}
		_ = p
		inUse = base.GPA.InUse()
	})
	for _, lane := range []struct {
		name    string
		perLeaf bool
	}{{"structural", false}, {"per-leaf", true}} {
		t.Run(lane.name, func(t *testing.T) {
			if lane.perLeaf {
				SetLifecycleBypass(true)
				defer SetLifecycleBypass(false)
			}
			failed := false
			for extra := int64(1); extra <= 6; extra++ {
				k, _ := newLimitedKernel(inUse + extra)
				run(k, func(c *vclock.CPU) {
					p, err := k.StartProcess(c, imagePages)
					if err != nil {
						t.Errorf("extra=%d: StartProcess: %v", extra, err)
						return
					}
					before := k.GPA.InUse()
					child, err := p.Fork(nil)
					if err == nil {
						// Enough headroom: the fork must be complete and
						// coherent instead.
						if child.ResidentPages() != p.ResidentPages() {
							t.Errorf("extra=%d: child resident %d != parent %d",
								extra, child.ResidentPages(), p.ResidentPages())
						}
						if err := child.Exit(); err != nil {
							t.Errorf("extra=%d: child exit: %v", extra, err)
						}
						return
					}
					failed = true
					if after := k.GPA.InUse(); after != before {
						t.Errorf("extra=%d: failed fork leaked %d frames (%d -> %d)",
							extra, after-before, before, after)
					}
					// The parent must remain fully usable: COW protections
					// left behind resolve as sole-owner re-enables.
					p.TouchRange(ImageBase, imagePages, true)
					if err := p.Exit(); err != nil {
						t.Errorf("extra=%d: parent exit after failed fork: %v", extra, err)
					}
					if leftover := k.GPA.InUse(); leftover != 0 {
						t.Errorf("extra=%d: %d frames leaked after parent exit", extra, leftover)
					}
				})
			}
			if !failed {
				t.Fatal("no fork in the limit sweep failed; regression test is vacuous")
			}
		})
	}
}

// TestForkUnwindSharedFrames drives the unwind across a fork chain, where
// the taken reference counts are on frames already shared with an earlier
// child: the unwind must decrement them back without releasing them.
func TestForkUnwindSharedFrames(t *testing.T) {
	const imagePages = 24
	base, _ := newTestKernel()
	var inUse int64
	run(base, func(c *vclock.CPU) {
		p, err := base.StartProcess(c, imagePages)
		if err != nil {
			t.Error(err)
			return
		}
		c1, err := p.Fork(nil)
		if err != nil {
			t.Error(err)
			return
		}
		_ = c1
		inUse = base.GPA.InUse()
	})
	failed := false
	for extra := int64(1); extra <= 4; extra++ {
		k, _ := newLimitedKernel(inUse + extra)
		run(k, func(c *vclock.CPU) {
			p, err := k.StartProcess(c, imagePages)
			if err != nil {
				t.Errorf("extra=%d: %v", extra, err)
				return
			}
			c1, err := p.Fork(nil)
			if err != nil {
				t.Errorf("extra=%d: first fork: %v", extra, err)
				return
			}
			before := k.GPA.InUse()
			sample, _ := p.GPT.Lookup(ImageBase)
			rcBefore := k.GPA.RefCount(sample.PFN)
			c2, err := p.Fork(nil) // second fork: rc would go 2 -> 3
			if err == nil {
				if err := c2.Exit(); err != nil {
					t.Errorf("extra=%d: %v", extra, err)
				}
				return
			}
			failed = true
			if after := k.GPA.InUse(); after != before {
				t.Errorf("extra=%d: failed fork leaked %d frames", extra, after-before)
			}
			if rc := k.GPA.RefCount(sample.PFN); rc != rcBefore {
				t.Errorf("extra=%d: shared frame rc %d after unwind, want %d", extra, rc, rcBefore)
			}
			if err := c1.Exit(); err != nil {
				t.Errorf("extra=%d: %v", extra, err)
			}
			if err := p.Exit(); err != nil {
				t.Errorf("extra=%d: %v", extra, err)
			}
			if leftover := k.GPA.InUse(); leftover != 0 {
				t.Errorf("extra=%d: %d frames leaked after exits", extra, leftover)
			}
		})
	}
	if !failed {
		t.Fatal("no second fork in the limit sweep failed; regression test is vacuous")
	}
}

// TestMunmapUnwindLeaksNothing sweeps allocator limits so demand population
// of an area aborts at every stage — mid-leaf-table, at a leaf-table
// boundary (where the fault's own table-frame allocation fails), deep into
// the second table — and then munmaps the partially populated area.
// Whatever the population managed to build, the unmap must release exactly
// the present frames (whole-area and split/shrink cuts alike), and process
// exit must return the allocator to empty: no leaked frames, no stray
// refcounts. The subtest is named for the munmap lane it drives: the loop
// that unmaps one page at a time.
func TestMunmapUnwindLeaksNothing(t *testing.T) {
	const imagePages = 8
	const areaPages = 600 // spans two leaf tables
	// Baseline footprint: process resident, area mapped but cold.
	base, _ := newTestKernel()
	var inUse int64
	run(base, func(c *vclock.CPU) {
		p, err := base.StartProcess(c, imagePages)
		if err != nil {
			t.Error(err)
			return
		}
		p.Mmap(areaPages)
		inUse = base.GPA.InUse()
	})
	t.Run("per-page", func(t *testing.T) {
		aborted := false
		for extra := int64(0); extra <= 8; extra++ {
			k, _ := newLimitedKernel(inUse + extra)
			run(k, func(c *vclock.CPU) {
				p, err := k.StartProcess(c, imagePages)
				if err != nil {
					t.Errorf("extra=%d: StartProcess: %v", extra, err)
					return
				}
				area := p.Mmap(areaPages)
				faulted := 0
				for i := 0; i < areaPages; i++ {
					if _, err := k.HandleFault(p, area+arch.VA(i)*arch.PageSize, true); err != nil {
						aborted = true
						break
					}
					faulted++
				}
				populated := k.GPA.InUse()
				// A middle cut first (split/shrink bookkeeping over the
				// half-built area), then the remnants.
				cut, cutPages := area+150*arch.PageSize, 300
				freedByCut := 0
				for i := 0; i < cutPages; i++ {
					if _, ok := p.GPT.Lookup(cut + arch.VA(i)*arch.PageSize); ok {
						freedByCut++
					}
				}
				if err := p.Munmap(cut, cutPages); err != nil {
					t.Errorf("extra=%d: middle munmap: %v", extra, err)
					return
				}
				if got, want := k.GPA.InUse(), populated-int64(freedByCut); got != want {
					t.Errorf("extra=%d: InUse %d after middle cut, want %d", extra, got, want)
				}
				if err := p.Munmap(area, 150); err != nil {
					t.Errorf("extra=%d: head munmap: %v", extra, err)
					return
				}
				if err := p.Munmap(area+450*arch.PageSize, 150); err != nil {
					t.Errorf("extra=%d: tail munmap: %v", extra, err)
					return
				}
				if got, want := k.GPA.InUse(), populated-int64(faulted); got != want {
					t.Errorf("extra=%d: InUse %d after full unmap, want %d (faulted %d)",
						extra, got, want, faulted)
				}
				if err := p.Exit(); err != nil {
					t.Errorf("extra=%d: exit: %v", extra, err)
					return
				}
				if leftover := k.GPA.InUse(); leftover != 0 {
					t.Errorf("extra=%d: %d frames leaked after exit", extra, leftover)
				}
			})
		}
		if !aborted {
			t.Fatal("no population in the limit sweep aborted; regression test is vacuous")
		}
	})
}
