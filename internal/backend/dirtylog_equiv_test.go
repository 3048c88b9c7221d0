package backend_test

import (
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/backend"
	"repro/internal/check"
	"repro/internal/guest"
	"repro/internal/vclock"
)

// The dirty-log equivalence grid pins dirty-page logging's central claim:
// the write-protect lane (spt, pvm, pvmdirect) and the PML lane (ept,
// eptnested) observe the exact same dirty sets for the same guest workload,
// epoch by epoch, and those sets are the right ones. Four checks per cell:
//
//   1. Known answer: the kvm-ept (BM) reference run collects each
//      workload's expected page count per epoch. Comparing lanes with each
//      other, or with A/D bits, cannot catch a loss every lane shares — a
//      write that hits a writable TLB entry sets no D bit either.
//   2. Cross-backend: every configuration's per-epoch dirty sets equal the
//      reference run's.
//   3. A/D oracle (EPT lanes only, where the hardware maintains guest-table
//      dirty bits): each epoch's collected set equals a reference
//      ScanClearDirty harvest of the guest table.
//   4. Disarmed determinism: with the logging code compiled in but never
//      armed, runs stay bit-identical (clocks, metrics, trace digest) and
//      the dirty counters stay zero — the committed results_default.txt
//      byte-equality in CI is the system-level form of this check.
//
// Workload structure: flag-replacing guest operations (mprotect, fork's COW
// protect) run immediately after an epoch boundary, when the dirty set has
// been harvested and the oracle's D bits cleared — pagetable.Protect
// replaces flags wholesale, so interleaving it with pending dirty state
// would (correctly) diverge the oracle, which models exactly the hazard a
// real PML-based collector has with guests that recycle PTEs mid-epoch.

// dirtyWorkloads drive writes through the paths that differ across lanes:
// demand-zero streams larger than the PML ring (forced ring-full drains),
// COW breaks and re-protect faults, mprotect write-permission cycling,
// munmap/refault, and writes over read-installed translations. Each calls
// epoch() at its collection boundaries; want is the page count each epoch
// must collect.
var dirtyWorkloads = []struct {
	name string
	want []int
	body func(p *guest.Process, epoch func())
}{
	{"mmap-stream", []int{600, 200}, func(p *guest.Process, epoch func()) {
		// 600 write faults > pmlRingSize: the PML lane must drain
		// mid-epoch and still report the same set.
		const n = 600
		base := p.Mmap(n)
		p.TouchRange(base, n, true)
		epoch()
		p.TouchRange(base, 200, true)
		p.TouchRange(base+300*arch.PageSize, 100, false) // reads never dirty
		epoch()
	}},
	{"cow-fork", []int{96, 96}, func(p *guest.Process, epoch func()) {
		const n = 96
		base := p.Mmap(n)
		p.TouchRange(base, n, true)
		epoch()
		child, err := p.Fork(nil)
		if err != nil {
			panic(err)
		}
		child.TouchRange(base, 48, true) // child COW breaks: not logged (child unarmed)
		if err := child.Exit(); err != nil {
			panic(err)
		}
		p.TouchRange(base, n, true) // parent re-protect faults
		epoch()
	}},
	{"mprotect", []int{256, 0, 128}, func(p *guest.Process, epoch func()) {
		const n = 256
		base := p.Mmap(n)
		p.TouchRange(base, n, true)
		epoch()
		if err := p.Mprotect(base, n, false); err != nil {
			panic(err)
		}
		p.TouchRange(base, n, false)
		epoch() // empty: reads under a read-only mapping
		if err := p.Mprotect(base, n, true); err != nil {
			panic(err)
		}
		p.TouchRange(base, n/2, true)
		epoch()
	}},
	{"munmap-refault", []int{128, 128}, func(p *guest.Process, epoch func()) {
		const n = 128
		base := p.Mmap(n)
		p.TouchRange(base, n, true)
		epoch()
		if err := p.Munmap(base, n); err != nil {
			panic(err)
		}
		base2 := p.Mmap(n)
		p.TouchRange(base2, n, true)
		p.TouchRange(base2, n, true) // second pass: TLB write hits, no re-marks
		epoch()                      // only the new area's pages
	}},
	{"read-then-write", []int{64}, func(p *guest.Process, epoch func()) {
		// Demand-zero read faults install writable leaves. Only the
		// insert gate (Guest.refill) keeps the read misses' TLB entries
		// read-only, so the writes miss and are logged instead of
		// hitting unlogged.
		const n = 64
		base := p.Mmap(n)
		p.TouchRange(base, n, false)
		p.TouchRange(base, n, true)
		epoch()
	}},
}

// runDirtyLog runs one workload with logging armed, collecting each epoch's
// dirty set; when oracle is set (EPT lanes), each epoch is also harvested
// from the guest table's hardware-maintained dirty bits. The process audit,
// with its dirty-log TLB check, runs at every boundary both before the
// harvest, whose TLB flush would remove a writable entry the epoch missed,
// and after it.
func runDirtyLog(t *testing.T, cfg backend.Config, opt backend.Options,
	body func(p *guest.Process, epoch func()), oracle bool) (sets, ref [][]arch.VA) {
	t.Helper()
	opt.TraceEvents = 1 << 15
	s := backend.NewSystem(cfg, opt)
	g, err := s.NewGuest("g0")
	if err != nil {
		t.Fatal(err)
	}
	s.Eng.Go(0, func(c *vclock.CPU) {
		p, err := g.Kern.StartProcess(c, 8)
		if err != nil {
			panic(err)
		}
		p.StartDirtyLog()
		if oracle {
			// Zero the A/D baseline: image/stack touches predate the arm.
			p.GPT.ScanClearDirty(func(arch.VA) {})
		}
		audit := func() {
			if err := g.AuditProcess(p); err != nil {
				panic(err)
			}
		}
		epoch := func() {
			audit()
			sets = append(sets, p.CollectDirty())
			if oracle {
				var o []arch.VA
				p.GPT.ScanClearDirty(func(va arch.VA) { o = append(o, va) })
				ref = append(ref, o)
			}
			audit()
		}
		body(p, epoch)
		p.StopDirtyLog()
		if err := p.Exit(); err != nil {
			panic(err)
		}
	})
	s.Eng.Wait()
	if err := s.Eng.Err(); err != nil {
		t.Fatal(err)
	}
	return sets, ref
}

// vaSetsEqual compares two epoch sequences of sorted VA sets.
func vaSetsEqual(a, b [][]arch.VA) string {
	if len(a) != len(b) {
		return fmt.Sprintf("epoch count %d vs %d", len(a), len(b))
	}
	for e := range a {
		if len(a[e]) != len(b[e]) {
			return fmt.Sprintf("epoch %d: %d pages vs %d", e, len(a[e]), len(b[e]))
		}
		for i := range a[e] {
			if a[e][i] != b[e][i] {
				return fmt.Sprintf("epoch %d entry %d: %#x vs %#x", e, i, a[e][i], b[e][i])
			}
		}
	}
	return ""
}

// pmlLane reports whether cfg logs via hardware PML with guest-visible A/D
// bits (the configurations the ScanClearDirty oracle is valid on).
func pmlLane(cfg backend.Config) bool {
	return cfg == backend.KVMEPTBM || cfg == backend.KVMEPTNST
}

// TestDirtyLogEquivalence is the full grid: every configuration × workload,
// pinned against the kvm-ept (BM) reference sets and (on EPT lanes) the
// per-page A/D harvest; the reference sets are pinned against the
// workload's known per-epoch counts.
func TestDirtyLogEquivalence(t *testing.T) {
	for _, wl := range dirtyWorkloads {
		// Reference lane: kvm-ept (BM), with its known answer and its own
		// oracle check.
		refSets, refAD := runDirtyLog(t, backend.KVMEPTBM, backend.DefaultOptions(), wl.body, true)
		got := make([]int, len(refSets))
		for e, set := range refSets {
			got[e] = len(set)
		}
		if fmt.Sprint(got) != fmt.Sprint(wl.want) {
			t.Fatalf("kvm-ept (BM)/%s: collected %v pages per epoch, want %v", wl.name, got, wl.want)
		}
		if d := vaSetsEqual(refSets, refAD); d != "" {
			t.Errorf("kvm-ept (BM)/%s: PML lane vs A/D oracle: %s", wl.name, d)
		}
		for _, cfg := range backend.Configs() {
			if cfg == backend.KVMEPTBM {
				continue
			}
			t.Run(fmt.Sprintf("%v/%s", cfg, wl.name), func(t *testing.T) {
				sets, ad := runDirtyLog(t, cfg, backend.DefaultOptions(), wl.body, pmlLane(cfg))
				if d := vaSetsEqual(sets, refSets); d != "" {
					t.Errorf("dirty sets diverge from kvm-ept (BM): %s", d)
				}
				if pmlLane(cfg) {
					if d := vaSetsEqual(sets, ad); d != "" {
						t.Errorf("PML lane vs A/D oracle: %s", d)
					}
				}
			})
		}
	}
}

// TestDirtyLogEquivalenceAblations re-runs the grid under each ablation —
// including the fifth backend (direct paging) and 2 MiB EPT backing (the
// large-page cells: guest tables stay 4 KiB, the host lane changes).
func TestDirtyLogEquivalenceAblations(t *testing.T) {
	for _, wl := range dirtyWorkloads {
		refSets, _ := runDirtyLog(t, backend.KVMEPTBM, backend.DefaultOptions(), wl.body, false)
		for _, v := range ablations {
			t.Run(fmt.Sprintf("%s/%s", v.name, wl.name), func(t *testing.T) {
				sets, ad := runDirtyLog(t, v.cfg, v.opt, wl.body, pmlLane(v.cfg))
				if d := vaSetsEqual(sets, refSets); d != "" {
					t.Errorf("dirty sets diverge from default kvm-ept (BM): %s", d)
				}
				if pmlLane(v.cfg) {
					if d := vaSetsEqual(sets, ad); d != "" {
						t.Errorf("PML lane vs A/D oracle: %s", d)
					}
				}
			})
		}
	}
}

// TestDirtyLogDisarmedBitIdentical pins the zero-cost-when-off property:
// with the logging machinery compiled in but never armed, two runs of the
// same workload are bit-identical and every dirty counter is zero.
func TestDirtyLogDisarmedBitIdentical(t *testing.T) {
	run := func(cfg backend.Config) check.Observation {
		opt := backend.DefaultOptions()
		opt.TraceEvents = 1 << 15
		s := backend.NewSystem(cfg, opt)
		g, err := s.NewGuest("g0")
		if err != nil {
			t.Fatal(err)
		}
		s.Eng.Go(0, func(c *vclock.CPU) {
			p, err := g.Kern.StartProcess(c, 8)
			if err != nil {
				panic(err)
			}
			for _, wl := range dirtyWorkloads {
				wl.body(p, func() {}) // epoch boundaries are no-ops: never armed
			}
			if err := p.Exit(); err != nil {
				panic(err)
			}
		})
		s.Eng.Wait()
		if err := s.Eng.Err(); err != nil {
			t.Fatal(err)
		}
		return check.Capture(s)
	}
	for _, cfg := range backend.Configs() {
		t.Run(cfg.String(), func(t *testing.T) {
			a := run(cfg)
			b := run(cfg)
			if d := check.Diff(a, b); d != "" {
				t.Errorf("disarmed runs diverged: %s", d)
			}
			if a.Metrics.DirtyMarks != 0 || a.Metrics.DirtyPMLDrains != 0 ||
				a.Metrics.DirtyEpochs != 0 || a.Metrics.DirtyPagesCollected != 0 {
				t.Errorf("disarmed run moved dirty counters: %+v", a.Metrics)
			}
		})
	}
}
