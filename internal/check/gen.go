package check

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/backend"
	"repro/internal/cost"
)

// rng is a splitmix64 sequence: a tiny, stable PRNG whose output for a given
// seed is fixed forever (unlike math/rand, whose streams may change across
// releases), so every corpus seed stays replayable.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// between returns a value in [lo, hi].
func (r *rng) between(lo, hi int) int { return lo + r.intn(hi-lo+1) }

// chance reports true with probability pct/100.
func (r *rng) chance(pct int) bool { return r.intn(100) < pct }

// OpKind enumerates the generated workload operations.
type OpKind uint8

const (
	OpMmap OpKind = iota
	OpMunmap
	OpTouch
	OpTouchRange
	OpMprotect
	OpFork
	OpExec
	OpSyscall
	OpCompute
	OpPriv
	OpBlockIO
	OpNetIO
	OpInterrupt
	// OpCheckpoint runs the structural invariant auditors (and, per
	// variant, the injected faults) at this point in the program.
	OpCheckpoint
)

// Op is one generated workload operation. Region-relative fields (Sel, Off,
// Len) are reduced against the live region list at interpretation time, so
// an op stream stays valid for any region history.
type Op struct {
	Kind   OpKind
	Pages  int   // mmap/exec size
	Sel    int   // region selector (mod live region count)
	Off    int   // page offset selector (mod region size)
	Len    int   // range length selector
	Write  bool  // touch writes / mprotect target permission
	Arg    int64 // syscall body, compute ns, or I/O bytes
	N      int   // I/O burst size
	Priv   arch.PrivOp
	Vector uint8
	Child  []Op // fork: the child's program, run to completion before the parent resumes
}

// Worker is one vCPU's workload: a process started at a virtual time with a
// warmed image, running a generated op stream.
type Worker struct {
	Start      int64
	ImagePages int
	Ops        []Op
}

// Program is a fully generated scenario: deployment configuration, options,
// cost parameters, and one Worker per vCPU.
type Program struct {
	Seed    uint64
	Label   string
	Cfg     backend.Config
	Opt     backend.Options
	Prm     cost.Params
	Workers []Worker
}

// backendChoice pairs a Config with the DirectPaging toggle, spanning all
// five MMU strategies across bare-metal and nested deployments.
var backendChoices = []struct {
	name   string
	cfg    backend.Config
	direct bool
}{
	{"ept-bm", backend.KVMEPTBM, false},
	{"spt-bm", backend.KVMSPTBM, false},
	{"pvm-bm", backend.PVMBM, false},
	{"pvm-direct-bm", backend.PVMBM, true},
	{"ept-nst", backend.KVMEPTNST, false},
	{"spt-nst", backend.SPTEPTNST, false},
	{"pvm-nst", backend.PVMNST, false},
	{"pvm-direct-nst", backend.PVMNST, true},
}

// genTLBGeometries are the simulated TLB sizes the generator picks from:
// tiny (eviction-heavy), medium, and the paper default.
var genTLBGeometries = []int{64, 256, 1536}

// Generate derives the complete scenario for seed. The derivation consumes
// the PRNG in a fixed order, so the same seed always yields the same
// Program.
func Generate(seed uint64) *Program {
	r := newRNG(seed)
	bc := backendChoices[r.intn(len(backendChoices))]

	opt := backend.DefaultOptions()
	opt.DirectPaging = bc.direct
	opt.TraceEvents = 1 << 15
	opt.TLBEntries = genTLBGeometries[r.intn(len(genTLBGeometries))]
	opt.KPTI = r.chance(80)
	opt.DirectSwitch = r.chance(80)
	opt.Prefault = r.chance(80)
	opt.PCIDMap = r.chance(80)
	opt.FineLock = r.chance(80)
	opt.VMCSShadowing = r.chance(80)
	opt.SwitcherFaultClassify = r.chance(20)
	opt.CollaborativeSync = r.chance(20)
	opt.HugePagesEPT = r.chance(15)
	opt.Cores = []int{0, 0, 1, 2, 4}[r.intn(5)]

	// Cost ablations: scale a handful of choreography costs so the corpus
	// covers parameter-sensitive orderings (lock handoffs, shootdown
	// overlap), not just the calibrated defaults.
	prm := cost.Default()
	if r.chance(25) {
		prm.SwitchHW *= int64(r.between(2, 4))
	}
	if r.chance(25) {
		prm.SPTEmulWrite *= int64(r.between(2, 4))
	}
	if r.chance(25) {
		prm.ShootdownIPI *= int64(r.between(2, 8))
	}
	if r.chance(25) {
		prm.TLBRefill2D = prm.TLBRefill2D/2 + 1
	}
	if r.chance(25) {
		prm.FrameAlloc *= 2
	}

	workers := r.between(1, 3)
	p := &Program{
		Seed: seed,
		Cfg:  bc.cfg,
		Opt:  opt,
		Prm:  prm,
	}
	p.Label = fmt.Sprintf("%s/tlb=%d/vcpus=%d/cores=%d", bc.name, opt.TLBEntries, workers, opt.Cores)
	for i := 0; i < workers; i++ {
		p.Workers = append(p.Workers, Worker{
			Start:      int64(r.intn(3)) * 700,
			ImagePages: r.between(4, 16),
			Ops:        genOps(r, r.between(30, 80), 0),
		})
	}
	return p
}

// genOps emits n operations (plus interleaved checkpoints and a final one).
// depth bounds fork nesting.
func genOps(r *rng, n, depth int) []Op {
	var ops []Op
	for i := 0; i < n; i++ {
		switch w := r.intn(100); {
		case w < 14:
			ops = append(ops, Op{Kind: OpMmap, Pages: r.between(1, 40)})
		case w < 34:
			ops = append(ops, Op{
				Kind: OpTouchRange, Sel: r.intn(1 << 16), Off: r.intn(1 << 16),
				Len: r.intn(1 << 16), Write: r.chance(60),
			})
		case w < 48:
			ops = append(ops, Op{
				Kind: OpTouch, Sel: r.intn(1 << 16), Off: r.intn(1 << 16),
				Write: r.chance(50),
			})
		case w < 58:
			// Munmap and mprotect carry extra weight so the fuzz window
			// keeps the per-page mutation sweeps hot; Off/Len select the
			// partial unmap range (Len%4 == 0 → whole region).
			ops = append(ops, Op{
				Kind: OpMunmap, Sel: r.intn(1 << 16), Off: r.intn(1 << 16),
				Len: r.intn(1 << 16),
			})
		case w < 68:
			ops = append(ops, Op{Kind: OpMprotect, Sel: r.intn(1 << 16), Write: r.chance(50)})
		case w < 76:
			// Fork and exec carry more weight since PR 8 so the nightly
			// fuzz window keeps the process-lifecycle fast lane hot.
			if depth < 2 {
				ops = append(ops, Op{Kind: OpFork, Child: genOps(r, r.between(6, 14), depth+1)})
			} else {
				ops = append(ops, Op{Kind: OpSyscall, Arg: int64(r.between(0, 2000))})
			}
		case w < 79:
			ops = append(ops, Op{Kind: OpExec, Pages: r.between(2, 8)})
		case w < 84:
			ops = append(ops, Op{Kind: OpSyscall, Arg: int64(r.between(0, 2000))})
		case w < 88:
			ops = append(ops, Op{Kind: OpCompute, Arg: int64(r.between(100, 5000))})
		case w < 93:
			// OpHLT is excluded: Halt parks the vCPU, which is a
			// liveness question, not a translation one.
			privs := []arch.PrivOp{
				arch.OpHypercall, arch.OpException, arch.OpMSRAccess,
				arch.OpCPUID, arch.OpPIO, arch.OpIret, arch.OpWriteCR3,
			}
			ops = append(ops, Op{Kind: OpPriv, Priv: privs[r.intn(len(privs))]})
		case w < 95:
			ops = append(ops, Op{Kind: OpBlockIO, N: r.between(1, 4), Arg: int64(r.between(512, 16384))})
		case w < 97:
			ops = append(ops, Op{Kind: OpNetIO, N: r.between(1, 4), Arg: int64(r.between(64, 1500))})
		default:
			ops = append(ops, Op{Kind: OpInterrupt, Vector: uint8(r.between(32, 255))})
		}
		if r.chance(12) {
			ops = append(ops, Op{Kind: OpCheckpoint})
		}
	}
	return append(ops, Op{Kind: OpCheckpoint})
}
