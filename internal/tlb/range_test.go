package tlb

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
)

// TestPackUnpackRoundTrip covers both halves of the 48-bit address space:
// the packed tag must be lossless for every canonical VPN.
func TestPackUnpackRoundTrip(t *testing.T) {
	vas := []arch.VA{
		0,
		0x1000,
		arch.KernelSpaceStart - arch.PageSize, // top of the user half
		arch.KernelSpaceStart,                 // bottom of the kernel half
		arch.VA(0xffff_ffff_f000),             // top of the 48-bit space
		arch.VA(0x1234_5678_9000),             // arbitrary user page
		arch.VA(0x8abc_def0_1000),             // arbitrary kernel page
	}
	for _, va := range vas {
		if !va.Canonical() {
			t.Fatalf("test VA %#x is not canonical", uint64(va))
		}
		for _, vpid := range []arch.VPID{0, 1, 7, 1<<16 - 1} {
			for _, pcid := range []arch.PCID{0, 1, 63, 4095} {
				k := pack(vpid, pcid, va.PageNumber())
				got := unpack(k)
				want := Key{VPID: vpid, PCID: pcid, VPN: va.PageNumber()}
				if got != want {
					t.Fatalf("pack/unpack(%#x): got %+v want %+v", uint64(va), got, want)
				}
			}
		}
	}
}

func TestPackPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("pack accepted a PCID beyond 12 bits")
		}
	}()
	pack(1, arch.PCID(1<<pcidBits), 0)
}

// TestLookupRangeMatchesPerPage drives two identical TLBs through a long
// randomized schedule of inserts, flushes, and probes — one using
// LookupRange, the other an explicit per-page Lookup loop — and requires
// identical hit counts, statistics, occupancy, and entry-by-entry state.
// This is the unit-level half of the batched-path equivalence guarantee.
func TestLookupRangeMatchesPerPage(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := New(64)
	b := New(64)

	perPageRange := func(tb *TLB, vpid arch.VPID, pcid arch.PCID, va arch.VA, pages int, write bool) int {
		for n := 0; n < pages; n++ {
			if _, ok := tb.Lookup(vpid, pcid, va+arch.VA(n)<<arch.PageShift, write); !ok {
				return n
			}
		}
		return pages
	}

	for step := 0; step < 20000; step++ {
		vpid := arch.VPID(rng.Intn(3))
		pcid := arch.PCID(rng.Intn(3))
		va := arch.VA(rng.Intn(128)) << arch.PageShift
		switch op := rng.Intn(10); {
		case op < 4: // ranged probe
			pages := 1 + rng.Intn(16)
			write := rng.Intn(2) == 0
			na := a.LookupRange(vpid, pcid, va, pages, write)
			nb := perPageRange(b, vpid, pcid, va, pages, write)
			if na != nb {
				t.Fatalf("step %d: LookupRange=%d per-page=%d", step, na, nb)
			}
		case op < 7: // insert
			e := Entry{PFN: arch.PFN(rng.Intn(1 << 20)), Write: rng.Intn(2) == 0}
			a.Insert(vpid, pcid, va, e)
			b.Insert(vpid, pcid, va, e)
		case op < 8:
			a.FlushPage(vpid, pcid, va)
			b.FlushPage(vpid, pcid, va)
		case op < 9:
			a.FlushPCID(vpid, pcid)
			b.FlushPCID(vpid, pcid)
		default:
			a.FlushVPID(vpid)
			b.FlushVPID(vpid)
		}
		if a.Stats() != b.Stats() {
			t.Fatalf("step %d: stats diverged: %+v vs %+v", step, a.Stats(), b.Stats())
		}
		if a.Len() != b.Len() {
			t.Fatalf("step %d: occupancy diverged: %d vs %d", step, a.Len(), b.Len())
		}
	}

	// Final deep check: identical entries and identical LRU order.
	for i, j := a.head, b.head; ; i, j = a.nodes[i].next, b.nodes[j].next {
		if (i == none) != (j == none) {
			t.Fatal("LRU chains have different lengths")
		}
		if i == none {
			break
		}
		if a.nodes[i].key != b.nodes[j].key || a.nodes[i].ent != b.nodes[j].ent {
			t.Fatalf("LRU chains diverge: %v/%v vs %v/%v",
				unpack(a.nodes[i].key), a.nodes[i].ent, unpack(b.nodes[j].key), b.nodes[j].ent)
		}
	}
}
