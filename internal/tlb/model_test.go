package tlb

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/arch"
)

// refTLB is the reference model the TLB is diffed against: a map of cached
// entries plus an explicit LRU slice, most recently used first. Every
// operation is the plain reading of the TLB's documented semantics, with no
// index, no arena and no free list.
type refTLB struct {
	capacity int
	ents     map[Key]Entry
	lru      []Key
	stats    Stats
}

func newRefTLB(capacity int) *refTLB {
	return &refTLB{capacity: capacity, ents: map[Key]Entry{}}
}

func (r *refTLB) pos(k Key) int {
	for i, x := range r.lru {
		if x == k {
			return i
		}
	}
	return -1
}

func (r *refTLB) toFront(k Key) {
	i := r.pos(k)
	copy(r.lru[1:i+1], r.lru[:i])
	r.lru[0] = k
}

func (r *refTLB) drop(k Key) {
	i := r.pos(k)
	r.lru = append(r.lru[:i], r.lru[i+1:]...)
	delete(r.ents, k)
}

func (r *refTLB) lookup(k Key, write bool) (Entry, bool) {
	e, ok := r.ents[k]
	if !ok || write && !e.Write {
		r.stats.Misses++
		return Entry{}, false
	}
	r.toFront(k)
	r.stats.Hits++
	return e, true
}

func (r *refTLB) lookupRange(k Key, pages int, write bool) int {
	n := 0
	for ; n < pages; n++ {
		p := Key{VPID: k.VPID, PCID: k.PCID, VPN: k.VPN + uint64(n)}
		e, ok := r.ents[p]
		if !ok || write && !e.Write {
			break
		}
		r.toFront(p)
	}
	r.stats.Hits += int64(n)
	if n < pages {
		r.stats.Misses++
	}
	return n
}

func (r *refTLB) insert(k Key, e Entry) {
	if _, ok := r.ents[k]; ok {
		r.ents[k] = e
		r.toFront(k)
		return
	}
	if len(r.ents) == r.capacity {
		r.drop(r.lru[len(r.lru)-1])
		r.stats.Evictions++
	}
	r.ents[k] = e
	r.lru = append([]Key{k}, r.lru...)
	r.stats.Inserts++
}

func (r *refTLB) flushPage(k Key) {
	r.stats.FlushPage++
	if _, ok := r.ents[k]; ok {
		r.drop(k)
		r.stats.FlushedEnts++
	}
}

// release empties the model without counting a flush.
func (r *refTLB) release() {
	r.ents = map[Key]Entry{}
	r.lru = nil
}

func (r *refTLB) flushWhere(pred func(Key, Entry) bool) int {
	var victims []Key
	for _, k := range r.lru {
		if pred(k, r.ents[k]) {
			victims = append(victims, k)
		}
	}
	for _, k := range victims {
		r.drop(k)
	}
	r.stats.FlushedEnts += int64(len(victims))
	return len(victims)
}

// modelTags returns a tag pool for a capacity and a tag-set kind:
//   - "dense": three VPIDs × three PCIDs over 2×capacity+16 consecutive
//     VPNs, so ranged ops cover runs of cached pages;
//   - "one-home": tags that all hash to the index's last slot, so their
//     probe cluster wraps past the end of the index;
//   - "end-homes": tags hashing to the last four slots, so several clusters
//     merge and wrap.
//
// Colliding pools hold 3×capacity+8 tags, enough to force evictions.
func modelTags(capacity int, kind string) []Key {
	var tags []Key
	if kind == "dense" {
		for vpid := arch.VPID(0); vpid < 3; vpid++ {
			for pcid := arch.PCID(0); pcid < 3; pcid++ {
				for vpn := 0; vpn < 2*capacity+16; vpn++ {
					tags = append(tags, Key{VPID: vpid, PCID: pcid, VPN: uint64(vpn)})
				}
			}
		}
		return tags
	}
	geo := New(capacity)
	geo.allocate()
	last := len(geo.index) - 1
	lowest := last
	if kind == "end-homes" {
		lowest = last - 3
		if lowest < 0 {
			lowest = 0
		}
	}
	for vpn := uint64(0); len(tags) < 3*capacity+8; vpn++ {
		k := Key{VPID: arch.VPID(vpn % 2), PCID: arch.PCID(vpn % 3), VPN: vpn}
		if geo.home(pack(k.VPID, k.PCID, k.VPN)) >= lowest {
			tags = append(tags, k)
		}
	}
	return tags
}

// TestTLBMatchesReferenceModel drives the TLB and the reference model
// through long random schedules of every operation — Lookup, LookupRange,
// Insert (hits, fills and evictions), FlushPage, FlushPCID, FlushVPID,
// FlushAll and Release — and after every step requires identical return
// values, Stats, Len and Range order. Capacities cover the degenerate
// single-entry TLB, odd sizes, and the default 1536; tag sets cover dense
// runs and tags whose probe clusters pile onto one home slot or wrap past
// the end of the index, where backward-shift deletion does its work. Every
// schedule must fill the TLB and evict from it both before and after it
// releases the arena (see runModel). The first insert after a release must
// land in slot 0, as in a fresh TLB, whether the arena it sets up is new or
// recycled.
func TestTLBMatchesReferenceModel(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 7, 64, 1536} {
		for _, kind := range []string{"dense", "one-home", "end-homes"} {
			t.Run(fmt.Sprintf("cap=%d/%s", capacity, kind), func(t *testing.T) {
				runModel(t, capacity, modelTags(capacity, kind), 20000, int64(capacity))
			})
		}
	}
}

// checkIndex requires the index to hold each live entry exactly once, in a
// slot its probe reaches: no empty slot may lie between the entry's home
// and its slot. A lost, stranded or duplicated index slot fails here at the
// step that made it, before it can surface as a divergence or fill the
// index. One pass around the index from an empty slot tracks where the
// current probe cluster began.
func checkIndex(t *testing.T, step int, tb *TLB) {
	if tb.nodes == nil {
		return
	}
	live := make([]bool, len(tb.nodes))
	for i := tb.head; i != none; i = tb.nodes[i].next {
		live[i] = true
	}
	mask := len(tb.index) - 1
	start := 0
	for tb.index[start] != none {
		start++
	}
	occupied, run := 0, start+1
	for n := 1; n <= mask; n++ {
		s := (start + n) & mask
		i := tb.index[s]
		if i == none {
			run = (s + 1) & mask
			continue
		}
		occupied++
		if !live[i] {
			t.Fatalf("step %d: slot %d holds node %d, which is not live or is indexed twice", step, s, i)
		}
		live[i] = false
		if h := tb.home(tb.nodes[i].key); (s-h)&mask > (s-run)&mask {
			t.Fatalf("step %d: slot %d (home %d) lies past the empty slot before %d", step, s, h, run)
		}
	}
	if occupied != tb.Len() {
		t.Fatalf("step %d: %d index slots occupied, Len %d", step, occupied, tb.Len())
	}
}

// runModel runs one random schedule over tags. Whole-space flushes are
// drawn at a rate falling with capacity, so large TLBs still fill up; most
// ranged ops span up to 32 pages, one in sixteen up to twice the capacity.
func runModel(t *testing.T, capacity int, tags []Key, steps int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	tb, ref := New(capacity), newRefTLB(capacity)
	va := func(k Key) arch.VA { return arch.VA(k.VPN) << arch.PageShift }
	span := func() int {
		if rng.Intn(16) == 0 {
			return 2*capacity + 2
		}
		return 32
	}
	pFlush := 0.25 / float64(capacity)
	if pFlush > 0.07 {
		pFlush = 0.07
	}
	// Once the schedule has evicted half a TLB's worth of entries since its
	// last Release, it is forced to Release once; after its last Release it
	// must fill the TLB and evict as many again. Random Releases stop
	// halfway, so the final phase is long enough for that at every capacity.
	// full and releasedAt (the eviction count at the last Release) track the
	// phase since the last Release.
	enough := int64(capacity+1) / 2
	full, forced, released := false, false, false
	var releasedAt int64
	for step := 0; step < steps; step++ {
		k := tags[rng.Intn(len(tags))]
		var got, want string
		force := !forced && ref.stats.Evictions-releasedAt >= enough
		if force || rng.Float64() < pFlush {
			switch op := rng.Intn(11); {
			case force || op == 10 && step < steps/2:
				tb.Release()
				ref.release()
				forced, released, full, releasedAt = forced || force, true, false, ref.stats.Evictions
			case op < 6:
				got = fmt.Sprint("FlushPCID ", tb.FlushPCID(k.VPID, k.PCID))
				ref.stats.FlushPCID++
				want = fmt.Sprint("FlushPCID ", ref.flushWhere(func(x Key, e Entry) bool {
					return x.VPID == k.VPID && x.PCID == k.PCID && !e.Global
				}))
			case op < 9:
				got = fmt.Sprint("FlushVPID ", tb.FlushVPID(k.VPID))
				ref.stats.FlushVPID++
				want = fmt.Sprint("FlushVPID ", ref.flushWhere(func(x Key, _ Entry) bool { return x.VPID == k.VPID }))
			default:
				got = fmt.Sprint("FlushAll ", tb.FlushAll())
				ref.stats.FlushAll++
				want = fmt.Sprint("FlushAll ", ref.flushWhere(func(Key, Entry) bool { return true }))
			}
		} else {
			switch op := rng.Intn(100); {
			case op < 25:
				write := rng.Intn(2) == 0
				e, ok := tb.Lookup(k.VPID, k.PCID, va(k), write)
				re, rok := ref.lookup(k, write)
				got, want = fmt.Sprint("Lookup ", e, ok), fmt.Sprint("Lookup ", re, rok)
			case op < 45:
				pages, write := 1+rng.Intn(span()), rng.Intn(2) == 0
				got = fmt.Sprint("LookupRange ", tb.LookupRange(k.VPID, k.PCID, va(k), pages, write))
				want = fmt.Sprint("LookupRange ", ref.lookupRange(k, pages, write))
			case op < 85:
				e := Entry{PFN: arch.PFN(rng.Intn(1 << 20)), Global: rng.Intn(4) == 0, Write: rng.Intn(2) == 0}
				tb.Insert(k.VPID, k.PCID, va(k), e)
				ref.insert(k, e)
				if released {
					if tb.head != 0 || len(tb.nodes) != 1 {
						t.Fatalf("step %d: first insert after Release took slot %d of %d, want 0 of 1", step, tb.head, len(tb.nodes))
					}
					released = false
				}
			default:
				tb.FlushPage(k.VPID, k.PCID, va(k))
				ref.flushPage(k)
			}
		}
		if got != want {
			t.Fatalf("step %d (%+v): got %s, want %s", step, k, got, want)
		}
		if tb.Stats() != ref.stats {
			t.Fatalf("step %d: stats %+v, want %+v", step, tb.Stats(), ref.stats)
		}
		if tb.Len() != len(ref.ents) {
			t.Fatalf("step %d: Len %d, want %d", step, tb.Len(), len(ref.ents))
		}
		full = full || tb.Len() == capacity
		checkIndex(t, step, tb)
		i := 0
		tb.Range(func(x Key, e Entry) bool {
			if i >= len(ref.lru) || x != ref.lru[i] || e != ref.ents[x] {
				t.Fatalf("step %d: Range[%d] = %+v %+v, model diverges", step, i, x, e)
			}
			i++
			return true
		})
		if i != len(ref.lru) {
			t.Fatalf("step %d: Range visited %d entries, want %d", step, i, len(ref.lru))
		}
	}
	if since := ref.stats.Evictions - releasedAt; !forced || !full || since < enough {
		t.Fatalf("schedule did not evict %d entries, release, then fill the TLB and evict %d again (released=%v, full since=%v, evictions since=%d)",
			enough, enough, forced, full, since)
	}
}
