// Package tlb implements the simulator's tagged translation lookaside buffer.
//
// Entries are tagged (VPID, PCID, VPN) exactly as on VT-x hardware with
// PCID enabled. The tag structure is what PVM's PCID-mapping optimization
// exploits: by assigning distinct host-side PCIDs to each L2 address space,
// world switches need no TLB flush at all, whereas a traditional shadow-
// paging hypervisor must flush the whole guest VPID on every guest-requested
// flush (the cold-start penalty described in §3.3.2 of the paper).
//
// The LRU chain is an intrusive doubly-linked list threaded through a slice
// of nodes allocated once, so the steady-state hot path — Lookup and Insert
// on a warm TLB — performs no heap allocation at all.
//
// Tags are packed into a single uint64 (VPN | PCID | VPID) and resolved
// through an open-addressed index the TLB owns: a power-of-two slice of node
// indexes, probed linearly from a multiplicative hash of the packed tag and
// compacted by backward-shift deletion, so it never holds tombstones. A probe
// is a multiply, a shift and a few slice reads. LookupRange resolves a run of
// consecutive pages with per-page semantics identical to repeated Lookup
// calls (same hit/miss accounting, same LRU reordering) but packs the tag
// only once.
package tlb

import (
	"repro/internal/arch"
)

// Key tags one TLB entry (the unpacked form; entries are stored under the
// packed uint64 representation).
type Key struct {
	VPID arch.VPID
	PCID arch.PCID
	VPN  uint64 // virtual page number
}

// Packed tag layout. The simulated address space is 48 bits
// (arch.VABits), so a canonical VPN fits in 36 bits; PCIDs are
// architecturally below 4096 (12 bits), which leaves the full 16-bit VPID
// range. pack panics rather than aliasing if a tag ever falls outside
// those bounds.
const (
	vpnBits   = arch.VABits - arch.PageShift // 36
	pcidBits  = 12
	vpnMask   = 1<<vpnBits - 1
	pcidShift = vpnBits
	vpidShift = vpnBits + pcidBits
)

// pack folds a (VPID, PCID, VPN) tag into one uint64.
func pack(vpid arch.VPID, pcid arch.PCID, vpn uint64) uint64 {
	if uint64(pcid) >= 1<<pcidBits || vpn > vpnMask {
		panic("tlb: tag out of packable range")
	}
	return vpn | uint64(pcid)<<pcidShift | uint64(vpid)<<vpidShift
}

// unpack recovers the tag from its packed form.
func unpack(k uint64) Key {
	return Key{
		VPID: arch.VPID(k >> vpidShift),
		PCID: arch.PCID(k >> pcidShift & (1<<pcidBits - 1)),
		VPN:  k & vpnMask,
	}
}

// Entry is a cached translation.
type Entry struct {
	PFN    arch.PFN
	Global bool // survives PCID-targeted flushes (switcher pages)
	Write  bool // writable translation cached
}

// Stats counts TLB activity.
type Stats struct {
	Hits        int64
	Misses      int64
	Inserts     int64
	Evictions   int64
	FlushPage   int64
	FlushPCID   int64
	FlushVPID   int64
	FlushAll    int64
	FlushedEnts int64 // entries removed by flushes
}

// none marks the end of an intrusive list chain and an empty index slot.
const none = int32(-1)

// node is one slot of the preallocated entry store.
type node struct {
	key        uint64 // packed tag
	ent        Entry
	prev, next int32
}

// hashMul is the 64-bit Fibonacci hashing multiplier (2^64/φ): the top bits
// of key·hashMul spread consecutive packed tags, which differ only in their
// low VPN bits, evenly over the index.
const hashMul = 0x9e3779b97f4a7c15

// unallocated is the index of a TLB that has not inserted yet: one empty
// slot, shared read-only, so probes of a fresh TLB miss without a branch.
var unallocated = []int32{none}

// TLB is a capacity-bounded, LRU-evicting, tagged TLB.
type TLB struct {
	capacity int
	nodes    []node // all capacity slots, allocated once
	head     int32  // most recently used, or none
	tail     int32  // least recently used, or none
	free     int32  // chain of unused slots through next
	live     int    // entries currently cached

	// index maps packed tags to node indexes by linear probing: a tag's
	// home slot is the top bits of key·hashMul, and it sits at the first
	// slot from home onward (wrapping) that is not taken by another tag.
	// It has a power-of-two length of at least 2×capacity, so probe
	// clusters stay short, and every empty slot holds none.
	index []int32
	shift uint // 64 - log2(len(index))

	stats Stats
}

// New creates a TLB holding up to capacity entries (capacity <= 0 panics).
// The node arena and index are allocated at full geometry by the first
// Insert, not here: a process that never touches a page (a short-lived fork
// child, say) pays nothing for its TLB, which keeps per-process construction
// off the lifecycle hot paths, while a faulting process pays the one-time
// allocation it always paid — just at first use. Slot indexes are handed out
// in the same 0,1,2,… order either way, so the deferral is unobservable.
func New(capacity int) *TLB {
	if capacity <= 0 {
		panic("tlb: capacity must be positive")
	}
	return &TLB{
		capacity: capacity,
		head:     none,
		tail:     none,
		free:     none,
		index:    unallocated,
		shift:    64,
	}
}

// allocate builds the full geometry: the node arena and an index of the
// smallest power of two at least twice the capacity.
func (t *TLB) allocate() {
	bits := uint(1)
	for 1<<bits < 2*t.capacity {
		bits++
	}
	t.nodes = make([]node, 0, t.capacity)
	t.index = make([]int32, 1<<bits)
	for s := range t.index {
		t.index[s] = none
	}
	t.shift = 64 - bits
}

// home returns the index slot a probe for packed tag k starts at.
func (t *TLB) home(k uint64) int {
	return int(k * hashMul >> t.shift)
}

// probe returns the index slot holding k and its node, or, when k is not
// cached, the empty slot that ends its probe sequence and none.
func (t *TLB) probe(k uint64) (int, int32) {
	mask := len(t.index) - 1
	for s := t.home(k); ; s = (s + 1) & mask {
		i := t.index[s]
		if i == none || t.nodes[i].key == k {
			return s, i
		}
	}
}

// unindex empties index slot s by backward-shift deletion: each later tag
// of the probe cluster that may legally sit at the hole (its home is not
// cyclically after the hole) moves into it, and the hole moves to the slot
// it left, until the cluster ends. Every remaining tag stays reachable from
// its home without tombstones.
func (t *TLB) unindex(s int) {
	mask := len(t.index) - 1
	for j := (s + 1) & mask; ; j = (j + 1) & mask {
		i := t.index[j]
		if i == none {
			break
		}
		if (j-t.home(t.nodes[i].key))&mask >= (j-s)&mask {
			t.index[s] = i
			s = j
		}
	}
	t.index[s] = none
}

// detach unlinks slot i from the LRU chain.
func (t *TLB) detach(i int32) {
	n := &t.nodes[i]
	if n.prev != none {
		t.nodes[n.prev].next = n.next
	} else {
		t.head = n.next
	}
	if n.next != none {
		t.nodes[n.next].prev = n.prev
	} else {
		t.tail = n.prev
	}
}

// pushFront links slot i at the most-recently-used end.
func (t *TLB) pushFront(i int32) {
	n := &t.nodes[i]
	n.prev = none
	n.next = t.head
	if t.head != none {
		t.nodes[t.head].prev = i
	}
	t.head = i
	if t.tail == none {
		t.tail = i
	}
}

// touch moves slot i to the most-recently-used end.
func (t *TLB) touch(i int32) {
	if t.head != i {
		t.detach(i)
		t.pushFront(i)
	}
}

// Lookup searches for a cached translation. A write access misses on a
// read-only cached entry (forcing a walk that sets the dirty bit), matching
// hardware behaviour. Zero-allocation.
func (t *TLB) Lookup(vpid arch.VPID, pcid arch.PCID, va arch.VA, write bool) (Entry, bool) {
	_, i := t.probe(pack(vpid, pcid, va.PageNumber()))
	if i == none || write && !t.nodes[i].ent.Write {
		t.stats.Misses++
		return Entry{}, false
	}
	t.touch(i)
	t.stats.Hits++
	return t.nodes[i].ent, true
}

// LookupRange probes translations for up to pages consecutive pages
// starting at va and returns the length of the leading run of hits. Each
// probed page has exactly the observable effect a Lookup call would have —
// Hits/Misses accounting, LRU move-to-front — including the terminating
// miss (when the run is shorter than the request). The tag is packed once
// (consecutive pages differ by one in the packed form) and the hit count is
// added in one step.
func (t *TLB) LookupRange(vpid arch.VPID, pcid arch.PCID, va arch.VA, pages int, write bool) int {
	k := pack(vpid, pcid, va.PageNumber())
	n := 0
	for ; n < pages; n++ {
		_, i := t.probe(k + uint64(n))
		if i == none || write && !t.nodes[i].ent.Write {
			break
		}
		t.touch(i)
	}
	t.stats.Hits += int64(n)
	if n < pages {
		t.stats.Misses++
	}
	return n
}

// Insert caches a translation, evicting the least recently used entry when
// full. Steady-state insertion does not allocate.
func (t *TLB) Insert(vpid arch.VPID, pcid arch.PCID, va arch.VA, e Entry) {
	if t.nodes == nil {
		// First insert: allocate the full geometry in one step (see New) so
		// no later insert pays growth or arena reallocation.
		t.allocate()
	}
	k := pack(vpid, pcid, va.PageNumber())
	s, i := t.probe(k)
	if i != none {
		t.nodes[i].ent = e
		t.touch(i)
		return
	}
	switch {
	case t.free != none:
		i = t.free
		t.free = t.nodes[i].next
	case len(t.nodes) < t.capacity:
		// Extend into the preallocated arena; never reallocates.
		t.nodes = append(t.nodes, node{})
		i = int32(len(t.nodes) - 1)
	default:
		// Full: reuse the least recently used slot. Deleting its tag can
		// shift k's probe cluster, so k's empty slot is found again.
		i = t.tail
		t.detach(i)
		vs, _ := t.probe(t.nodes[i].key)
		t.unindex(vs)
		t.live--
		t.stats.Evictions++
		s, _ = t.probe(k)
	}
	t.nodes[i].key = k
	t.nodes[i].ent = e
	t.pushFront(i)
	t.index[s] = i
	t.live++
	t.stats.Inserts++
}

// remove drops the entry in node i, whose tag sits at index slot s: it
// leaves the LRU chain and the index, and the node joins the free list.
func (t *TLB) remove(s int, i int32) {
	t.detach(i)
	t.unindex(s)
	t.nodes[i].next = t.free
	t.free = i
	t.live--
}

// FlushPage removes one page's translation (INVLPG / INVPCID single-address).
func (t *TLB) FlushPage(vpid arch.VPID, pcid arch.PCID, va arch.VA) {
	t.stats.FlushPage++
	if s, i := t.probe(pack(vpid, pcid, va.PageNumber())); i != none {
		t.remove(s, i)
		t.stats.FlushedEnts++
	}
}

// ZapRange removes the translations of pages consecutive pages starting at
// va — INVLPG applied to a run. Per page it removes exactly what FlushPage
// would, with the same FlushPage/FlushedEnts motion. Returns the number of
// entries removed.
func (t *TLB) ZapRange(vpid arch.VPID, pcid arch.PCID, va arch.VA, pages int) int {
	if pages <= 0 {
		return 0
	}
	t.stats.FlushPage += int64(pages)
	if t.live == 0 {
		return 0
	}
	k := pack(vpid, pcid, va.PageNumber())
	n := 0
	for p := 0; p < pages; p++ {
		// Consecutive pages differ by one in the packed form.
		if s, i := t.probe(k + uint64(p)); i != none {
			t.remove(s, i)
			n++
		}
	}
	t.stats.FlushedEnts += int64(n)
	return n
}

// FlushPCID removes all non-global entries of one (VPID, PCID) address
// space and returns how many entries were dropped.
func (t *TLB) FlushPCID(vpid arch.VPID, pcid arch.PCID) int {
	t.stats.FlushPCID++
	tag := uint64(pcid)<<pcidShift | uint64(vpid)<<vpidShift
	const tagMask = ^uint64(vpnMask)
	return t.flushWhere(func(k uint64, e Entry) bool {
		return k&tagMask == tag && !e.Global
	})
}

// FlushVPID removes every entry of the VPID regardless of PCID — the
// whole-guest cold-start flush traditional shadow paging suffers.
func (t *TLB) FlushVPID(vpid arch.VPID) int {
	t.stats.FlushVPID++
	tag := uint64(vpid) << vpidShift
	return t.flushWhere(func(k uint64, e Entry) bool {
		return k>>vpidShift<<vpidShift == tag
	})
}

// FlushAll empties the TLB (global entries included).
func (t *TLB) FlushAll() int {
	t.stats.FlushAll++
	return t.flushWhere(func(uint64, Entry) bool { return true })
}

func (t *TLB) flushWhere(pred func(uint64, Entry) bool) int {
	n := 0
	for i := t.head; i != none; {
		next := t.nodes[i].next
		if pred(t.nodes[i].key, t.nodes[i].ent) {
			s, _ := t.probe(t.nodes[i].key)
			t.remove(s, i)
			n++
		}
		i = next
	}
	t.stats.FlushedEnts += int64(n)
	return n
}

// Len returns the number of live entries.
func (t *TLB) Len() int { return t.live }

// Range calls fn for every live entry in LRU order (most recently used
// first) until fn returns false. It is a pure read: no stats movement and no
// LRU reordering — auditors iterate a TLB without perturbing it.
func (t *TLB) Range(fn func(Key, Entry) bool) {
	for i := t.head; i != none; i = t.nodes[i].next {
		if !fn(unpack(t.nodes[i].key), t.nodes[i].ent) {
			return
		}
	}
}

// Stats returns a snapshot of the counters.
func (t *TLB) Stats() Stats { return t.stats }

// HitRate returns hits/(hits+misses), or 0 with no lookups.
func (t *TLB) HitRate() float64 {
	tot := t.stats.Hits + t.stats.Misses
	if tot == 0 {
		return 0
	}
	return float64(t.stats.Hits) / float64(tot)
}
