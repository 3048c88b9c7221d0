package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark was built on is a shared cloud machine whose speed
// drifts by tens of percent over minutes, more than the regressions the
// bounds must catch. A fixed reference kernel, independent of the
// simulator, is timed throughout every run, and every end-to-end time is
// scaled by refNominal over the kernel's median (or, for times read at the
// host's best speed, its best) time in that run: host time at a fixed
// reference speed.
//
// The kernel has two halves: a chain of dependent loads through a 512 KiB
// table, resident in the core's own cache, and random read-modify-writes
// over 8 MiB, which reach the shared cache and memory. The simulator does
// both kinds of work, and the neighbours slow them independently. In an
// hour of runs rotating over every workload (raw host time drifting by 15
// to 25%), scaling by the first half alone left spreads of up to 12% in
// wall_s and 12.5% in op_ms_p50; scaling by both halves left 8% and 10%.
// Neither half alone, nor any other kernel tried (dependent loads over 2
// and 8 MiB, streaming over 16 MiB, hash-map updates, small allocations,
// goroutine handoffs, an ALU loop), did as well.

// refNominal is the kernel's median time on the reference host.
const refNominal = 3300 * time.Microsecond

const (
	refSlots = 1 << 17 // 512 KiB of int32
	refSteps = 1 << 18
	refWords = 1 << 20 // 8 MiB of uint64
	refRMWs  = 1 << 17
)

// refTables are the kernel's tables, built once per process outside the Go
// heap: on the heap they would raise the live heap the collector paces
// itself by, and so change how often it runs during the workloads (fuzz-mix,
// which allocates over 1 GiB/s on a few MiB of live heap, ran about a
// quarter faster with 37 MiB of such tables on the heap).
var refTables = sync.OnceValues(func() (*refTable, error) {
	chain, err := offHeap[int32](refSlots)
	if err != nil {
		return nil, err
	}
	words, err := offHeap[uint64](refWords)
	if err != nil {
		return nil, err
	}
	perm := make([]int32, refSlots)
	for i := range perm {
		perm[i] = int32(i)
	}
	r := &rng{s: 0x5eed}
	r.shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	for i := range perm {
		chain[perm[i]] = perm[(i+1)%len(perm)]
	}
	return &refTable{chain: chain, words: words}, nil
})

type refTable struct {
	chain []int32  // one random cycle through all slots
	words []uint64 // read-modify-write targets
	sink  uint64
}

// offHeap maps n zeroed values of a pointer-free type outside the Go heap,
// for the life of the process.
func offHeap[T int32 | uint64](n int) ([]T, error) {
	var zero T
	b, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(zero)), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("reference kernel: %w", err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n), nil
}

// refKernel is a run's reference-kernel samples.
type refKernel struct {
	t     *refTable
	times []float64 // seconds per sample
	last  time.Time // when the last sample ended
}

func newRefKernel() (*refKernel, error) {
	t, err := refTables()
	if err != nil {
		return nil, err
	}
	return &refKernel{t: t}, nil
}

// sample times the kernel on a collected heap and records its host time:
// each half runs twice and its second run counts. The collection keeps GC
// work that would otherwise run concurrently out of the sample; the first
// run brings the half's table back into the caches, so the sample depends
// neither on how much of it the simulator evicted nor, for the 512 KiB
// chain, on the 8 MiB half having just evicted it.
func (k *refKernel) sample() {
	runtime.GC()
	var d time.Duration
	for _, half := range [...]func() time.Duration{k.t.chase, k.t.rmw} {
		half()
		d += half()
	}
	k.times = append(k.times, d.Seconds())
	k.last = time.Now()
}

// sampleIfDue samples the kernel when refEvery has passed since the last
// sample.
func (k *refKernel) sampleIfDue() {
	if time.Since(k.last) >= refEvery {
		k.sample()
	}
}

// chase is the kernel's first half: dependent loads through the chain.
func (t *refTable) chase() time.Duration {
	start := time.Now()
	j := int32(t.sink % refSlots)
	for range refSteps {
		j = t.chain[j]
	}
	t.sink = uint64(j)
	return time.Since(start)
}

// rmw is the kernel's second half: read-modify-writes at xorshift64
// addresses.
func (t *refTable) rmw() time.Duration {
	start := time.Now()
	x := t.sink | 1
	for i := range refRMWs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		t.words[x%refWords] += uint64(i)
	}
	t.sink = x
	return time.Since(start)
}

// factor is refNominal over the kernel's median time: the scale that turns
// this run's host seconds into reference-speed seconds.
func (k *refKernel) factor() float64 {
	if len(k.times) == 0 {
		return 1
	}
	return refNominal.Seconds() / median(k.times)
}

// best is the kernel's time at the host's best speed: the mean of its
// fastest tenth of samples. The single fastest sample is one extreme draw;
// scaled by it, earlier sets of runs spread up to a fifth wider.
func (k *refKernel) best() float64 {
	d := slices.Clone(k.times)
	slices.Sort(d)
	d = d[:max(1, len(d)/10)]
	var sum float64
	for _, t := range d {
		sum += t
	}
	return sum / float64(len(d))
}

// bestFactor is refNominal over best: the scale for times read at the
// host's best speed (see endToEnd).
func (k *refKernel) bestFactor() float64 {
	if len(k.times) == 0 {
		return 1
	}
	return refNominal.Seconds() / k.best()
}

// refEvery is how often a run samples the kernel, between ops, while it
// measures.
const refEvery = 250 * time.Millisecond
