package backend

import (
	"sync"

	"repro/internal/arch"
	"repro/internal/mem"
)

// frameMap maps guest-physical frames to the machine frames backing them
// (Guest.machineFrames: the guest VM's own host frames on bare metal, L1
// guest-physical when nested). The frames sit in a mem.FrameTable, where 0
// marks an unbacked frame (no allocator hands out frame 0). Determinism is
// unaffected: which frame backs a given gpa depends only on the order of
// allocator calls: virtually serialized, or for a bound bare-metal guest
// its vCPU's program order.
//
// One mutex guards the table: a map belongs to one guest's mmu strategy,
// and every System has its own guests, so only the vCPUs of one guest share
// it (and -parallel experiment cells never do).
type frameMap struct {
	mu     sync.Mutex
	frames mem.FrameTable[arch.PFN]
	live   int // backed frames
}

func newFrameMap() *frameMap { return &frameMap{} }

// getOrAlloc returns the frame backing gpa, calling alloc (under the map's
// lock) to establish one on first use. It reports whether the frame was
// freshly allocated.
func (f *frameMap) getOrAlloc(gpa arch.PFN, alloc func() arch.PFN) (target arch.PFN, alloced bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.frames.Slot(gpa)
	if *s != 0 {
		return *s, false
	}
	t := alloc()
	if t == 0 {
		panic("backend: backing frame 0 collides with the unbacked mark")
	}
	*s = t
	f.live++
	return t, true
}

// get returns the frame backing gpa without allocating.
func (f *frameMap) get(gpa arch.PFN) (arch.PFN, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	t := f.frames.Get(gpa)
	return t, t != 0
}

// remove drops gpa's backing mapping, returning the frame that backed it.
func (f *frameMap) remove(gpa arch.PFN) (arch.PFN, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	t := f.frames.Get(gpa)
	if t == 0 {
		return 0, false
	}
	*f.frames.Slot(gpa) = 0
	f.live--
	return t, true
}

// len returns the number of backed frames.
func (f *frameMap) len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.live
}
