package mem

import "repro/internal/arch"

// frameChunk is the number of frames one chunk of a FrameTable covers.
const frameChunk = 512

// FrameTable holds one value per frame number without hashing: a spine
// indexed by pfn/512 whose chunks of 512 slots are allocated when a frame
// in them is first touched. Any frame number works; frame spaces handed
// out contiguously (as the Allocator hands them out) fill whole chunks.
// A slot never set reads as T's zero value, which callers use as "absent".
//
// The zero FrameTable is empty and ready to use. It is not safe for
// concurrent use.
type FrameTable[T comparable] struct {
	chunks []*[frameChunk]T
}

// Slot returns pfn's slot, allocating the chunk that holds it on first
// touch.
func (t *FrameTable[T]) Slot(pfn arch.PFN) *T {
	i := int(pfn / frameChunk)
	if i >= len(t.chunks) {
		t.chunks = append(t.chunks, make([]*[frameChunk]T, i+1-len(t.chunks))...)
	}
	c := t.chunks[i]
	if c == nil {
		c = new([frameChunk]T)
		t.chunks[i] = c
	}
	return &c[pfn%frameChunk]
}

// Get returns pfn's value without allocating.
func (t *FrameTable[T]) Get(pfn arch.PFN) T {
	if i := pfn / frameChunk; i < arch.PFN(len(t.chunks)) && t.chunks[i] != nil {
		return t.chunks[i][pfn%frameChunk]
	}
	var zero T
	return zero
}

// Each calls f with every value that is not T's zero value, in frame order.
func (t *FrameTable[T]) Each(f func(T)) {
	var zero T
	for _, c := range t.chunks {
		if c == nil {
			continue
		}
		for _, v := range c {
			if v != zero {
				f(v)
			}
		}
	}
}
