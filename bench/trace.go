package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"time"
)

// span is one call from the benchmark into a simulator layer. Spans of one
// op share Op; Parent is the span that caused this one (0 for an op's root).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Name   string `json:"name"` // "<layer>.<call>"
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Pages  int    `json:"pages,omitempty"` // pages the call handled
	VNS    int64  `json:"vns,omitempty"`   // virtual ns the calling vCPU advanced
}

// maxSpans bounds the spans kept in memory; later ones are counted, not kept.
const maxSpans = 1 << 19

// tracer records spans in memory. vCPU goroutines record concurrently, so
// every access holds mu.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span // spans[i].ID == i+1
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id, or 0 when the span is dropped.
func (t *tracer) begin(name string, op, parent int32) int32 {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	id := int32(len(t.spans) + 1)
	layer, _, _ := strings.Cut(name, ".")
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Layer: layer, Start: now})
	return id
}

// end closes span id, recording the pages it handled and the virtual time
// its vCPU advanced.
func (t *tracer) end(id int32, pages int, vns int64) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End, s.Pages, s.VNS = now, pages, vns
}

// write stores the spans as a JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// spanTotals aggregates the spans of one name.
type spanTotals struct {
	calls int
	ns    int64 // total duration
	self  int64 // total duration not covered by child spans
	pages int64
	vns   int64
}

// totals aggregates the recorded spans by name. A span's self time is its
// duration minus the union of its children's intervals (children on
// concurrent vCPUs overlap).
func (t *tracer) totals() map[string]*spanTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int32][]int32)
	for i := range t.spans {
		if p := t.spans[i].Parent; p != 0 {
			children[p] = append(children[p], t.spans[i].ID)
		}
	}
	out := make(map[string]*spanTotals)
	for i := range t.spans {
		s := &t.spans[i]
		tot := out[s.Name]
		if tot == nil {
			tot = &spanTotals{}
			out[s.Name] = tot
		}
		d := s.End - s.Start
		tot.calls++
		tot.ns += d
		tot.self += d - t.covered(s, children[s.ID])
		tot.pages += int64(s.Pages)
		tot.vns += s.VNS
	}
	return out
}

// covered returns how much of s's interval the spans kids cover.
func (t *tracer) covered(s *span, kids []int32) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, id := range kids {
		k := &t.spans[id-1]
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total, end int64
	for _, v := range iv {
		lo := max(v[0], end)
		if v[1] > lo {
			total += v[1] - lo
			end = v[1]
		}
	}
	return total
}
