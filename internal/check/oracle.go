package check

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"slices"

	"repro/internal/backend"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Observation is the complete observable outcome of a finished run: the
// quantities every fast path and every injected fault must leave
// bit-identical.
type Observation struct {
	Makespan int64
	Clocks   []int64 // final per-vCPU virtual clocks, in admission order
	Metrics  metrics.Snapshot
	Events   int
	Dropped  int64
	Digest   uint64 // FNV-1a over the raw fields of the ordered trace

	// DirtyPages and DirtyDigest summarize the dirty-log epochs harvested
	// by the DirtyLog variant (zero when logging never armed): total pages
	// collected, and an FNV-1a fold of every epoch's (pid, index, sorted
	// VAs), combined across workers in admission order.
	DirtyPages  int64
	DirtyDigest uint64

	// SoloGrants, ParallelGrants and Gates are informational and
	// deliberately excluded from Diff: toggling or revoking the solo bypass
	// changes how often that grant engages, the horizon-parallel executor's
	// run-ahead pooling depends on real-time worker interleaving, and a
	// bound guest or eager charging changes how many operations gate — all
	// while leaving every observable above untouched.
	SoloGrants     int64
	ParallelGrants int64
	Gates          int64
}

// Capture collects the observable outcome of a system whose engine has
// finished (Wait returned).
func Capture(s *backend.System) Observation {
	o := Observation{
		Makespan:       s.Eng.Makespan(),
		Clocks:         s.Eng.Clocks(),
		Metrics:        s.Ctr.Snapshot(),
		SoloGrants:     s.Eng.SoloGrants(),
		ParallelGrants: s.Eng.ParallelGrants(),
		Gates:          s.Eng.Gates(),
	}
	if s.Tracer != nil {
		o.Events = s.Tracer.Len()
		o.Dropped = s.Tracer.Dropped()
		o.Digest = TraceDigest(s.Tracer)
	}
	return o
}

// TraceDigest hashes the raw fields of every event in (time, cpu) order.
// Hashing the typed payload rather than the formatted Detail keeps the
// digest independent of presentation changes while still pinning timestamps,
// event kinds, and every scalar argument. It walks the buffer's ordered
// listing in place (EachRaw), so no event is copied or formatted.
func TraceDigest(b *trace.Buffer) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str := func(s string) {
		word(uint64(len(s)))
		h.Write([]byte(s))
	}
	b.EachRaw(func(e *trace.Event) {
		word(uint64(e.T))
		word(uint64(e.CPU))
		word(uint64(e.Kind)<<8 | uint64(e.Form))
		str(e.Label)
		word(uint64(e.PID))
		word(e.A)
		word(uint64(e.B))
		str(e.Str)
	})
	return h.Sum64()
}

// Diff returns a description of the first divergence between two
// observations, or "" when they are bit-identical. SoloGrants,
// ParallelGrants and Gates are not compared (see Observation).
func Diff(a, b Observation) string {
	switch {
	case a.Makespan != b.Makespan:
		return fmt.Sprintf("makespan %d vs %d", a.Makespan, b.Makespan)
	case !slices.Equal(a.Clocks, b.Clocks):
		return fmt.Sprintf("final vCPU clocks %v vs %v", a.Clocks, b.Clocks)
	case !reflect.DeepEqual(a.Metrics, b.Metrics):
		return fmt.Sprintf("metrics\n  %+v\nvs\n  %+v", a.Metrics, b.Metrics)
	case a.Events != b.Events || a.Dropped != b.Dropped:
		return fmt.Sprintf("trace volume %d events (%d dropped) vs %d (%d dropped)",
			a.Events, a.Dropped, b.Events, b.Dropped)
	case a.Digest != b.Digest:
		return fmt.Sprintf("trace digest %#x vs %#x", a.Digest, b.Digest)
	case a.DirtyPages != b.DirtyPages:
		return fmt.Sprintf("dirty pages %d vs %d", a.DirtyPages, b.DirtyPages)
	case a.DirtyDigest != b.DirtyDigest:
		return fmt.Sprintf("dirty digest %#x vs %#x", a.DirtyDigest, b.DirtyDigest)
	}
	return ""
}
