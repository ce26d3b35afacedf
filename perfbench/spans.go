package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one layer call the harness made, recorded by a traced run.
// Times are offsets from the tracer's epoch. AllocBytes and
// AllocObjects are the process's heap allocations while the span was
// open, read from runtime/metrics (no stop-the-world, unlike
// runtime.ReadMemStats); with concurrent spans they include the other
// goroutines' allocations.
type span struct {
	Name       string
	Op         int64 // pass or request id
	Parent     int   // index of the enclosing span, -1 for none
	Start, End time.Duration

	AllocBytes, AllocObjects uint64
}

// tracer keeps spans in memory until the run ends. A nil tracer, or one
// switched off, records nothing, so untraced runs share the traced
// code path at the cost of a branch per layer call.
type tracer struct {
	mu      sync.Mutex
	on      bool
	epoch   time.Time
	spans   []span
	samples []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		epoch: time.Now(),
		samples: []metrics.Sample{
			{Name: "/gc/heap/allocs:bytes"},
			{Name: "/gc/heap/allocs:objects"},
		},
	}
}

// setOn switches recording on or off; spans begun while on still end.
func (t *tracer) setOn(on bool) {
	if t != nil {
		t.mu.Lock()
		t.on = on
		t.mu.Unlock()
	}
}

// allocs reads the cumulative heap allocation counters; t.mu is held.
func (t *tracer) allocs() (bytes, objects uint64) {
	metrics.Read(t.samples)
	return t.samples[0].Value.Uint64(), t.samples[1].Value.Uint64()
}

// begin opens a span and returns its id, or -1 when not recording.
func (t *tracer) begin(name string, op int64, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	b, o := t.allocs()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent,
		Start: time.Since(t.epoch), AllocBytes: b, AllocObjects: o})
	return len(t.spans) - 1
}

// end closes span id; id -1 is ignored.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, o := t.allocs()
	s := &t.spans[id]
	s.End = time.Since(t.epoch)
	s.AllocBytes = b - s.AllocBytes
	s.AllocObjects = o - s.AllocObjects
}

// snapshot returns the recorded spans; call it once recording is over.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children, as
// concurrent calls produce, are counted once.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi time.Duration }
		var ivs []iv
		for _, k := range kids[i] {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach time.Duration
		reach = s.Start
		for _, v := range ivs {
			if v.lo < reach {
				v.lo = reach
			}
			if v.hi > v.lo {
				covered += v.hi - v.lo
				reach = v.hi
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// selfAllocs returns each span's allocations minus its children's,
// floored at zero: overlapping children can count the same
// allocations twice.
func selfAllocs(spans []span) (bytes, objects []uint64) {
	b := make([]int64, len(spans))
	o := make([]int64, len(spans))
	for i, s := range spans {
		b[i] += int64(s.AllocBytes)
		o[i] += int64(s.AllocObjects)
		if p := s.Parent; p >= 0 {
			b[p] -= int64(s.AllocBytes)
			o[p] -= int64(s.AllocObjects)
		}
	}
	bytes = make([]uint64, len(spans))
	objects = make([]uint64, len(spans))
	for i := range spans {
		bytes[i] = uint64(max(b[i], 0))
		objects[i] = uint64(max(o[i], 0))
	}
	return bytes, objects
}

// layerTotals sums the self time and self allocations of every span
// named name, per op. Ops with no such span are absent.
type layerTotals struct {
	Self                     map[int64]time.Duration
	AllocBytes, AllocObjects map[int64]uint64
}

// byLayer folds spans into per-name, per-op totals.
func byLayer(spans []span) map[string]*layerTotals {
	self := selfTimes(spans)
	ab, ao := selfAllocs(spans)
	out := map[string]*layerTotals{}
	for i, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotals{Self: map[int64]time.Duration{}, AllocBytes: map[int64]uint64{}, AllocObjects: map[int64]uint64{}}
			out[s.Name] = lt
		}
		lt.Self[s.Op] += self[i]
		lt.AllocBytes[s.Op] += ab[i]
		lt.AllocObjects[s.Op] += ao[i]
	}
	return out
}

// opsOf lists the ops a layer ran in, ascending.
func opsOf(lt *layerTotals) []int64 {
	if lt == nil {
		return nil
	}
	ops := make([]int64, 0, len(lt.Self))
	for op := range lt.Self {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	return ops
}

// opTotals is one layer's, or several layers', self cost.
type opTotals struct{ s, bytes, objs float64 }

// medianOf sums the named layers' self time (seconds) and self
// allocations within each of ops, and returns the medians over ops.
// Layers that never ran contribute zero.
func medianOf(layers map[string]*layerTotals, ops []int64, names ...string) opTotals {
	if len(ops) == 0 {
		return opTotals{}
	}
	var s, b, o []float64
	for _, op := range ops {
		var t opTotals
		for _, n := range names {
			if lt := layers[n]; lt != nil {
				t.s += lt.Self[op].Seconds()
				t.bytes += float64(lt.AllocBytes[op])
				t.objs += float64(lt.AllocObjects[op])
			}
		}
		s, b, o = append(s, t.s), append(b, t.bytes), append(o, t.objs)
	}
	return opTotals{percentile(s, 50), percentile(b, 50), percentile(o, 50)}
}

// overheadPct is how much slower the traced ops' median ran than the
// untraced ones', in percent; noise can make it negative.
func overheadPct(untraced, traced []float64) float64 {
	base := percentile(append([]float64(nil), untraced...), 50)
	return 100 * (percentile(append([]float64(nil), traced...), 50) - base) / base
}
