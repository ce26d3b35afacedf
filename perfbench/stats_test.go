package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p, v float64
	}{
		{1, 50, 1},
		{19, 50, 10},        // no percentile has 10 beyond: the median, flagged by N
		{20, 50, 10},        // rank 10, 10 beyond
		{99, 50, 50},        // p90 has rank 90, only 9 beyond
		{100, 90, 90},       // p90 rank 90, 10 beyond; p99 only 1
		{1000, 99, 990},     // p99 rank 990, 10 beyond
		{9999, 99, 9900},    // p99.9 rank 9990, 9 beyond
		{10000, 99.9, 9990}, // p99.9 rank 9990, 10 beyond
	} {
		got := tail(seq(c.n))
		if got.P != c.p || got.Value != c.v || got.N != c.n {
			t.Errorf("tail of %d samples = %+v, want p%g = %g", c.n, got, c.p, c.v)
		}
	}
}

func TestWindowedTailIsTheMedianWindow(t *testing.T) {
	// Below two windows' worth it is the plain tail.
	for _, n := range []int{1, 99, 1999} {
		if got, want := windowedTail(seq(n)), tail(seq(n)); got != want {
			t.Errorf("windowed tail of %d samples = %+v, want %+v", n, got, want)
		}
	}
	// 5,500 samples make five windows of 1,100; a stall that fills one
	// window's slowest percent leaves the median window's p99 alone.
	xs := make([]float64, 5500)
	for i := range xs {
		xs[i] = float64(i%1100) / 1100 // each window's p99, rank 1089, is 1088/1100
	}
	for i := 1100; i < 1200; i++ {
		xs[i] = 500
	}
	got := windowedTail(xs)
	if want := (tailStat{P: 99, Value: 1088.0 / 1100, N: 5500, Windows: 5}); got != want {
		t.Errorf("windowed tail = %+v, want %+v", got, want)
	}
	if xs[0] != 0 || xs[1100] != 500 {
		t.Error("windowedTail reordered its input")
	}
	if all := tail(xs); all.Value != 500 {
		t.Errorf("the plain p99 = %g, want the stall's 500", all.Value)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{{5, 15}, {30, 20}, {40, 20}, {50, 35}, {100, 50}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsCoveredInterval(t *testing.T) {
	d := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	spans := []span{
		{Name: "root", Parent: -1, Start: d(0), End: d(100)},
		{Name: "a", Parent: 0, Start: d(10), End: d(30)},
		{Name: "b", Parent: 0, Start: d(20), End: d(50)},  // overlaps a
		{Name: "c", Parent: 0, Start: d(90), End: d(120)}, // runs past the parent
		{Name: "a.1", Parent: 1, Start: d(12), End: d(18)},
	}
	want := []time.Duration{d(50), d(14), d(30), d(30), d(6)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestSelfAllocsFloorAtZero(t *testing.T) {
	spans := []span{
		{Parent: -1, AllocBytes: 100, AllocObjects: 10},
		{Parent: 0, AllocBytes: 30, AllocObjects: 3},
		{Parent: 0, AllocBytes: 80, AllocObjects: 4},
	}
	b, o := selfAllocs(spans)
	if b[0] != 0 || o[0] != 3 || b[1] != 30 || o[2] != 4 {
		t.Errorf("self allocs = %v bytes, %v objects", b, o)
	}
}

func TestMedianOfSumsLayersPerOp(t *testing.T) {
	d := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	var spans []span
	for op, costs := range [][2]int{{10, 1}, {30, 3}, {20, 2}} {
		root := len(spans)
		spans = append(spans,
			span{Name: "pass", Op: int64(op), Parent: -1, Start: d(0), End: d(100)},
			span{Name: "x", Op: int64(op), Parent: root, Start: d(0), End: d(costs[0])},
			span{Name: "y", Op: int64(op), Parent: root, Start: d(50), End: d(50 + costs[1])})
	}
	layers := byLayer(spans)
	ops := opsOf(layers["pass"])
	if got := medianOf(layers, ops, "x", "y").s; math.Abs(got-0.022) > 1e-12 {
		t.Errorf("median of x+y = %v s, want 0.022", got)
	}
	if got := medianOf(layers, ops, "missing").s; got != 0 {
		t.Errorf("median of a layer that never ran = %v, want 0", got)
	}
}

func TestPickMaxRPSStopsAtFirstFailingRung(t *testing.T) {
	ok := func(rps float64) rung { return rung{RPS: rps, P99Ms: 10} }
	for _, c := range []struct {
		name  string
		rungs []rung
		want  float64
	}{
		{"all pass", []rung{ok(100), ok(200), ok(300)}, 300},
		{"p99 over limit", []rung{ok(100), ok(200), {RPS: 300, P99Ms: 51}, ok(400)}, 200},
		{"backlog", []rung{ok(100), {RPS: 200, P99Ms: 10, Backlog: true}}, 100},
		{"limit is inclusive", []rung{{RPS: 100, P99Ms: 50}}, 100},
		{"first fails", []rung{{RPS: 100, P99Ms: 60}, ok(200)}, 0},
	} {
		if got := pickMaxRPS(c.rungs, 50); got != c.want {
			t.Errorf("%s: picked %g, want %g", c.name, got, c.want)
		}
	}
}

func TestBacklogReadsTheLastTenth(t *testing.T) {
	lat := make([]float64, 100)
	for i := range lat {
		lat[i] = 1
	}
	if backlogged(lat, 50) {
		t.Error("flat latencies read as backlog")
	}
	for i := 90; i < 100; i++ {
		lat[i] = 80
	}
	if !backlogged(lat, 50) {
		t.Error("a queue still growing at the end was not flagged")
	}
	lat[0] = 1000 // an early stall that drained is not a backlog
	for i := 90; i < 100; i++ {
		lat[i] = 1
	}
	if backlogged(lat, 50) {
		t.Error("an early stall read as backlog")
	}
}

func TestDueLatencyAndLateness(t *testing.T) {
	ms := time.Millisecond
	if got := dueLatency(10*ms, 25*ms); got != 15*ms {
		t.Errorf("due latency = %v, want 15ms", got)
	}
	// Connection free before the due time: lateness counts from due.
	if got := lateness(10*ms, 5*ms, 12*ms); got != 2*ms {
		t.Errorf("lateness = %v, want 2ms", got)
	}
	// Connection busy past the due time: the wait is the server's queue,
	// and lateness counts only from when the connection came free.
	if got := lateness(10*ms, 40*ms, 40*ms+500*time.Microsecond); got != 500*time.Microsecond {
		t.Errorf("lateness = %v, want 500µs", got)
	}
	if got := dueLatency(10*ms, 60*ms); got != 50*ms {
		t.Errorf("due latency behind a busy connection = %v, want 50ms", got)
	}
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json's workload and
// metric lists in step with what the harness prints.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, harness %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("BENCHMARK.json workloads %v, harness %v", names, want)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, harness %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), harness %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
