package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailLadder lists the percentiles a tail may be reported at, lowest
// first.
var tailLadder = []float64{50, 90, 99, 99.9}

// rank returns the 1-based nearest rank of percentile p among n
// samples: the p-th percentile is the rank(p, n)-th smallest sample.
func rank(p float64, n int) int {
	// The epsilon keeps float rounding, as in 99.9/100*10000, from
	// pushing an exact rank one up.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of xs, which it
// sorts in place. It returns NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rank(p, len(xs))-1]
}

// tailStat is a tail latency with the percentile it was taken at, the
// sample count behind it and the number of windows it is the median of.
type tailStat struct {
	P       float64
	Value   float64
	N       int
	Windows int
}

// tail reports the highest percentile of tailLadder that has at least
// minBeyond samples above it. With fewer than 2×minBeyond samples no
// percentile qualifies, and the median is reported; N says so.
func tail(xs []float64) tailStat {
	n := len(xs)
	p := tailLadder[0]
	for _, q := range tailLadder {
		if n-rank(q, n) >= minBeyond {
			p = q
		}
	}
	return tailStat{P: p, Value: percentile(xs, p), N: n, Windows: 1}
}

// tailWindow is the fewest samples a window of windowedTail holds: the
// p99 of 1,000 samples still has minBeyond samples above it.
const tailWindow = 1000

// windowedTail splits xs, in the order the operations ran, into as many
// consecutive windows of at least tailWindow samples as it can, takes
// each window's tail, and reports the median of those. A stall of a
// fraction of a second on a shared host delays every request due
// during it, enough to fill one window's slowest percent, but it moves
// the median window only when it repeats through most of the run. Every
// window holds 1,000 to 1,999 samples, so all report the same
// percentile. Below 2×tailWindow samples it is tail(xs). xs is not
// reordered.
func windowedTail(xs []float64) tailStat {
	w := max(len(xs)/tailWindow, 1)
	vals := make([]float64, w)
	var t tailStat
	for i := range vals {
		t = tail(append([]float64(nil), xs[i*len(xs)/w:(i+1)*len(xs)/w]...))
		vals[i] = t.Value
	}
	return tailStat{P: t.P, Value: percentile(vals, 50), N: len(xs), Windows: w}
}

// rung is one offered rate of the max_rps ladder and what it measured.
type rung struct {
	RPS   float64
	P99Ms float64
	// Backlog reports that requests were still queueing when the rung's
	// schedule ended: the system fell behind the offered rate.
	Backlog bool
}

// pickMaxRPS climbs the ladder in order and returns the offered rate
// of the last rung whose p99 meets limitMs without a backlog, stopping
// at the first rung that fails. It returns 0 when the first rung fails.
func pickMaxRPS(rungs []rung, limitMs float64) float64 {
	best := 0.0
	for _, r := range rungs {
		if r.Backlog || math.IsNaN(r.P99Ms) || r.P99Ms > limitMs {
			break
		}
		best = r.RPS
	}
	return best
}

// backlogged reports whether the median due-time latency of the last
// tenth of a rung's requests, in schedule order, exceeds limitMs: the
// queue was still long when the offered load stopped.
func backlogged(latMs []float64, limitMs float64) bool {
	if len(latMs) == 0 {
		return false
	}
	k := len(latMs) / 10
	if k < 1 {
		k = 1
	}
	last := append([]float64(nil), latMs[len(latMs)-k:]...)
	return percentile(last, 50) > limitMs
}

// dueLatency is an open-loop request's latency: from when the schedule
// said to send it to when its response was read. It includes any wait
// for a free connection, so a stall is charged to every request queued
// behind it.
func dueLatency(due, done time.Duration) time.Duration { return done - due }

// lateness is how late the load generator itself sent a request: from
// the moment it could first have sent it — its due time, or when its
// connection came free if that was later — to when it did. Waiting for
// a busy connection is the system's queue, not generator lateness.
func lateness(due, free, sent time.Duration) time.Duration {
	if free > due {
		due = free
	}
	return sent - due
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
