package trace

import (
	"sort"
	"sync"
	"time"
)

// LatencyRecorder aggregates the request latencies and cache outcomes
// of one endpoint class for a serving daemon's stats endpoint. It keeps
// exact counters plus a fixed-size ring of the most recent latencies
// from which percentiles are computed on demand — the same
// keep-samples, sort-on-read approach as the workload simulator's
// percentile reservoir, sized so a snapshot reflects recent traffic
// rather than the whole process lifetime.
//
// Observe is safe for concurrent use and does not allocate.
type LatencyRecorder struct {
	mu      sync.Mutex
	ring    []time.Duration
	next    int  // ring insertion cursor
	filled  bool // ring has wrapped at least once
	count   int64
	hits    int64
	misses  int64
	errors  int64
	maxSeen time.Duration
}

// latencyWindow is how many recent samples the percentiles cover.
const latencyWindow = 4096

// NewLatencyRecorder builds a recorder whose percentile window holds
// the last 4096 samples.
func NewLatencyRecorder() *LatencyRecorder {
	return &LatencyRecorder{ring: make([]time.Duration, latencyWindow)}
}

// Observe records one request: its latency, whether it was served from
// cache (hit), and whether it failed. Erroneous requests count toward
// latency too — a slow failure is still a slow response.
func (lr *LatencyRecorder) Observe(d time.Duration, hit, failed bool) {
	lr.mu.Lock()
	lr.ring[lr.next] = d
	lr.next++
	if lr.next == len(lr.ring) {
		lr.next, lr.filled = 0, true
	}
	lr.count++
	if hit {
		lr.hits++
	} else {
		lr.misses++
	}
	if failed {
		lr.errors++
	}
	if d > lr.maxSeen {
		lr.maxSeen = d
	}
	lr.mu.Unlock()
}

// LatencyStats is one recorder's point-in-time summary.
type LatencyStats struct {
	// Requests, Hits, Misses, Errors are exact lifetime counters.
	Requests int64 `json:"requests"`
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Errors   int64 `json:"errors"`
	// HitRate is Hits / Requests (0 when idle).
	HitRate float64 `json:"hit_rate"`
	// P50, P99 and Max summarize latency over the recent-sample window
	// (Max is lifetime).
	P50 time.Duration `json:"p50_ns"`
	P99 time.Duration `json:"p99_ns"`
	Max time.Duration `json:"max_ns"`
}

// Snapshot summarizes the recorder. Percentiles cover the ring's
// recent-sample window; counters are exact.
func (lr *LatencyRecorder) Snapshot() LatencyStats {
	lr.mu.Lock()
	n := lr.next
	if lr.filled {
		n = len(lr.ring)
	}
	samples := append([]time.Duration(nil), lr.ring[:n]...)
	out := LatencyStats{
		Requests: lr.count,
		Hits:     lr.hits,
		Misses:   lr.misses,
		Errors:   lr.errors,
		Max:      lr.maxSeen,
	}
	lr.mu.Unlock()

	if out.Requests > 0 {
		out.HitRate = float64(out.Hits) / float64(out.Requests)
	}
	if len(samples) > 0 {
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		out.P50 = quantileDuration(samples, 0.50)
		out.P99 = quantileDuration(samples, 0.99)
	}
	return out
}

// quantileDuration reads the nearest-rank quantile from sorted samples.
func quantileDuration(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
