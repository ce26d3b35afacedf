// Package workload is a transaction-level simulator of the
// SPECpower_ssj2008 workload: the six server-side-Java transaction
// types in their published mix, scheduled in batches with exponential
// inter-arrival times against a finite-capacity server, with latency
// and utilization accounting. internal/bench uses it as its
// high-fidelity mode; the fast mode aggregates per second instead.
//
// The simulation is a single-server FIFO queue over batches (the real
// benchmark schedules batches of transactions, not single operations):
// batches are scheduled at the target rate with bounded uniform jitter
// (mirroring the benchmark's rate controller, which holds the offered
// load near its schedule), service demand per batch follows the
// transaction mix with lognormal variability, and the engine reports
// achieved throughput, busy fraction, and latency percentiles.
package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// TxType is one of the six ssj transaction types.
type TxType int

// The ssj_2008 transaction types.
const (
	NewOrder TxType = iota + 1
	Payment
	OrderStatus
	Delivery
	StockLevel
	CustomerReport
)

// String returns the transaction name.
func (t TxType) String() string {
	switch t {
	case NewOrder:
		return "NewOrder"
	case Payment:
		return "Payment"
	case OrderStatus:
		return "OrderStatus"
	case Delivery:
		return "Delivery"
	case StockLevel:
		return "StockLevel"
	case CustomerReport:
		return "CustomerReport"
	default:
		return "Unknown"
	}
}

// allTxTypes is the fixed type universe; kept as an array so hot loops
// can index per-type state without map traffic.
var allTxTypes = [...]TxType{NewOrder, Payment, OrderStatus, Delivery, StockLevel, CustomerReport}

// AllTxTypes lists the transaction types.
func AllTxTypes() []TxType {
	return append([]TxType(nil), allTxTypes[:]...)
}

// Mix maps transaction types to their share of the workload.
type Mix map[TxType]float64

// DefaultMix returns the published ssj_2008 transaction mix.
func DefaultMix() Mix {
	return Mix{
		NewOrder:       0.303,
		Payment:        0.303,
		OrderStatus:    0.0303,
		Delivery:       0.0303,
		StockLevel:     0.0303,
		CustomerReport: 0.303,
	}
}

// workUnits is the relative processing cost per transaction type,
// normalized so the default mix averages 1.0 work unit. Indexed by
// TxType value so the batch-compose loop stays off the map hash path;
// unknown types cost zero, matching the old map's missing-key behavior.
var workUnits = [len(allTxTypes) + 1]float64{
	NewOrder:       1.20,
	Payment:        0.85,
	OrderStatus:    0.45,
	Delivery:       1.05,
	StockLevel:     0.70,
	CustomerReport: 1.12,
}

// work returns the transaction type's relative processing cost.
func (t TxType) work() float64 {
	if t < 1 || int(t) >= len(workUnits) {
		return 0
	}
	return workUnits[t]
}

// MeanWorkUnits returns the mix's average work units per transaction.
func (m Mix) MeanWorkUnits() float64 {
	var total, weight float64
	for tx, share := range m {
		total += share * tx.work()
		weight += share
	}
	if weight == 0 {
		return 0
	}
	return total / weight
}

// normalize returns the mix scaled to sum to 1.
func (m Mix) normalize() (Mix, error) {
	var sum float64
	for _, share := range m {
		if share < 0 {
			return nil, errors.New("workload: negative mix share")
		}
		sum += share
	}
	if sum <= 0 {
		return nil, errors.New("workload: empty transaction mix")
	}
	out := make(Mix, len(m))
	for tx, share := range m {
		out[tx] = share / sum
	}
	return out, nil
}

// Config drives one simulated measurement interval.
type Config struct {
	// Seed makes the interval reproducible.
	Seed int64
	// CapacityOpsPerSec is the server's processing capacity in
	// work-unit-normalized transactions per second.
	CapacityOpsPerSec float64
	// TargetRate is the scheduled arrival rate in transactions per
	// second. Inf runs closed-loop (calibration); 0 is active idle.
	TargetRate float64
	// DurationSeconds is the simulated interval length.
	DurationSeconds float64
	// Mix overrides the transaction mix (nil = DefaultMix).
	Mix Mix
	// BatchTx is the number of transactions per scheduled batch; zero
	// sizes batches so roughly 200 batch events occur per simulated
	// second at full load.
	BatchTx int
}

// serviceCV is the coefficient of variation of batch service demand.
const serviceCV = 0.15

// Metrics is the outcome of one interval.
type Metrics struct {
	// OfferedTx and CompletedTx count transactions.
	OfferedTx, CompletedTx float64
	// OpsPerSec is achieved throughput in transactions per second.
	OpsPerSec float64
	// BusyFraction is the share of the interval the server spent
	// processing.
	BusyFraction float64
	// Latency percentiles over batch response times, in seconds.
	LatencyP50, LatencyP95, LatencyP99 float64
	// MeanLatency in seconds.
	MeanLatency float64
	// TxCounts is the per-type completion tally.
	TxCounts map[TxType]float64
}

// Sim carries reusable simulation scratch — the latency reservoir's
// sample and sorted buffers, the cumulative-mix table, and the
// reseedable random source — so a caller running many intervals
// (internal/bench runs 13+ per benchmark pass; internal/fleetsim runs
// one per latency sample) pays the buffer allocations once instead of
// per interval. A Sim is not safe for concurrent use; give each
// goroutine its own.
type Sim struct {
	res reservoir
	cum []float64
	rng *rand.Rand
	// Cached default-mix tables: the cumulative sampling distribution
	// and mean work units, built on the first nil-Mix interval so the
	// steady-state path never touches the Mix map.
	defCum      [len(allTxTypes)]float64
	defMeanWork float64
	defReady    bool
}

// NewSim returns an empty scratch holder; buffers grow on first use.
func NewSim() *Sim {
	return &Sim{}
}

// Simulate runs one measurement interval. It is shorthand for
// NewSim().Simulate(cfg); loops over intervals should hold a Sim and
// reuse it.
func Simulate(cfg Config) (Metrics, error) {
	return NewSim().Simulate(cfg)
}

// Simulate runs one measurement interval, reusing the Sim's scratch
// buffers. Identical configurations produce identical metrics whether
// the Sim is fresh or reused. It wraps Interval, converting the
// fixed-array tallies to the map form; loops that cannot afford the
// map allocation should call Interval directly.
func (s *Sim) Simulate(cfg Config) (Metrics, error) {
	im, err := s.Interval(cfg)
	if err != nil {
		return Metrics{}, err
	}
	m := Metrics{
		OfferedTx:    im.OfferedTx,
		CompletedTx:  im.CompletedTx,
		OpsPerSec:    im.OpsPerSec,
		BusyFraction: im.BusyFraction,
		LatencyP50:   im.LatencyP50,
		LatencyP95:   im.LatencyP95,
		LatencyP99:   im.LatencyP99,
		MeanLatency:  im.MeanLatency,
		TxCounts:     make(map[TxType]float64, len(allTxTypes)),
	}
	for tx, n := range im.TxCounts {
		if n > 0 {
			m.TxCounts[TxType(tx)] = n
		}
	}
	return m, nil
}

// IntervalMetrics is the outcome of one interval in allocation-free
// form: the per-type tally is a fixed array indexed by TxType value
// (index 0 unused) instead of a map. internal/fleetsim's latency
// sampling uses this so the simulator inner loop stays off the heap.
type IntervalMetrics struct {
	// OfferedTx and CompletedTx count transactions.
	OfferedTx, CompletedTx float64
	// OpsPerSec is achieved throughput in transactions per second.
	OpsPerSec float64
	// BusyFraction is the share of the interval the server spent
	// processing.
	BusyFraction float64
	// Latency percentiles over batch response times, in seconds.
	LatencyP50, LatencyP95, LatencyP99 float64
	// MeanLatency in seconds.
	MeanLatency float64
	// TxCounts is the per-type completion tally, indexed by TxType.
	TxCounts [len(allTxTypes) + 1]float64
}

// Interval runs one measurement interval, reusing every piece of the
// Sim's scratch: the latency reservoir, the cumulative-mix table, and
// the reseeded random source. With a nil Mix it performs zero heap
// allocations in steady state (after the first call has sized the
// buffers for the configuration); a custom Mix pays the map
// normalization per call. Results are identical to Simulate's for the
// same Config, fresh Sim or reused.
func (s *Sim) Interval(cfg Config) (IntervalMetrics, error) {
	var m IntervalMetrics
	if cfg.CapacityOpsPerSec <= 0 {
		return m, fmt.Errorf("workload: capacity %v", cfg.CapacityOpsPerSec)
	}
	if cfg.DurationSeconds <= 0 {
		return m, fmt.Errorf("workload: duration %v", cfg.DurationSeconds)
	}
	if cfg.TargetRate < 0 {
		return m, fmt.Errorf("workload: target rate %v", cfg.TargetRate)
	}
	// Cumulative mix table for sampling batch composition and the
	// mix's mean work units. The default mix is cached in the Sim; a
	// custom mix is normalized into the reusable scratch slice.
	var cum []float64
	var meanWork float64
	if cfg.Mix == nil {
		if !s.defReady {
			mix, err := DefaultMix().normalize()
			if err != nil {
				return m, err
			}
			var acc float64
			for i, tx := range allTxTypes {
				acc += mix[tx]
				s.defCum[i] = acc
			}
			s.defMeanWork = mix.MeanWorkUnits()
			s.defReady = true
		}
		cum = s.defCum[:]
		meanWork = s.defMeanWork
	} else {
		mix, err := cfg.Mix.normalize()
		if err != nil {
			return m, err
		}
		if cap(s.cum) < len(allTxTypes) {
			s.cum = make([]float64, len(allTxTypes))
		}
		cum = s.cum[:len(allTxTypes)]
		var acc float64
		for i, tx := range allTxTypes {
			acc += mix[tx]
			cum[i] = acc
		}
		meanWork = mix.MeanWorkUnits()
	}
	batch := cfg.BatchTx
	if batch <= 0 {
		batch = int(math.Max(1, cfg.CapacityOpsPerSec/200))
	}
	// Reseeding the held source yields the same stream a fresh
	// rand.New(rand.NewSource(seed)) would.
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(cfg.Seed))
	} else {
		s.rng.Seed(cfg.Seed)
	}
	rng := s.rng

	if cfg.TargetRate == 0 {
		return m, nil // active idle: no arrivals, no busy time
	}

	// Lognormal service multiplier with coefficient of variation
	// serviceCV. cv is a float64 variable so 1+cv*cv rounds at run time,
	// not as an exact constant expression.
	cv := serviceCV
	sigma := math.Sqrt(math.Log(1 + cv*cv))
	mu := -sigma * sigma / 2

	closedLoop := math.IsInf(cfg.TargetRate, 1)
	batchRate := cfg.TargetRate / float64(batch)

	// Size the latency reservoir's first allocation from the expected
	// batch count instead of always reserving the full window.
	expected := cfg.DurationSeconds * cfg.CapacityOpsPerSec / float64(batch)
	if !closedLoop {
		expected = batchRate * cfg.DurationSeconds
	}
	s.res.reset(rng, reservoirSize, int(expected)+1)

	var (
		clock      float64 // arrival clock
		serverFree float64
		busy       float64
		totalWait  float64
		nowArrival float64
		// Per-batch and per-interval completion tallies, indexed by
		// TxType (1..6): fixed arrays instead of a map per batch keep
		// the compose loop allocation-free and off the map hash path.
		counts, totals [len(allTxTypes) + 1]int
	)
	for {
		if closedLoop {
			nowArrival = serverFree // back-to-back batches
		} else {
			// Scheduled arrivals with bounded jitter: the real
			// benchmark's controller keeps offered load on target.
			clock += (0.5 + rng.Float64()) / batchRate
			nowArrival = clock
		}
		if nowArrival >= cfg.DurationSeconds {
			break
		}
		// Compose the batch.
		var work float64
		counts = [len(allTxTypes) + 1]int{}
		for i := 0; i < batch; i++ {
			x := rng.Float64()
			tx := allTxTypes[len(allTxTypes)-1]
			for j, c := range cum {
				if x <= c {
					tx = allTxTypes[j]
					break
				}
			}
			counts[tx]++
			work += workUnits[tx] // tx comes from allTxTypes: always in range
		}
		service := work / meanWork / cfg.CapacityOpsPerSec * math.Exp(mu+sigma*rng.NormFloat64())
		start := math.Max(nowArrival, serverFree)
		complete := start + service
		if complete > cfg.DurationSeconds {
			// The interval ends before this batch completes; the real
			// benchmark discards in-flight work at interval boundaries.
			busy += math.Max(0, cfg.DurationSeconds-start)
			break
		}
		serverFree = complete
		busy += service
		m.OfferedTx += float64(batch)
		m.CompletedTx += float64(batch)
		for tx, n := range counts {
			totals[tx] += n
		}
		lat := complete - nowArrival
		totalWait += lat
		s.res.add(lat)
	}
	for tx, n := range totals {
		if n > 0 {
			m.TxCounts[tx] = float64(n)
		}
	}
	m.OpsPerSec = m.CompletedTx / cfg.DurationSeconds
	m.BusyFraction = math.Min(1, busy/cfg.DurationSeconds)
	if n := m.CompletedTx / float64(batch); n > 0 {
		m.MeanLatency = totalWait / n
	}
	m.LatencyP50, m.LatencyP95, m.LatencyP99 = s.res.percentiles()
	return m, nil
}

// reservoirSize is the uniform-sample window of the latency recorder.
const reservoirSize = 4096

// reservoir is a fixed-size uniform sample of latencies with a cached
// sorted view: percentile queries sort once after the last append and
// reuse the sorted buffer until the next append invalidates it (the old
// recorder copied and re-sorted every sample on every query).
type reservoir struct {
	samples []float64
	// sorted is the cached ascending copy of samples; valid while
	// !dirty. Both buffers survive reset so repeated intervals reuse
	// them.
	sorted []float64
	dirty  bool
	max    int
	seen   int
	rng    *rand.Rand
}

func newReservoir(size int, rng *rand.Rand) *reservoir {
	r := &reservoir{}
	r.reset(rng, size, size)
	return r
}

// reset prepares the reservoir for a new interval, keeping the backing
// buffers. max bounds the sample window; hint sizes the first
// allocation (clamped to max) so short intervals don't reserve the full
// window.
func (r *reservoir) reset(rng *rand.Rand, max, hint int) {
	if hint > max {
		hint = max
	}
	if hint < 0 {
		hint = 0
	}
	if cap(r.samples) < hint {
		r.samples = make([]float64, 0, hint)
	}
	r.samples = r.samples[:0]
	r.dirty = true
	r.max = max
	r.seen = 0
	r.rng = rng
}

func (r *reservoir) add(v float64) {
	r.seen++
	r.dirty = true
	if len(r.samples) < r.max {
		r.samples = append(r.samples, v)
		return
	}
	if i := r.rng.Intn(r.seen); i < len(r.samples) {
		r.samples[i] = v
	}
}

// sortedView returns the samples in ascending order, sorting only when
// an append invalidated the cache.
func (r *reservoir) sortedView() []float64 {
	if r.dirty {
		r.sorted = append(r.sorted[:0], r.samples...)
		sort.Float64s(r.sorted)
		r.dirty = false
	}
	return r.sorted
}

// percentile returns the q-quantile (0 ≤ q ≤ 1) by the same
// nearest-rank rule the recorder has always used.
func (r *reservoir) percentile(q float64) float64 {
	sorted := r.sortedView()
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

func (r *reservoir) percentiles() (p50, p95, p99 float64) {
	if len(r.samples) == 0 {
		return 0, 0, 0
	}
	return r.percentile(0.50), r.percentile(0.95), r.percentile(0.99)
}

// MaxRateUnderSLA finds, by bisection, the highest sustainable arrival
// rate (tx/s) whose simulated p99 batch latency stays at or below
// slaP99Seconds. Latency-critical services derate their servers this
// way: the resulting rate over capacity is the utilization cap a
// placement engine must respect (the paper's ref [9]).
func MaxRateUnderSLA(cfg Config, slaP99Seconds float64) (float64, error) {
	if slaP99Seconds <= 0 {
		return 0, fmt.Errorf("workload: SLA %v", slaP99Seconds)
	}
	sim := NewSim() // one scratch across all bisection probes
	probe := func(rate float64) (float64, error) {
		c := cfg
		c.TargetRate = rate
		m, err := sim.Simulate(c)
		if err != nil {
			return 0, err
		}
		return m.LatencyP99, nil
	}
	// The minimum possible p99 is one batch service time; an SLA below
	// that is unattainable.
	low, err := probe(0.05 * cfg.CapacityOpsPerSec)
	if err != nil {
		return 0, err
	}
	if low > slaP99Seconds {
		return 0, fmt.Errorf("workload: SLA %.4fs below minimum service latency %.4fs",
			slaP99Seconds, low)
	}
	lo, hi := 0.05*cfg.CapacityOpsPerSec, cfg.CapacityOpsPerSec
	for i := 0; i < 12; i++ {
		mid := (lo + hi) / 2
		p99, err := probe(mid)
		if err != nil {
			return 0, err
		}
		if p99 <= slaP99Seconds {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}
