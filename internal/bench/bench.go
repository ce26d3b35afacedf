// Package bench is a SPECpower_ssj2008-style benchmark harness driving
// the server models in internal/power. It replicates the benchmark's
// methodology — a calibration phase that discovers the system's maximum
// ssj_ops, then graduated measurement intervals at descending target
// loads (100% down to 10%) followed by active idle — with a simulated
// power analyzer and load scheduler, and emits a dataset.Result exactly
// like a published disclosure.
//
// The simulation advances second by second within each interval:
// transaction arrivals follow the scheduled exponential inter-arrival
// pattern of the real benchmark (approximated by per-second Gaussian
// counts), the server completes what capacity allows, and the analyzer
// samples wall power with calibrated noise.
package bench

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/power"
	"repro/internal/workload"
)

// Fidelity selects the simulation granularity of a run.
type Fidelity int

// Fidelity levels. The zero value selects FidelityFast.
const (
	// FidelityFast aggregates load per second: cheap and sufficient for
	// every power/efficiency result.
	FidelityFast Fidelity = iota + 1
	// FidelityTransaction drives the full transaction-level ssj
	// workload simulator (internal/workload): batches, transaction mix,
	// queueing, and latency percentiles. Slower; adds latency metrics
	// to each interval.
	FidelityTransaction
)

// Defaults mirroring the real benchmark's run rules.
const (
	DefaultIntervalSeconds      = 240
	DefaultCalibrationIntervals = 3
	// DefaultPowerNoiseFrac is the relative σ of the simulated power
	// analyzer (SPEC accepts analyzers with ≤1% uncertainty).
	DefaultPowerNoiseFrac = 0.004
	// DefaultLoadNoiseFrac is the relative σ of per-second scheduled
	// arrivals around the target rate.
	DefaultLoadNoiseFrac = 0.01
)

// Config controls one simulated run.
type Config struct {
	// Server is the modeled machine under test.
	Server power.ServerConfig
	// Governor selects the CPU frequency policy.
	Governor power.Governor
	// Seed drives all simulation randomness; equal seeds reproduce runs
	// bit for bit.
	Seed int64
	// IntervalSeconds is the length of each measurement interval.
	// Zero selects DefaultIntervalSeconds.
	IntervalSeconds int
	// CalibrationIntervals is the number of full-load calibration
	// intervals. Zero selects DefaultCalibrationIntervals.
	CalibrationIntervals int
	// PowerNoiseFrac overrides the analyzer noise; zero selects the
	// default. Negative disables noise.
	PowerNoiseFrac float64
	// LoadNoiseFrac overrides scheduler jitter; zero selects the
	// default. Negative disables jitter.
	LoadNoiseFrac float64
	// Fidelity selects per-second aggregation (default) or the full
	// transaction-level workload simulation.
	Fidelity Fidelity
	// Nodes runs a multi-node test: N identical nodes driven together,
	// their throughput and power summed (plus a small shared-enclosure
	// overhead), the way SPEC multi-node disclosures are measured.
	// Zero or one selects a single-node run.
	Nodes int
}

func (c Config) nodes() int {
	if c.Nodes <= 1 {
		return 1
	}
	return c.Nodes
}

// enclosureWattsPerNode is the shared chassis/switching overhead a
// multi-node enclosure adds per node.
const enclosureWattsPerNode = 12.0

func (c Config) fidelity() Fidelity {
	if c.Fidelity == 0 {
		return FidelityFast
	}
	return c.Fidelity
}

func (c Config) intervalSeconds() int {
	if c.IntervalSeconds == 0 {
		return DefaultIntervalSeconds
	}
	return c.IntervalSeconds
}

func (c Config) calibrationIntervals() int {
	if c.CalibrationIntervals <= 0 {
		return DefaultCalibrationIntervals
	}
	return c.CalibrationIntervals
}

func (c Config) powerNoise() float64 {
	switch {
	case c.PowerNoiseFrac < 0:
		return 0
	case c.PowerNoiseFrac == 0:
		return DefaultPowerNoiseFrac
	default:
		return c.PowerNoiseFrac
	}
}

func (c Config) loadNoise() float64 {
	switch {
	case c.LoadNoiseFrac < 0:
		return 0
	case c.LoadNoiseFrac == 0:
		return DefaultLoadNoiseFrac
	default:
		return c.LoadNoiseFrac
	}
}

// Interval is one measured interval of a run.
type Interval struct {
	// TargetLoad is the scheduled fraction of calibrated throughput
	// (0 for active idle).
	TargetLoad float64
	// ActualLoad is achieved throughput over calibrated throughput.
	ActualLoad float64
	// OpsPerSec is the average achieved throughput.
	OpsPerSec float64
	// AvgPowerWatts is the analyzer's average wall power reading.
	AvgPowerWatts float64
	// Latency percentiles in seconds, populated only under
	// FidelityTransaction.
	LatencyP50, LatencyP95, LatencyP99 float64
}

// EE returns the interval's ops per watt.
func (iv Interval) EE() float64 {
	if iv.AvgPowerWatts <= 0 {
		return 0
	}
	return iv.OpsPerSec / iv.AvgPowerWatts
}

// Result is the outcome of one simulated run.
type Result struct {
	// CalibratedOps is the maximum throughput discovered during
	// calibration.
	CalibratedOps float64
	// BusyFreqGHz is the effective frequency the governor ran busy
	// phases at.
	BusyFreqGHz float64
	// Governor is the policy name.
	Governor string
	// ActiveIdle is the zero-load interval.
	ActiveIdle Interval
	// Levels are the graduated intervals ordered 10%..100%.
	Levels []Interval
	// Nodes is the number of identical nodes under test (1 for single
	// node).
	Nodes int
}

// OverallEE returns the SPECpower score of the run: Σ ops / Σ power
// over the ten levels plus active idle.
func (r *Result) OverallEE() float64 {
	var ops, watts float64
	for _, lv := range r.Levels {
		ops += lv.OpsPerSec
		watts += lv.AvgPowerWatts
	}
	watts += r.ActiveIdle.AvgPowerWatts
	if watts <= 0 {
		return 0
	}
	return ops / watts
}

// PeakEE returns the best per-level efficiency and the target load
// where it occurs.
func (r *Result) PeakEE() (float64, float64) {
	var best, at float64
	for _, lv := range r.Levels {
		if ee := lv.EE(); ee > best {
			best, at = ee, lv.TargetLoad
		}
	}
	return best, at
}

// PeakPowerWatts returns the highest interval power of the run.
func (r *Result) PeakPowerWatts() float64 {
	peak := r.ActiveIdle.AvgPowerWatts
	for _, lv := range r.Levels {
		if lv.AvgPowerWatts > peak {
			peak = lv.AvgPowerWatts
		}
	}
	return peak
}

// Runner executes simulated SPECpower runs.
type Runner struct {
	cfg Config
	rng *rand.Rand
	// sim holds the transaction simulator's scratch buffers, reused
	// across the run's intervals under FidelityTransaction.
	sim *workload.Sim
}

// NewRunner validates the configuration and builds a Runner.
func NewRunner(cfg Config) (*Runner, error) {
	if cfg.IntervalSeconds < 0 {
		return nil, fmt.Errorf("bench: interval %d s: want a positive interval, or 0 for the default", cfg.IntervalSeconds)
	}
	if err := cfg.Server.Validate(); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	if _, err := cfg.Governor.BusyFrequency(cfg.Server); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	return &Runner{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Run performs calibration, the ten graduated intervals, and active
// idle, returning the assembled result.
func (rn *Runner) Run() (*Result, error) {
	srv := rn.cfg.Server
	gov := rn.cfg.Governor
	freq, err := gov.BusyFrequency(srv)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	nodes := float64(rn.cfg.nodes())
	capacity := srv.MaxThroughput(freq) * gov.ThroughputFactor() * nodes

	// Calibration: run unthrottled intervals and take the mean achieved
	// throughput as the calibrated maximum (the real benchmark averages
	// its final calibration intervals).
	var calSum float64
	for i := 0; i < rn.cfg.calibrationIntervals(); i++ {
		iv := rn.measureInterval(capacity, math.Inf(1), capacity, freq)
		calSum += iv.OpsPerSec
	}
	calibrated := calSum / float64(rn.cfg.calibrationIntervals())

	res := &Result{
		CalibratedOps: calibrated,
		BusyFreqGHz:   freq,
		Governor:      gov.Name(),
		Levels:        make([]Interval, 10),
		Nodes:         rn.cfg.nodes(),
	}
	// Graduated intervals run from 100% down to 10% in the real
	// benchmark; store ascending to match disclosure order.
	for pct := 100; pct >= 10; pct -= 10 {
		target := float64(pct) / 100
		iv := rn.measureInterval(capacity, target*calibrated, calibrated, freq)
		iv.TargetLoad = target
		res.Levels[pct/10-1] = iv
	}
	res.ActiveIdle = rn.measureInterval(capacity, 0, calibrated, freq)
	return res, nil
}

// measureInterval simulates one interval at the given scheduled
// arrival rate (ops/s; +Inf means unthrottled calibration).
func (rn *Runner) measureInterval(capacity, targetRate, calibrated, freq float64) Interval {
	if rn.cfg.fidelity() == FidelityTransaction {
		return rn.measureTransactionInterval(capacity, targetRate, calibrated, freq)
	}
	seconds := rn.cfg.intervalSeconds()
	loadNoise := rn.cfg.loadNoise()
	powerNoise := rn.cfg.powerNoise()
	srv := rn.cfg.Server

	var opsTotal, wattSum float64
	for s := 0; s < seconds; s++ {
		scheduled := capacity
		if !math.IsInf(targetRate, 1) {
			scheduled = targetRate * (1 + loadNoise*rn.rng.NormFloat64())
			if scheduled < 0 {
				scheduled = 0
			}
		}
		done := math.Min(scheduled, capacity)
		busy := 0.0
		if capacity > 0 {
			busy = done / capacity
		}
		nodes := float64(rn.cfg.nodes())
		watts := srv.WallPower(busy, freq)*nodes + enclosureOverhead(rn.cfg.nodes())
		watts *= 1 + powerNoise*rn.rng.NormFloat64()
		opsTotal += done
		wattSum += watts
	}
	iv := Interval{
		OpsPerSec:     opsTotal / float64(seconds),
		AvgPowerWatts: wattSum / float64(seconds),
	}
	if calibrated > 0 {
		iv.ActualLoad = iv.OpsPerSec / calibrated
	}
	return iv
}

// measureTransactionInterval runs one interval through the
// transaction-level workload simulator: scheduled batches, the ssj
// transaction mix, queueing, and latency tracking. Power is read from
// the model at the simulated busy fraction with analyzer noise averaged
// over the interval's one-second samples.
func (rn *Runner) measureTransactionInterval(capacity, targetRate, calibrated, freq float64) Interval {
	seconds := rn.cfg.intervalSeconds()
	if rn.sim == nil {
		rn.sim = workload.NewSim()
	}
	m, err := rn.sim.Simulate(workload.Config{
		Seed:              rn.rng.Int63(),
		CapacityOpsPerSec: capacity,
		TargetRate:        targetRate,
		DurationSeconds:   float64(seconds),
	})
	if err != nil {
		// Capacity and duration are validated at construction; a zero
		// target is the idle interval which Simulate accepts, so this
		// path is unreachable in practice — degrade to an idle reading.
		m = workload.Metrics{}
	}
	watts := rn.cfg.Server.WallPower(m.BusyFraction, freq)*float64(rn.cfg.nodes()) +
		enclosureOverhead(rn.cfg.nodes())
	// The analyzer averages one sample per second; noise shrinks with
	// the square root of the interval length.
	watts *= 1 + rn.cfg.powerNoise()/math.Sqrt(float64(seconds))*rn.rng.NormFloat64()
	iv := Interval{
		OpsPerSec:     m.OpsPerSec,
		AvgPowerWatts: watts,
		LatencyP50:    m.LatencyP50,
		LatencyP95:    m.LatencyP95,
		LatencyP99:    m.LatencyP99,
	}
	if calibrated > 0 {
		iv.ActualLoad = iv.OpsPerSec / calibrated
	}
	return iv
}

// ToDatasetResult converts a run into a dataset.Result disclosure for
// the given identity fields, so simulated runs flow through the same
// analysis pipeline as published results. Multi-node runs disclose
// their node count and enclosure form factor.
func (r *Result) ToDatasetResult(id string, srv power.ServerConfig) *dataset.Result {
	nodes := 1
	if r.Nodes > 1 {
		nodes = r.Nodes
	}
	form := dataset.FormRack
	if nodes > 1 {
		form = dataset.FormMultiNode
	}
	out := &dataset.Result{
		ID:               id,
		Vendor:           "Simulated",
		System:           srv.Name,
		FormFactor:       form,
		PublishedYear:    srv.HWYear,
		PublishedQuarter: 1,
		HWAvailYear:      srv.HWYear,
		HWAvailQuarter:   1,
		Nodes:            nodes,
		Chips:            srv.CPUCount * nodes,
		CoresPerChip:     srv.CPU.Cores,
		CPUModel:         srv.CPU.Model,
		Codename:         srv.CPU.Codename,
		NominalGHz:       srv.CPU.NominalGHz,
		MemoryGB:         srv.MemoryGB() * float64(nodes),
		JVM:              "ssjsim (simulated)",
		OS:               "simulated",
		ActiveIdleWatts:  r.ActiveIdle.AvgPowerWatts,
		Levels:           make([]dataset.LoadLevel, len(r.Levels)),
	}
	for i, lv := range r.Levels {
		out.Levels[i] = dataset.LoadLevel{
			TargetLoad:    lv.TargetLoad,
			ActualLoad:    lv.ActualLoad,
			OpsPerSec:     lv.OpsPerSec,
			AvgPowerWatts: lv.AvgPowerWatts,
		}
	}
	return out
}

// enclosureOverhead returns the shared multi-node chassis draw; zero
// for single-node runs.
func enclosureOverhead(nodes int) float64 {
	if nodes <= 1 {
		return 0
	}
	return enclosureWattsPerNode * float64(nodes)
}
