// Package fleetsim is a streaming time-stepped fleet simulator: it
// replays a demand trace (diurnal or bursty generators, or a CSV trace
// file — internal/trace) against a composed fleet and accounts energy,
// server on/off transitions, demand coverage, and sampled tail latency
// per interval.
//
// The paper's EP metric describes a server at static utilization
// points; real fleets see demand that swings hour by hour, which is
// where proportionality is earned or lost ("On the Energy
// Proportionality of Scale-Out Workloads", PAPERS.md). The simulator
// prices the operational half of that story: when to power servers on
// and off given transition energy costs and hysteresis (the
// consolidation decisions of Beloglazov et al.'s taxonomy), and what
// the latency-critical marginal server experiences meanwhile.
//
// The perf core is incremental cluster state. The fleet's pack-order
// prefix sums (cluster.Evaluator) are composed once per simulation;
// each step then updates the active set from the previous step's state
// and evaluates power by binary search, so a step costs
// O(log n + Δservers) instead of the O(n) full recompose. Hysteresis
// is a sliding-window maximum over the needed-server count, maintained
// by a monotonic deque in O(1) amortized — and, because the window is
// the only power-management memory, any trace segment can rebuild the
// exact simulation state by replaying just the window before its first
// step. Run exploits that: fixed-size segments fan out over
// internal/par and stitch back deterministically, so output is
// byte-identical at any worker count.
package fleetsim

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/par"
	"repro/internal/placement"
	"repro/internal/trace"
)

// PowerConfig prices the on/off consolidation decisions.
type PowerConfig struct {
	// OnSeconds and OffSeconds are the per-server transition
	// durations: powering a server on costs OnSeconds at its full-load
	// draw (boot is busy), powering it off costs OffSeconds at its
	// active-idle draw (drain is idle). Zero makes transitions free.
	OnSeconds, OffSeconds float64
	// HysteresisSteps delays power-off: a server stays on until the
	// needed-server count has been below the active set for this many
	// consecutive steps. Power-on is immediate — the fleet is sized
	// for latency first. Zero shrinks the active set as soon as demand
	// drops.
	HysteresisSteps int
	// HeadroomFrac sizes the active set for demand*(1+HeadroomFrac),
	// keeping warm capacity for the next swing. Zero sizes exactly.
	HeadroomFrac float64
	// MinActive is the floor on the active set.
	MinActive int
}

// LatencyConfig controls sampled tail-latency accounting.
type LatencyConfig struct {
	// Every runs one transaction-level workload interval
	// (internal/workload) on the marginal server every Every steps;
	// zero disables latency accounting.
	Every int
}

// Config describes one simulation.
type Config struct {
	// Members is the composed fleet, in pack order.
	Members []*placement.Profile
	// Groups optionally gives the fleet as homogeneous (model, count)
	// runs instead of an expanded member list — the composition
	// optimizer replays candidate fleets this way without materializing
	// per-server slices. Exactly one of Members and Groups may be set;
	// the result is bit-identical to simulating the expanded list.
	Groups []placement.Group
	// Policy is the load-distribution policy. PolicyPackPowerOff is
	// the managed policy — the active set follows demand through the
	// power model; the others keep every server on. The perf target
	// (100k servers × a 1-minute week in seconds) applies to the pack
	// policies; PolicySpread and PolicyOptimalRegion pay an inherent
	// O(n) power sum per step.
	Policy cluster.Policy
	// Trace is the demand time series to replay.
	Trace *trace.Trace
	// Power prices on/off transitions and hysteresis.
	Power PowerConfig
	// Latency samples tail latency through internal/workload.
	Latency LatencyConfig
	// Seed derives the per-step latency-sample seeds.
	Seed int64
	// Sink, when set, receives every step's accounting in step order.
	Sink func(StepStats) error

	// Carbon, when set, is a time-varying grid carbon-intensity profile
	// (kgCO₂/kWh) aligned to the trace at validation; each step books
	// CarbonKg = rate(t) × facility energy. Price does the same for a
	// USD/kWh signal. PUE scales IT energy to facility energy for both
	// (zero means 1.0). Billing is an O(1) per-step lookup into the
	// aligned rate slice, so a priced run costs the same as an unpriced
	// one.
	Carbon *trace.IntensityProfile
	Price  *trace.IntensityProfile
	PUE    float64

	// carbonRates/priceRates are the profiles aligned to one rate per
	// trace step, set by validate.
	carbonRates, priceRates []float64
}

// StepStats is one interval's accounting.
type StepStats struct {
	// Step is the interval index.
	Step int
	// DemandOps is the offered load; ServedOps what the active set
	// covered; UnservedOps the saturation shortfall.
	DemandOps, ServedOps, UnservedOps float64
	// Active is the powered-on server count; PoweredOn/PoweredOff are
	// this step's transitions.
	Active                int
	PoweredOn, PoweredOff int
	// PowerWatts is the fleet draw while serving; TransitionJ the
	// transition energy booked this step; EnergyJ the interval total
	// (draw × step + transitions).
	PowerWatts  float64
	TransitionJ float64
	EnergyJ     float64
	// Sampled reports whether this step ran a workload latency
	// interval; the percentiles are batch response times in seconds.
	Sampled                            bool
	LatencyP50, LatencyP95, LatencyP99 float64
	// CarbonKg and CostUSD price this step's facility energy at the
	// step's aligned Carbon/Price rates; zero unless the profiles are
	// configured.
	CarbonKg float64 `json:",omitempty"`
	CostUSD  float64 `json:",omitempty"`
}

// Result summarizes a simulation.
type Result struct {
	Policy      cluster.Policy
	Servers     int
	Steps       int
	StepSeconds float64
	CapacityOps float64

	// EnergyKWh is the total electrical energy including transitions;
	// TransitionKWh is the transition share of it.
	EnergyKWh, TransitionKWh float64
	// AvgPowerWatts and PeakPowerWatts summarize the serving draw.
	AvgPowerWatts, PeakPowerWatts float64
	// ServedOps and UnservedOps are per-step averages.
	ServedOps, UnservedOps float64
	// AvgEE is served throughput over power, averaged across steps
	// that served demand.
	AvgEE float64

	// Active-set and transition totals.
	AvgActive             float64
	MinActive, MaxActive  int
	PoweredOn, PoweredOff int

	// Latency aggregates over the sampled intervals.
	LatencySamples                              int
	AvgLatencyP50, AvgLatencyP95, AvgLatencyP99 float64
	MaxLatencyP99                               float64

	// CarbonKg and CostUSD total the per-step time-varying billing;
	// zero unless Config.Carbon/Price are set.
	CarbonKg float64 `json:",omitempty"`
	CostUSD  float64 `json:",omitempty"`
}

// finiteNonNeg reports whether v is a finite value >= 0; NaN fails.
func finiteNonNeg(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// validate checks the configuration and composes the fleet evaluator.
func validate(cfg *Config) (*cluster.Evaluator, error) {
	if cfg.Trace == nil || len(cfg.Trace.DemandOps) == 0 {
		return nil, errors.New("fleetsim: empty trace")
	}
	if s := cfg.Trace.StepSeconds; s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return nil, fmt.Errorf("fleetsim: step %v", s)
	}
	for i, d := range cfg.Trace.DemandOps {
		if math.IsNaN(d) || math.IsInf(d, 0) {
			return nil, fmt.Errorf("fleetsim: demand at step %d is %v", i, d)
		}
	}
	p := cfg.Power
	if !finiteNonNeg(p.OnSeconds) || !finiteNonNeg(p.OffSeconds) || !finiteNonNeg(p.HeadroomFrac) ||
		p.HysteresisSteps < 0 || p.MinActive < 0 {
		return nil, fmt.Errorf("fleetsim: invalid power config %+v", p)
	}
	if cfg.Latency.Every < 0 {
		return nil, fmt.Errorf("fleetsim: latency sample period %d", cfg.Latency.Every)
	}
	if cfg.PUE != 0 && (cfg.PUE < 1 || math.IsNaN(cfg.PUE) || math.IsInf(cfg.PUE, 0)) {
		return nil, &trace.RateError{Field: "PUE", Index: -1, Value: cfg.PUE}
	}
	cfg.carbonRates, cfg.priceRates = nil, nil
	if cfg.Carbon != nil {
		rates, err := cfg.Carbon.Align(len(cfg.Trace.DemandOps), cfg.Trace.StepSeconds)
		if err != nil {
			return nil, fmt.Errorf("fleetsim: carbon profile: %w", err)
		}
		cfg.carbonRates = rates
	}
	if cfg.Price != nil {
		rates, err := cfg.Price.Align(len(cfg.Trace.DemandOps), cfg.Trace.StepSeconds)
		if err != nil {
			return nil, fmt.Errorf("fleetsim: price profile: %w", err)
		}
		cfg.priceRates = rates
	}
	if len(cfg.Groups) > 0 {
		if len(cfg.Members) > 0 {
			return nil, errors.New("fleetsim: set Members or Groups, not both")
		}
		return cluster.NewGroupedEvaluator(cfg.Groups, cfg.Policy)
	}
	return cluster.NewEvaluator(cfg.Members, cfg.Policy)
}

// segmentSteps is the fixed trace-segment size Run shards on. It is a
// constant — never derived from the worker count — because segment
// boundaries define the summary reduction order; fixing them is what
// makes output byte-identical at any worker count.
const segmentSteps = 4096

// segmentBatch bounds how many segments are in flight at once, so
// per-step emission to a Sink holds at most segmentBatch×segmentSteps
// step records regardless of trace length.
const segmentBatch = 16

// segPartial is one segment's contribution to the summary, merged in
// segment order.
type segPartial struct {
	energyJ, transJ      float64
	powerSum, peakW      float64
	served, unserved     float64
	eeSum                float64
	eeSteps              int
	activeSum            int64
	minActive, maxActive int
	onN, offN            int
	carbonKg, costUSD    float64

	latCount               int
	latP50, latP95, latP99 float64
	latP99Max              float64

	steps []StepStats // populated only when a Sink drains them
}

func (p *segPartial) add(s StepStats) {
	p.energyJ += s.EnergyJ
	p.transJ += s.TransitionJ
	p.powerSum += s.PowerWatts
	p.peakW = max(p.peakW, s.PowerWatts)
	p.served += s.ServedOps
	p.unserved += s.UnservedOps
	if s.PowerWatts > 0 && s.ServedOps > 0 {
		p.eeSum += s.ServedOps / s.PowerWatts
		p.eeSteps++
	}
	p.activeSum += int64(s.Active)
	if s.Active < p.minActive {
		p.minActive = s.Active
	}
	if s.Active > p.maxActive {
		p.maxActive = s.Active
	}
	p.onN += s.PoweredOn
	p.offN += s.PoweredOff
	p.carbonKg += s.CarbonKg
	p.costUSD += s.CostUSD
	if s.Sampled {
		p.latCount++
		p.latP50 += s.LatencyP50
		p.latP95 += s.LatencyP95
		p.latP99 += s.LatencyP99
		p.latP99Max = max(p.latP99Max, s.LatencyP99)
	}
}

// Run replays the trace against the fleet. Trace segments of fixed
// size simulate independently across internal/par workers — each
// segment's stepper rebuilds the exact sequential state by replaying
// the hysteresis window before its first step — and stream to the
// calling goroutine, which emits them to the Sink and reduces the
// summary in segment order while later segments simulate, so the
// result and every emitted step are byte-identical at any worker
// count.
func Run(cfg Config) (Result, error) {
	ev, err := validate(&cfg)
	if err != nil {
		return Result{}, err
	}
	demands := cfg.Trace.DemandOps
	steps := len(demands)
	segs := (steps + segmentSteps - 1) / segmentSteps

	res := Result{
		Policy:      cfg.Policy,
		Servers:     ev.Len(),
		Steps:       steps,
		StepSeconds: cfg.Trace.StepSeconds,
		CapacityOps: ev.Capacity(),
		MinActive:   ev.Len() + 1,
	}
	var eeSum float64
	var eeSteps int
	err = par.Stream(segs, segmentBatch, func(seg int) (*segPartial, error) {
		return runSegment(cfg, ev, demands, seg, cfg.Sink != nil), nil
	}, func(_ int, p *segPartial) error {
		if cfg.Sink != nil {
			for _, s := range p.steps {
				if err := cfg.Sink(s); err != nil {
					return err
				}
			}
		}
		mergePartial(&res, p)
		eeSum += p.eeSum
		eeSteps += p.eeSteps
		return nil
	})
	if err != nil {
		return Result{}, err
	}

	n := float64(steps)
	res.EnergyKWh /= 3.6e6
	res.TransitionKWh /= 3.6e6
	res.AvgPowerWatts /= n
	res.ServedOps /= n
	res.UnservedOps /= n
	res.AvgActive /= n
	if eeSteps > 0 {
		res.AvgEE = eeSum / float64(eeSteps)
	}
	if res.MinActive > ev.Len() {
		res.MinActive = 0
	}
	if res.LatencySamples > 0 {
		c := float64(res.LatencySamples)
		res.AvgLatencyP50 /= c
		res.AvgLatencyP95 /= c
		res.AvgLatencyP99 /= c
	}
	return res, nil
}

// mergePartial folds one segment into the accumulating result; called
// in segment order. The EE mean is merged by the caller, which carries
// the sample count separately.
func mergePartial(res *Result, p *segPartial) {
	res.EnergyKWh += p.energyJ
	res.TransitionKWh += p.transJ
	res.AvgPowerWatts += p.powerSum
	res.PeakPowerWatts = max(res.PeakPowerWatts, p.peakW)
	res.ServedOps += p.served
	res.UnservedOps += p.unserved
	res.AvgActive += float64(p.activeSum)
	if p.minActive < res.MinActive {
		res.MinActive = p.minActive
	}
	if p.maxActive > res.MaxActive {
		res.MaxActive = p.maxActive
	}
	res.PoweredOn += p.onN
	res.PoweredOff += p.offN
	res.CarbonKg += p.carbonKg
	res.CostUSD += p.costUSD
	res.LatencySamples += p.latCount
	res.AvgLatencyP50 += p.latP50
	res.AvgLatencyP95 += p.latP95
	res.AvgLatencyP99 += p.latP99
	res.MaxLatencyP99 = max(res.MaxLatencyP99, p.latP99Max)
}

// runSegment simulates steps [seg*segmentSteps, ...) after priming the
// stepper with the hysteresis window that precedes them.
func runSegment(cfg Config, ev *cluster.Evaluator, demands []float64, seg int, collect bool) *segPartial {
	lo := seg * segmentSteps
	hi := lo + segmentSteps
	if hi > len(demands) {
		hi = len(demands)
	}
	st := newStepper(cfg, ev)
	st.prime(demands, lo)
	p := &segPartial{minActive: ev.Len() + 1}
	if collect {
		p.steps = make([]StepStats, 0, hi-lo)
	}
	for i := lo; i < hi; i++ {
		s := st.Step(demands[i])
		p.add(s)
		if collect {
			p.steps = append(p.steps, s)
		}
	}
	return p
}
