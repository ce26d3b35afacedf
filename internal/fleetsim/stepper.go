package fleetsim

import (
	"math"

	"repro/internal/cluster"
	"repro/internal/placement"
	"repro/internal/workload"
)

// Stepper is the incremental simulation core: it carries the composed
// fleet state (the cluster.Evaluator's prefix sums), the power-
// management window, and the reusable workload scratch from one time
// step to the next, so advancing the simulation by one interval costs
// O(log n + Δservers) instead of the O(n) full recompose that building
// the fleet state from scratch costs. A Stepper is sequential state —
// one goroutine per Stepper; Run gives each trace segment its own.
type Stepper struct {
	cfg Config
	ev  *cluster.Evaluator
	sim *workload.Sim

	// managed is true when the policy powers idle servers on and off
	// (PolicyPackPowerOff); the other policies keep the whole fleet on
	// and the active set is constant.
	managed bool
	// window is the hysteresis window length in steps: the active set
	// shrinks only when the needed-server count has been lower for the
	// whole window (HysteresisSteps trailing steps plus the current
	// one).
	window int

	// Monotonic deque over the needed-server counts of the last window
	// steps, in ring buffers of fixed capacity: values are strictly
	// decreasing from head to tail, so the front is the sliding-window
	// maximum — the active-set size — maintained in O(1) amortized per
	// step. This is what makes hysteresis memoryless beyond the window
	// and therefore shardable: any segment can rebuild the exact state
	// by replaying just the window before its first step.
	dqIdx  []int
	dqVal  []int
	dqHead int
	dqLen  int

	t          int // next step index
	prevActive int
	primed     bool // prevActive holds the previous step's active set
}

// NewStepper validates the configuration, composes the fleet state
// once, and returns a stepper positioned at step 0. Feed it the trace
// demands in order via Step.
func NewStepper(cfg Config) (*Stepper, error) {
	ev, err := validate(&cfg)
	if err != nil {
		return nil, err
	}
	return newStepper(cfg, ev), nil
}

// newStepper wraps an already-validated configuration and a shared
// (immutable) evaluator; Run calls this once per trace segment so the
// O(n) evaluator construction is paid once per simulation, not once
// per segment.
func newStepper(cfg Config, ev *cluster.Evaluator) *Stepper {
	st := &Stepper{
		cfg:     cfg,
		ev:      ev,
		managed: cfg.Policy == cluster.PolicyPackPowerOff,
		window:  cfg.Power.HysteresisSteps + 1,
	}
	if st.managed {
		st.dqIdx = make([]int, st.window)
		st.dqVal = make([]int, st.window)
	}
	if cfg.Latency.Every > 0 {
		st.sim = workload.NewSim()
	}
	return st
}

// Evaluator returns the composed fleet state the stepper steps on.
func (st *Stepper) Evaluator() *cluster.Evaluator { return st.ev }

// needed returns the server count demand d asks for: the pack-order
// prefix covering d plus the configured headroom, clamped to
// [MinActive, Len]. Demand beyond the fleet capacity saturates at the
// whole fleet.
func (st *Stepper) needed(d float64) int {
	if !st.managed {
		return st.ev.Len()
	}
	dh := d
	if h := st.cfg.Power.HeadroomFrac; h > 0 && d > 0 {
		dh = d * (1 + h)
	}
	k := st.ev.MinServers(dh)
	if k < st.cfg.Power.MinActive {
		k = st.cfg.Power.MinActive
	}
	if k > st.ev.Len() {
		k = st.ev.Len()
	}
	return k
}

// decide pushes step t's needed count into the hysteresis window and
// returns the active-set size for t: the maximum needed count over the
// last window steps.
func (st *Stepper) decide(t int, d float64) int {
	if !st.managed {
		return st.ev.Len()
	}
	n := st.needed(d)
	// Pop dominated entries off the back, push (t, n).
	for st.dqLen > 0 {
		back := (st.dqHead + st.dqLen - 1) % st.window
		if st.dqVal[back] > n {
			break
		}
		st.dqLen--
	}
	slot := (st.dqHead + st.dqLen) % st.window
	st.dqIdx[slot] = t
	st.dqVal[slot] = n
	st.dqLen++
	// Evict entries that left the window.
	for st.dqLen > 0 && st.dqIdx[st.dqHead] <= t-st.window {
		st.dqHead = (st.dqHead + 1) % st.window
		st.dqLen--
	}
	return st.dqVal[st.dqHead]
}

// prime replays the hysteresis window so the stepper's state matches a
// sequential run arriving at step start: only the needed-count window
// and the previous active set are rebuilt — no power or energy is
// evaluated. demands is the full trace; the next Step call must be fed
// demands[start].
func (st *Stepper) prime(demands []float64, start int) {
	st.t = start
	if start <= 0 {
		return
	}
	lo := start - st.window
	if lo < 0 {
		lo = 0
	}
	for i := lo; i < start; i++ {
		st.prevActive = st.decide(i, clampDemand(demands[i]))
	}
	st.primed = true
}

// clampDemand maps garbage demand to zero so a step never panics;
// Run's validation rejects non-finite traces up front, this is the
// last-resort guard for direct Stepper callers.
func clampDemand(d float64) float64 {
	if math.IsNaN(d) || d < 0 {
		return 0
	}
	return d
}

// Step advances the simulation by one interval serving demandOps and
// returns the interval's accounting. The step cost is O(log n) for the
// pack decision and power evaluation plus O(1) for the transition
// pricing (prefix-sum differences), independent of how many servers
// toggled. PolicySpread and PolicyOptimalRegion have no pack structure:
// their power is one pass over the evaluator's flat per-group arrays,
// with at most one profile evaluated live.
func (st *Stepper) Step(demandOps float64) StepStats {
	d := clampDemand(demandOps)
	t := st.t
	st.t++

	active := st.decide(t, d)
	prev := active
	if st.primed {
		prev = st.prevActive
	}
	st.primed = true
	st.prevActive = active

	s := StepStats{
		Step:      t,
		DemandOps: d,
		Active:    active,
	}
	var transJ float64
	switch {
	case active > prev:
		s.PoweredOn = active - prev
		transJ = st.cfg.Power.OnSeconds * (st.ev.PrefixPeakWatts(active) - st.ev.PrefixPeakWatts(prev))
	case active < prev:
		s.PoweredOff = prev - active
		transJ = st.cfg.Power.OffSeconds * (st.ev.SuffixIdleWatts(active) - st.ev.SuffixIdleWatts(prev))
	}

	var watts, served float64
	if st.managed {
		served = min(d, st.ev.PrefixCapacity(active))
		watts = st.ev.ActivePower(d, active)
	} else {
		served = min(d, st.ev.Capacity())
		watts = st.ev.PowerAt(d)
	}
	s.PowerWatts = watts
	s.TransitionJ = transJ
	s.EnergyJ = watts*st.cfg.Trace.StepSeconds + transJ
	s.ServedOps = served
	s.UnservedOps = d - served

	// Time-varying billing: one aligned-slice lookup per configured
	// signal, facility energy via PUE, J → kWh. The index guard covers
	// direct Stepper callers stepping past the trace end.
	if st.cfg.carbonRates != nil || st.cfg.priceRates != nil {
		pue := st.cfg.PUE
		if pue == 0 {
			pue = 1
		}
		facilityKWh := s.EnergyJ * pue / 3.6e6
		if r := st.cfg.carbonRates; t < len(r) {
			s.CarbonKg = r[t] * facilityKWh
		}
		if r := st.cfg.priceRates; t < len(r) {
			s.CostUSD = r[t] * facilityKWh
		}
	}

	if every := st.cfg.Latency.Every; every > 0 && t%every == 0 {
		st.sampleLatency(&s, served)
	}
	return s
}

// sampleLatency runs one transaction-level workload interval on the
// marginal server — the last engaged member, the one whose utilization
// the packing decision actually set — at its current load, reusing the
// stepper's workload.Sim so steady-state sampling allocates nothing.
// The per-step derived seed makes the sample a function of the step
// index alone, so sharded runs reproduce it bit-for-bit.
func (st *Stepper) sampleLatency(s *StepStats, served float64) {
	member, u := st.marginal(served, s.Active)
	if member == nil || u <= 0 {
		return
	}
	m, err := st.sim.Interval(workload.Config{
		Seed:              st.cfg.Seed + int64(s.Step+1)*7919,
		CapacityOpsPerSec: member.MaxOps,
		TargetRate:        u * member.MaxOps,
		DurationSeconds:   st.cfg.Trace.StepSeconds,
	})
	if err != nil {
		return
	}
	s.Sampled = true
	s.LatencyP50 = m.LatencyP50
	s.LatencyP95 = m.LatencyP95
	s.LatencyP99 = m.LatencyP99
}

// marginal returns the member whose utilization is set by the current
// packing split and that utilization. For pack policies it is the last
// engaged server; the even-spread policies report the fleet-average
// utilization on the first member as the representative sample.
func (st *Stepper) marginal(served float64, active int) (*placement.Profile, float64) {
	if served <= 0 || active <= 0 {
		return nil, 0
	}
	if st.cfg.Policy == cluster.PolicyPack || st.cfg.Policy == cluster.PolicyPackPowerOff {
		j := st.ev.MinServers(served)
		if j <= 0 {
			return nil, 0
		}
		m := st.ev.Member(j - 1)
		return m, (served - st.ev.PrefixCapacity(j-1)) / m.MaxOps
	}
	return st.ev.Member(0), served / st.ev.Capacity()
}
