package fleetsim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/placement"
	"repro/internal/trace"
)

// testProfile builds a valid profile with a random strictly-increasing
// power shape, random idle fraction, and random peak/capacity scale.
func testProfile(t testing.TB, rng *rand.Rand, id string) *placement.Profile {
	return testProfileOps(t, rng, id, 1e5+1e6*rng.Float64())
}

// testProfileOps is testProfile with the capacity pinned — tests that
// run workload latency samples keep capacity small, because the
// transaction-level simulator's cost scales with it.
func testProfileOps(t testing.TB, rng *rand.Rand, id string, maxOps float64) *placement.Profile {
	t.Helper()
	idleFrac := 0.05 + 0.6*rng.Float64()
	norm := make([]float64, 10)
	v := idleFrac
	for i := range norm {
		v += 0.01 + rng.Float64()*0.2
		norm[i] = v
	}
	peakW := 100 + 400*rng.Float64()
	watts := make([]float64, 10)
	ops := make([]float64, 10)
	for i := range norm {
		watts[i] = peakW * norm[i] / v
		ops[i] = maxOps * float64(i+1) / 10
	}
	c, err := core.NewStandardCurve(peakW*idleFrac/v, watts, ops)
	if err != nil {
		t.Fatal(err)
	}
	p, err := placement.NewProfile(id, c)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func testFleet(t testing.TB, rng *rand.Rand, n int) []*placement.Profile {
	t.Helper()
	fleet := make([]*placement.Profile, n)
	for i := range fleet {
		fleet[i] = testProfile(t, rng, "node")
	}
	return fleet
}

// testTrace draws random demands spanning the edge cases: zero, tiny,
// mid-range, exactly capacity, and well over capacity.
func testTrace(rng *rand.Rand, steps int, capacity float64) *trace.Trace {
	tr := &trace.Trace{StepSeconds: 60, DemandOps: make([]float64, steps)}
	for i := range tr.DemandOps {
		switch rng.Intn(8) {
		case 0:
			tr.DemandOps[i] = 0
		case 1:
			tr.DemandOps[i] = capacity * 1e-9
		case 2:
			tr.DemandOps[i] = capacity
		case 3:
			tr.DemandOps[i] = capacity * (1 + 2*rng.Float64())
		default:
			tr.DemandOps[i] = capacity * rng.Float64()
		}
	}
	return tr
}

// refSim is the oracle: it recomposes the full cluster state from
// scratch at every step — a fresh cluster.NewEvaluator over the members
// (the O(n) recompose the incremental stepper avoids) — and recomputes
// the hysteresis decision from the complete needed-count history
// instead of the stepper's monotonic deque. Evaluator construction is
// deterministic, so any bit difference against the stepper is
// incremental state gone stale.
type refSim struct {
	cfg        Config
	needed     []int
	prevActive int
	primed     bool
}

func (r *refSim) step(t testing.TB, tt int, demand float64) StepStats {
	t.Helper()
	ev, err := cluster.NewEvaluator(r.cfg.Members, r.cfg.Policy)
	if err != nil {
		t.Fatal(err)
	}
	d := demand
	if math.IsNaN(d) || d < 0 {
		d = 0
	}
	managed := r.cfg.Policy == cluster.PolicyPackPowerOff

	// Needed count, recomputed on the fresh evaluator.
	n := ev.Len()
	if managed {
		dh := d
		if h := r.cfg.Power.HeadroomFrac; h > 0 && d > 0 {
			dh = d * (1 + h)
		}
		n = ev.MinServers(dh)
		if n < r.cfg.Power.MinActive {
			n = r.cfg.Power.MinActive
		}
		if n > ev.Len() {
			n = ev.Len()
		}
	}
	r.needed = append(r.needed, n)

	// Hysteresis as a brute-force window maximum over the history.
	active := ev.Len()
	if managed {
		lo := len(r.needed) - (r.cfg.Power.HysteresisSteps + 1)
		if lo < 0 {
			lo = 0
		}
		active = 0
		for _, v := range r.needed[lo:] {
			if v > active {
				active = v
			}
		}
	}
	prev := active
	if r.primed {
		prev = r.prevActive
	}
	r.primed = true
	r.prevActive = active

	s := StepStats{Step: tt, DemandOps: d, Active: active}
	switch {
	case active > prev:
		s.PoweredOn = active - prev
		s.TransitionJ = r.cfg.Power.OnSeconds * (ev.PrefixPeakWatts(active) - ev.PrefixPeakWatts(prev))
	case active < prev:
		s.PoweredOff = prev - active
		s.TransitionJ = r.cfg.Power.OffSeconds * (ev.SuffixIdleWatts(active) - ev.SuffixIdleWatts(prev))
	}
	if managed {
		s.ServedOps = math.Min(d, ev.PrefixCapacity(active))
		s.PowerWatts = ev.ActivePower(d, active)
	} else {
		s.ServedOps = math.Min(d, ev.Capacity())
		s.PowerWatts = ev.PowerAt(d)
	}
	s.EnergyJ = s.PowerWatts*r.cfg.Trace.StepSeconds + s.TransitionJ
	s.UnservedOps = d - s.ServedOps
	return s
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestStepperMatchesRecompose pins the incremental stepper bit-identical
// to a full recompose at every step: same active set, same power, same
// transition energy, over randomized heterogeneous fleets and traces
// that include zero and over-capacity demand, for every policy.
func TestStepperMatchesRecompose(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, policy := range cluster.AllPolicies() {
		for _, n := range []int{1, 3, 17} {
			fleet := testFleet(t, rng, n)
			cfg := Config{
				Members: fleet,
				Policy:  policy,
				Power: PowerConfig{
					OnSeconds:       30,
					OffSeconds:      10,
					HysteresisSteps: 5,
					HeadroomFrac:    0.1,
					MinActive:       1,
				},
			}
			ev, err := cluster.NewEvaluator(fleet, policy)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Trace = testTrace(rng, 400, ev.Capacity())
			st, err := NewStepper(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := &refSim{cfg: cfg}
			for i, d := range cfg.Trace.DemandOps {
				got := st.Step(d)
				want := ref.step(t, i, d)
				if got.Active != want.Active || got.PoweredOn != want.PoweredOn || got.PoweredOff != want.PoweredOff {
					t.Fatalf("%v n=%d step %d: active/on/off %d/%d/%d want %d/%d/%d",
						policy, n, i, got.Active, got.PoweredOn, got.PoweredOff,
						want.Active, want.PoweredOn, want.PoweredOff)
				}
				if !sameBits(got.PowerWatts, want.PowerWatts) ||
					!sameBits(got.TransitionJ, want.TransitionJ) ||
					!sameBits(got.EnergyJ, want.EnergyJ) ||
					!sameBits(got.ServedOps, want.ServedOps) ||
					!sameBits(got.UnservedOps, want.UnservedOps) {
					t.Fatalf("%v n=%d step %d: stepper %+v != recompose %+v", policy, n, i, got, want)
				}
			}
		}
	}
}

// TestStepperMatchesComposeGrid cross-checks the stepper against
// cluster.Compose itself: replaying the aggregate curve's own grid
// demands must reproduce the curve's power values bit-for-bit — for
// the pack policies exactly, because the stepper evaluates the same
// prefix-sum arrays Compose does (PolicyPackPowerOff at zero
// hysteresis/headroom, where the active set equals the engaged set and
// the kept-warm idle term is exactly zero).
func TestStepperMatchesComposeGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fleet := testFleet(t, rng, 23)
	for _, policy := range cluster.AllPolicies() {
		agg, err := cluster.Compose(fleet, policy)
		if err != nil {
			t.Fatal(err)
		}
		tr := &trace.Trace{StepSeconds: 60, DemandOps: make([]float64, len(agg.Utilizations))}
		for i, u := range agg.Utilizations {
			tr.DemandOps[i] = agg.CapacityOps * u
		}
		st, err := NewStepper(Config{Members: fleet, Policy: policy, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range tr.DemandOps {
			s := st.Step(d)
			if !sameBits(s.PowerWatts, agg.PowerWatts[i]) {
				t.Fatalf("%v grid %d (demand %v): stepper %v != Compose %v",
					policy, i, d, s.PowerWatts, agg.PowerWatts[i])
			}
		}
	}
}
