package fleetsim

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/placement"
	"repro/internal/trace"
)

// uniformFleet builds n identical linear servers: capacity opsEach,
// idle idleW, peak peakW — exact arithmetic for hand-computed cases.
func uniformFleet(t *testing.T, n int, opsEach, idleW, peakW float64) []*placement.Profile {
	t.Helper()
	watts := make([]float64, 10)
	ops := make([]float64, 10)
	for i := range watts {
		f := float64(i+1) / 10
		watts[i] = idleW + (peakW-idleW)*f
		ops[i] = opsEach * f
	}
	c, err := core.NewStandardCurve(idleW, watts, ops)
	if err != nil {
		t.Fatal(err)
	}
	p, err := placement.NewProfile("node", c)
	if err != nil {
		t.Fatal(err)
	}
	fleet := make([]*placement.Profile, n)
	for i := range fleet {
		fleet[i] = p
	}
	return fleet
}

// TestRunMatchesSequentialStepper is the stitching oracle: Run shards
// the trace into fixed segments across workers, and every emitted step
// must be bit-identical to one sequential stepper walking the whole
// trace — across worker counts, with hysteresis state crossing segment
// boundaries and latency sampling on.
func TestRunMatchesSequentialStepper(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	// Small-capacity servers keep the sampled workload intervals cheap.
	fleet := make([]*placement.Profile, 12)
	for i := range fleet {
		fleet[i] = testProfileOps(t, rng, "node", 500+2000*rng.Float64())
	}
	ev, err := cluster.NewEvaluator(fleet, cluster.PolicyPackPowerOff)
	if err != nil {
		t.Fatal(err)
	}
	// 2.5 segments: segment boundaries at 4096 and 8192 sit mid-trace.
	tr := testTrace(rng, 2*segmentSteps+segmentSteps/2, ev.Capacity())
	cfg := Config{
		Members: fleet,
		Policy:  cluster.PolicyPackPowerOff,
		Trace:   tr,
		Power: PowerConfig{
			OnSeconds:       30,
			OffSeconds:      10,
			HysteresisSteps: 9,
			HeadroomFrac:    0.05,
			MinActive:       1,
		},
		Latency: LatencyConfig{Every: 97},
		Seed:    42,
	}

	st := newStepper(cfg, ev)
	want := make([]StepStats, len(tr.DemandOps))
	for i, d := range tr.DemandOps {
		want[i] = st.Step(d)
	}

	defer par.SetMaxWorkers(par.MaxWorkers())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(8)
	var results []Result
	for _, workers := range []int{1, 2, 8} {
		par.SetMaxWorkers(workers)
		var got []StepStats
		c := cfg
		c.Sink = func(s StepStats) error {
			got = append(got, s)
			return nil
		}
		res, err := Run(c)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		results = append(results, res)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d steps, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d step %d:\n  run:  %+v\n  want: %+v", workers, i, got[i], want[i])
			}
		}
	}
	for _, res := range results[1:] {
		if !reflect.DeepEqual(res, results[0]) {
			t.Fatalf("summary differs across worker counts:\n%+v\n%+v", results[0], res)
		}
	}
	if results[0].LatencySamples == 0 {
		t.Fatal("latency sampling never fired")
	}
	if results[0].PoweredOff == 0 || results[0].PoweredOn == 0 {
		t.Fatal("trace never exercised power transitions")
	}
}

// TestHysteresisAndTransitions walks a hand-computed scenario: three
// identical 100-ops servers (idle 100 W, peak 200 W), demand dropping
// from full fleet to one server and back, hysteresis of 2 steps.
func TestHysteresisAndTransitions(t *testing.T) {
	fleet := uniformFleet(t, 3, 100, 100, 200)
	tr := &trace.Trace{StepSeconds: 60, DemandOps: []float64{250, 50, 50, 50, 250}}
	cfg := Config{
		Members: fleet,
		Policy:  cluster.PolicyPackPowerOff,
		Trace:   tr,
		Power:   PowerConfig{OnSeconds: 30, OffSeconds: 10, HysteresisSteps: 2},
	}
	st, err := NewStepper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// needed: 3,1,1,1,3 → window-3 max: 3,3,3,1,3.
	wantActive := []int{3, 3, 3, 1, 3}
	for i, d := range tr.DemandOps {
		s := st.Step(d)
		if s.Active != wantActive[i] {
			t.Fatalf("step %d: active %d, want %d", i, s.Active, wantActive[i])
		}
		switch i {
		case 3: // two servers power off: 10 s × 2×100 W idle drain
			if s.PoweredOff != 2 || s.TransitionJ != 10*200 {
				t.Fatalf("step 3: off=%d transJ=%v, want 2 / 2000", s.PoweredOff, s.TransitionJ)
			}
		case 4: // two servers power on: 30 s × 2×200 W full-load boot
			if s.PoweredOn != 2 || s.TransitionJ != 30*400 {
				t.Fatalf("step 4: on=%d transJ=%v, want 2 / 12000", s.PoweredOn, s.TransitionJ)
			}
		default:
			if s.TransitionJ != 0 || s.PoweredOn != 0 || s.PoweredOff != 0 {
				t.Fatalf("step %d: unexpected transitions %+v", i, s)
			}
		}
		// Steps 1,2 keep 3 servers for 50 ops: one at 50% (150 W) plus
		// two kept warm at idle (200 W).
		if i == 1 || i == 2 {
			if s.PowerWatts != 350 {
				t.Fatalf("step %d: %v W, want 350", i, s.PowerWatts)
			}
		}
		// Step 3 runs one server at 50%: 150 W.
		if i == 3 && s.PowerWatts != 150 {
			t.Fatalf("step 3: %v W, want 150", s.PowerWatts)
		}
	}
}

// TestSaturationAndZeroDemand checks the edge demands: zero demand
// powers the managed fleet down to MinActive, and demand beyond fleet
// capacity saturates deterministically with the shortfall accounted,
// for every policy.
func TestSaturationAndZeroDemand(t *testing.T) {
	fleet := uniformFleet(t, 4, 100, 100, 200)
	for _, policy := range cluster.AllPolicies() {
		tr := &trace.Trace{StepSeconds: 60, DemandOps: []float64{0, 1000, 0}}
		cfg := Config{Members: fleet, Policy: policy, Trace: tr,
			Power: PowerConfig{MinActive: 1}}
		st, err := NewStepper(cfg)
		if err != nil {
			t.Fatal(err)
		}
		managed := policy == cluster.PolicyPackPowerOff

		s0 := st.Step(0)
		if managed {
			if s0.Active != 1 || s0.PowerWatts != 100 {
				t.Fatalf("%v zero demand: active=%d watts=%v, want 1/100", policy, s0.Active, s0.PowerWatts)
			}
		} else if s0.Active != 4 {
			t.Fatalf("%v zero demand: active=%d, want 4", policy, s0.Active)
		}
		if s0.ServedOps != 0 || s0.UnservedOps != 0 {
			t.Fatalf("%v zero demand: served=%v unserved=%v", policy, s0.ServedOps, s0.UnservedOps)
		}

		s1 := st.Step(1000) // 2.5× the 400-ops fleet capacity
		if s1.Active != 4 {
			t.Fatalf("%v over capacity: active=%d, want 4", policy, s1.Active)
		}
		if s1.ServedOps != 400 || s1.UnservedOps != 600 {
			t.Fatalf("%v over capacity: served=%v unserved=%v, want 400/600", policy, s1.ServedOps, s1.UnservedOps)
		}
		if s1.PowerWatts != 800 { // every member at full load
			t.Fatalf("%v over capacity: %v W, want 800", policy, s1.PowerWatts)
		}
	}
}

// TestRunRejectsBadConfig covers validation: empty traces, bad steps,
// non-finite demand, negative power parameters, an empty fleet and an
// unknown policy must fail up front.
func TestRunRejectsBadConfig(t *testing.T) {
	fleet := uniformFleet(t, 2, 100, 100, 200)
	good := func() Config {
		return Config{
			Members: fleet,
			Policy:  cluster.PolicyPackPowerOff,
			Trace:   &trace.Trace{StepSeconds: 60, DemandOps: []float64{1, 2}},
		}
	}
	cases := map[string]func(*Config){
		"nil trace":      func(c *Config) { c.Trace = nil },
		"empty trace":    func(c *Config) { c.Trace = &trace.Trace{StepSeconds: 60} },
		"zero step":      func(c *Config) { c.Trace.StepSeconds = 0 },
		"nan step":       func(c *Config) { c.Trace.StepSeconds = math.NaN() },
		"inf step":       func(c *Config) { c.Trace.StepSeconds = math.Inf(1) },
		"nan demand":     func(c *Config) { c.Trace.DemandOps[1] = math.NaN() },
		"inf demand":     func(c *Config) { c.Trace.DemandOps[0] = math.Inf(1) },
		"negative on":    func(c *Config) { c.Power.OnSeconds = -1 },
		"negative hyst":  func(c *Config) { c.Power.HysteresisSteps = -1 },
		"negative every": func(c *Config) { c.Latency.Every = -1 },
		"no members":     func(c *Config) { c.Members = nil },
		"unknown policy": func(c *Config) { c.Policy = cluster.Policy(99) },
	}
	for name, mutate := range cases {
		c := good()
		mutate(&c)
		if _, err := Run(c); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	if _, err := Run(good()); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

// TestWeeklyEnergyConverges is the step-size property: simulating the
// same smooth weekly demand curve at 1-, 5-, and 15-minute resolution
// must converge to the same total energy. The demand is a closed-form
// diurnal sine sampled at each resolution (no noise — noise would
// change with the sampling grid); transitions are priced, so the bound
// covers both quadrature error and coarser on/off timing. Observed
// divergence is ~0.1–0.3%; the documented tolerance is 1%.
func TestWeeklyEnergyConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	fleet := testFleet(t, rng, 40)
	ev, err := cluster.NewEvaluator(fleet, cluster.PolicyPackPowerOff)
	if err != nil {
		t.Fatal(err)
	}
	capacity := ev.Capacity()
	demand := func(sec float64) float64 {
		day := 2 * math.Pi * sec / 86400
		return capacity * (0.45 + 0.3*math.Sin(day) + 0.05*math.Sin(2*day))
	}
	const week = 7 * 86400.0
	energy := make(map[float64]float64)
	for _, stepSec := range []float64{60, 300, 900} {
		steps := int(week / stepSec)
		tr := &trace.Trace{StepSeconds: stepSec, DemandOps: make([]float64, steps)}
		for i := range tr.DemandOps {
			// Midpoint sampling so each resolution integrates the same
			// underlying curve.
			tr.DemandOps[i] = demand((float64(i) + 0.5) * stepSec)
		}
		res, err := Run(Config{
			Members: fleet,
			Policy:  cluster.PolicyPackPowerOff,
			Trace:   tr,
			Power:   PowerConfig{OnSeconds: 30, OffSeconds: 10, HysteresisSteps: 1, MinActive: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		energy[stepSec] = res.EnergyKWh
	}
	base := energy[60]
	for _, stepSec := range []float64{300, 900} {
		rel := math.Abs(energy[stepSec]-base) / base
		if rel > 0.01 {
			t.Fatalf("step %v s: energy %v kWh diverges %.3f%% from 1-min %v kWh (tolerance 1%%)",
				stepSec, energy[stepSec], 100*rel, base)
		}
	}
}

// TestStepZeroAllocSteadyState asserts the tentpole's inner-loop
// guarantee directly: once warm, a managed step allocates nothing.
func TestStepZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	fleet := testFleet(t, rng, 100)
	ev, err := cluster.NewEvaluator(fleet, cluster.PolicyPackPowerOff)
	if err != nil {
		t.Fatal(err)
	}
	tr := testTrace(rng, 1000, ev.Capacity())
	st := newStepper(Config{
		Members: fleet,
		Policy:  cluster.PolicyPackPowerOff,
		Trace:   tr,
		Power:   PowerConfig{OnSeconds: 30, OffSeconds: 10, HysteresisSteps: 5},
	}, ev)
	i := 0
	step := func() {
		st.Step(tr.DemandOps[i%len(tr.DemandOps)])
		i++
	}
	step() // warm up
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Fatalf("steady-state Step allocates %v per call, want 0", avg)
	}
}
