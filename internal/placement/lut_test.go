package placement

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// lutProfile builds a profile with a mildly curved shape for the
// lookup-table tests.
func lutProfile(t *testing.T) *Profile {
	t.Helper()
	watts := make([]float64, 10)
	ops := make([]float64, 10)
	for i := 0; i < 10; i++ {
		u := float64(i+1) / 10
		watts[i] = 300 * (0.3 + 0.7*math.Pow(u, 1.3))
		ops[i] = 1e6 * u
	}
	c, err := core.NewStandardCurve(80, watts, ops)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProfile("lut", c)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPowerAtMatchesCurveBitForBit pins the LUT contract: the fast
// path reproduces core.Curve.PowerAt · PeakPower exactly, not just
// approximately, over a dense utilization grid.
func TestPowerAtMatchesCurveBitForBit(t *testing.T) {
	p := lutProfile(t)
	for i := 0; i <= 10000; i++ {
		u := float64(i) / 10000
		norm, err := p.Curve.PowerAt(u)
		if err != nil {
			t.Fatalf("curve path failed at %v: %v", u, err)
		}
		want := norm * p.Curve.PeakPower()
		if got := p.PowerAt(u); got != want {
			t.Fatalf("PowerAt(%v) = %v, curve path %v", u, got, want)
		}
	}
	// Random off-grid utilizations, including the clamped ranges.
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 1000; i++ {
		u := -0.5 + 2*rng.Float64()
		clamped := math.Max(0, math.Min(1, u))
		norm, err := p.Curve.PowerAt(clamped)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := p.PowerAt(u), norm*p.Curve.PeakPower(); got != want {
			t.Fatalf("PowerAt(%v) = %v, curve path %v", u, got, want)
		}
	}
}

func TestOptimalEEMatchesEEAt(t *testing.T) {
	p := lutProfile(t)
	if got, want := p.OptimalEE(), p.EEAt(p.OptimalUtilization); got != want {
		t.Errorf("cached OptimalEE %v, EEAt %v", got, want)
	}
}

// TestNewProfileRejectsInvalidPeak covers the satellite fix: what used
// to be a silent PeakPower fallback in the hot path is now a
// constructor validation failure.
func TestNewProfileRejectsInvalidPeak(t *testing.T) {
	if _, err := NewProfile("nil-curve", nil); err == nil {
		t.Error("nil curve accepted")
	}
}

// TestProportionalFillMatchesPlaceProportional checks the extracted
// engage-order + fill pieces compose to exactly the planner's output.
func TestProportionalFillMatchesPlaceProportional(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	profiles := make([]*Profile, 12)
	for i := range profiles {
		watts := make([]float64, 10)
		ops := make([]float64, 10)
		peak := 150 + 350*rng.Float64()
		maxOps := 1e5 + 9e5*rng.Float64()
		idle := peak * (0.2 + 0.4*rng.Float64())
		for j := 0; j < 10; j++ {
			u := float64(j+1) / 10
			watts[j] = idle + (peak-idle)*math.Pow(u, 1+0.5*rng.Float64())
			ops[j] = maxOps * u
		}
		c, err := core.NewStandardCurve(idle, watts, ops)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewProfile("srv", c)
		if err != nil {
			t.Fatal(err)
		}
		profiles[i] = p
	}
	var capacity float64
	for _, p := range profiles {
		capacity += p.MaxOps
	}
	for _, frac := range []float64{0.1, 0.4, 0.75, 0.99} {
		demand := frac * capacity
		plan, err := PlaceProportional(profiles, demand, Options{})
		if err != nil {
			t.Fatal(err)
		}
		order := EngageOrder(profiles)
		util := make([]float64, len(order))
		remaining := ProportionalFill(order, demand, util)
		var power float64
		for i, s := range order {
			power += s.PowerAt(util[i])
		}
		if power != plan.TotalPower {
			t.Errorf("demand %.0f: fill power %v, planner power %v", demand, power, plan.TotalPower)
		}
		if (remaining <= 1e-9) != plan.Satisfied {
			t.Errorf("demand %.0f: fill remaining %v vs planner satisfied %v", demand, remaining, plan.Satisfied)
		}
	}
}
