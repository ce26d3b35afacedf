package trace_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fleetsim"
	"repro/internal/placement"
	"repro/internal/trace"
)

// These tests replay the package's generated traces on fleetsim, the
// trace simulator, and price the results with Tariff.BillOf.

// modernFleet is eight identical servers whose efficiency peaks at 80%
// load: 8e6 ops of capacity, 16.5 W idle and 300 W at full load each.
func modernFleet(t *testing.T) []*placement.Profile {
	t.Helper()
	norm := []float64{0.20, 0.267, 0.333, 0.40, 0.49, 0.577, 0.66, 0.734, 0.849, 1.0}
	watts := make([]float64, len(norm))
	ops := make([]float64, len(norm))
	for i := range norm {
		watts[i] = 300 * norm[i]
		ops[i] = 1e6 * float64(i+1) / 10
	}
	c, err := core.NewStandardCurve(300*0.055, watts, ops)
	if err != nil {
		t.Fatal(err)
	}
	p, err := placement.NewProfile("modern", c)
	if err != nil {
		t.Fatal(err)
	}
	fleet := make([]*placement.Profile, 8)
	for i := range fleet {
		fleet[i] = p
	}
	return fleet
}

func diurnalDay(t *testing.T, seed int64) *trace.Trace {
	t.Helper()
	tr, err := trace.Diurnal(trace.DiurnalConfig{
		Seed: seed, Days: 1, BaseOps: 1e6, DailySwing: 0.5, NoiseFrac: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func replay(t *testing.T, tr *trace.Trace, fleet []*placement.Profile, policy cluster.Policy) fleetsim.Result {
	t.Helper()
	res, err := fleetsim.Run(fleetsim.Config{Members: fleet, Policy: policy, Trace: tr})
	if err != nil {
		t.Fatalf("%v: %v", policy, err)
	}
	return res
}

// TestReplayStrategyOrdering: on both generated trace shapes, holding
// servers at their optimal utilization uses less energy than spreading
// load evenly and runs the fleet more efficiently.
func TestReplayStrategyOrdering(t *testing.T) {
	bursty, err := trace.Bursty(trace.BurstyConfig{Seed: 8, Steps: 288, BaseOps: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	fleet := modernFleet(t)
	for name, tr := range map[string]*trace.Trace{"diurnal": diurnalDay(t, 8), "bursty": bursty} {
		opt := replay(t, tr, fleet, cluster.PolicyOptimalRegion)
		spread := replay(t, tr, fleet, cluster.PolicySpread)
		if opt.EnergyKWh >= spread.EnergyKWh {
			t.Errorf("%s: optimal-region energy %v kWh should undercut spread %v kWh", name, opt.EnergyKWh, spread.EnergyKWh)
		}
		if opt.AvgEE <= spread.AvgEE {
			t.Errorf("%s: optimal-region EE %v should beat spread %v", name, opt.AvgEE, spread.AvgEE)
		}
	}
}

// TestReplayErrors: a replay needs a trace, a fleet and a known policy.
func TestReplayErrors(t *testing.T) {
	fleet := modernFleet(t)
	tr := diurnalDay(t, 1)
	if _, err := fleetsim.Run(fleetsim.Config{Members: fleet, Policy: cluster.PolicySpread}); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := fleetsim.Run(fleetsim.Config{Policy: cluster.PolicySpread, Trace: tr}); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := fleetsim.Run(fleetsim.Config{Members: fleet, Policy: cluster.Policy(99), Trace: tr}); err == nil {
		t.Error("unknown policy accepted")
	}
}

// TestCostOrderingTracksEnergy: pricing replays keeps their energy
// ranking — across every pair of policies, the one that uses less
// energy has the smaller bill and footprint.
func TestCostOrderingTracksEnergy(t *testing.T) {
	tr := diurnalDay(t, 20)
	fleet := modernFleet(t)
	tariff := trace.DefaultTariff()
	policies := cluster.AllPolicies()
	kWh := make([]float64, len(policies))
	bills := make([]trace.Bill, len(policies))
	for i, policy := range policies {
		kWh[i] = replay(t, tr, fleet, policy).EnergyKWh
		bill, err := tariff.BillOf(kWh[i])
		if err != nil {
			t.Fatal(err)
		}
		bills[i] = bill
	}
	for i := range policies {
		for j := range policies {
			less := kWh[i] < kWh[j]
			if bills[i].USD < bills[j].USD != less || bills[i].KgCO2 < bills[j].KgCO2 != less {
				t.Errorf("%v (%v kWh, %+v) vs %v (%v kWh, %+v): bill ranking differs from energy",
					policies[i], kWh[i], bills[i], policies[j], kWh[j], bills[j])
			}
		}
	}
}
