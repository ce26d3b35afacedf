package fleetsim

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/placement"
	"repro/internal/trace"
)

// mixedFleet builds four modern servers whose efficiency peaks at 80%
// load and four legacy high-idle machines, in PackToFull's order.
func mixedFleet(t *testing.T) []*placement.Profile {
	t.Helper()
	modern := []float64{0.20, 0.267, 0.333, 0.40, 0.49, 0.577, 0.66, 0.734, 0.849, 1.0}
	legacy := make([]float64, 10)
	for i := range legacy {
		legacy[i] = 0.6 + 0.4*float64(i+1)/10
	}
	build := func(idle float64, norm []float64, peakW, maxOps float64, id string) *placement.Profile {
		watts := make([]float64, 10)
		ops := make([]float64, 10)
		for i := range norm {
			watts[i] = peakW * norm[i]
			ops[i] = maxOps * float64(i+1) / 10
		}
		c, err := core.NewStandardCurve(peakW*idle, watts, ops)
		if err != nil {
			t.Fatal(err)
		}
		p, err := placement.NewProfile(id, c)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	var fleet []*placement.Profile
	for i := 0; i < 4; i++ {
		fleet = append(fleet, build(0.055, modern, 300, 1e6, "modern"))
	}
	for i := 0; i < 4; i++ {
		fleet = append(fleet, build(0.6, legacy, 400, 8e5, "legacy"))
	}
	return placement.PackOrder(fleet)
}

// diurnalDay is one day of demand swinging ±50% around 1e6 ops — well
// inside mixedFleet's 7.2e6-ops capacity.
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

// runPolicies simulates the trace under every policy with a zero
// PowerConfig.
func runPolicies(t *testing.T, fleet []*placement.Profile, tr *trace.Trace) map[cluster.Policy]Result {
	t.Helper()
	out := make(map[cluster.Policy]Result)
	for _, policy := range cluster.AllPolicies() {
		res, err := Run(Config{Members: fleet, Policy: policy, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		out[policy] = res
	}
	return out
}

// TestRunAccountsEnergy: without transitions, energy is average power
// over the trace's duration, the peak bounds the average, and an
// over-provisioned fleet serves all demand.
func TestRunAccountsEnergy(t *testing.T) {
	tr := diurnalDay(t, 4)
	for policy, res := range runPolicies(t, mixedFleet(t), tr) {
		if res.EnergyKWh <= 0 || res.AvgPowerWatts <= 0 {
			t.Fatalf("%v: no energy accounted: %+v", policy, res)
		}
		wantKWh := res.AvgPowerWatts * tr.Duration() / 3.6e6
		if math.Abs(res.EnergyKWh-wantKWh) > wantKWh*1e-9 {
			t.Errorf("%v: energy %v kWh inconsistent with average power (%v kWh)", policy, res.EnergyKWh, wantKWh)
		}
		if res.PeakPowerWatts < res.AvgPowerWatts {
			t.Errorf("%v: peak %v W below average %v W", policy, res.PeakPowerWatts, res.AvgPowerWatts)
		}
		if res.UnservedOps > 1 {
			t.Errorf("%v: unserved demand %v on an over-provisioned fleet", policy, res.UnservedOps)
		}
	}
}

// TestRunPolicyOrdering: holding servers at their optimal utilization
// beats spreading load evenly on energy and fleet efficiency.
func TestRunPolicyOrdering(t *testing.T) {
	results := runPolicies(t, mixedFleet(t), diurnalDay(t, 8))
	opt, spread := results[cluster.PolicyOptimalRegion], results[cluster.PolicySpread]
	if opt.EnergyKWh >= spread.EnergyKWh {
		t.Errorf("optimal-region energy %v kWh should undercut spread %v kWh", opt.EnergyKWh, spread.EnergyKWh)
	}
	if opt.AvgEE <= spread.AvgEE {
		t.Errorf("optimal-region EE %v should beat spread %v", opt.AvgEE, spread.AvgEE)
	}
}

// TestRunPowerOffSavesEnergy: powering idle servers off undercuts
// keeping them on.
func TestRunPowerOffSavesEnergy(t *testing.T) {
	results := runPolicies(t, mixedFleet(t), diurnalDay(t, 12))
	on, off := results[cluster.PolicyPack], results[cluster.PolicyPackPowerOff]
	if off.EnergyKWh >= on.EnergyKWh {
		t.Errorf("pack+off energy %v kWh should undercut pack %v kWh", off.EnergyKWh, on.EnergyKWh)
	}
}
