package placement

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/synth"
	"repro/internal/workload"
)

// modernCurve builds a server whose efficiency peaks at 80% — the
// post-2013 shape the paper describes.
func modernCurve(t *testing.T, peakWatts, maxOps float64) *core.Curve {
	t.Helper()
	norm := []float64{0.20, 0.267, 0.333, 0.40, 0.49, 0.577, 0.66, 0.734, 0.849, 1.0}
	watts := make([]float64, 10)
	ops := make([]float64, 10)
	for i := range norm {
		watts[i] = peakWatts * norm[i]
		ops[i] = maxOps * float64(i+1) / 10
	}
	c, err := core.NewStandardCurve(peakWatts*0.055, watts, ops)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// legacyCurve builds a low-EP server: linear power with a high idle
// floor, efficiency peaking at 100%.
func legacyCurve(t *testing.T, peakWatts, maxOps float64) *core.Curve {
	t.Helper()
	watts := make([]float64, 10)
	ops := make([]float64, 10)
	for i := 0; i < 10; i++ {
		u := float64(i+1) / 10
		watts[i] = peakWatts * (0.6 + 0.4*u)
		ops[i] = maxOps * u
	}
	c, err := core.NewStandardCurve(peakWatts*0.6, watts, ops)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func testFleet(t *testing.T) []*Profile {
	t.Helper()
	var fleet []*Profile
	for i := 0; i < 3; i++ {
		p, err := NewProfile("modern", modernCurve(t, 300, 1e6))
		if err != nil {
			t.Fatal(err)
		}
		fleet = append(fleet, p)
	}
	for i := 0; i < 3; i++ {
		p, err := NewProfile("legacy", legacyCurve(t, 400, 6e5))
		if err != nil {
			t.Fatal(err)
		}
		fleet = append(fleet, p)
	}
	return fleet
}

func TestNewProfile(t *testing.T) {
	p, err := NewProfile("s1", modernCurve(t, 300, 1e6))
	if err != nil {
		t.Fatal(err)
	}
	if p.MaxOps != 1e6 {
		t.Errorf("MaxOps = %v", p.MaxOps)
	}
	if p.OptimalUtilization != 0.8 {
		t.Errorf("optimal utilization = %v, want 0.8", p.OptimalUtilization)
	}
	if p.EP < 0.9 || p.EP > 1.1 {
		t.Errorf("EP = %v", p.EP)
	}
	if !p.Region.Contains(0.8) {
		t.Errorf("region %v should contain the optimal point", p.Region)
	}
	if _, err := NewProfile("nil", nil); err == nil {
		t.Error("nil curve accepted")
	}
}

func TestProfilePhysics(t *testing.T) {
	p, err := NewProfile("s1", modernCurve(t, 300, 1e6))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.PowerAt(1); math.Abs(got-300) > 1e-9 {
		t.Errorf("PowerAt(1) = %v", got)
	}
	if got := p.PowerAt(0); math.Abs(got-300*0.055) > 1e-9 {
		t.Errorf("PowerAt(0) = %v", got)
	}
	if got := p.OpsAt(0.5); got != 5e5 {
		t.Errorf("OpsAt(0.5) = %v", got)
	}
	// Efficiency at the optimal point beats the full-load efficiency.
	if p.OptimalEE() <= p.EEAt(1) {
		t.Error("optimal EE should beat full-load EE on a modern curve")
	}
	// Clamping.
	if p.OpsAt(2) != p.MaxOps || p.PowerAt(-1) != p.PowerAt(0) {
		t.Error("utilization not clamped")
	}
}

func TestLegacyProfilePeaksAtFull(t *testing.T) {
	p, err := NewProfile("old", legacyCurve(t, 400, 6e5))
	if err != nil {
		t.Fatal(err)
	}
	if p.OptimalUtilization != 1.0 {
		t.Errorf("legacy optimal utilization = %v, want 1.0", p.OptimalUtilization)
	}
}

func TestBuildClusters(t *testing.T) {
	fleet := testFleet(t)
	clusters, err := BuildClusters(fleet, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) < 2 {
		t.Fatalf("%d clusters; modern and legacy should separate", len(clusters))
	}
	total := 0
	for _, cl := range clusters {
		total += len(cl.Servers)
		if cl.Region.Lo > cl.Region.Hi {
			t.Errorf("cluster region inverted: %+v", cl.Region)
		}
		if cl.EPHigh-cl.EPLow > 0.1+1e-9 {
			t.Errorf("cluster EP band too wide: [%v, %v]", cl.EPLow, cl.EPHigh)
		}
		if cl.Capacity() <= 0 {
			t.Error("cluster capacity must be positive")
		}
		for _, s := range cl.Servers {
			if s.EP < cl.EPLow || s.EP > cl.EPHigh {
				t.Error("member outside cluster EP band")
			}
		}
	}
	if total != len(fleet) {
		t.Errorf("clusters cover %d servers, want %d", total, len(fleet))
	}
	// Highest-EP cluster first.
	if clusters[0].EPHigh < clusters[len(clusters)-1].EPHigh {
		t.Error("clusters not ordered by descending EP")
	}
	if _, err := BuildClusters(fleet, 0); err == nil {
		t.Error("zero band width accepted")
	}
}

func TestPlaceProportionalBeatsBaselines(t *testing.T) {
	fleet := testFleet(t)
	// Moderate demand: about 40% of fleet capacity, where EP-aware
	// placement pays off most.
	demand := 0.4 * (3*1e6 + 3*6e5)
	prop, err := PlaceProportional(fleet, demand, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pack, err := PackToFull(fleet, demand, Options{})
	if err != nil {
		t.Fatal(err)
	}
	spread, err := SpreadEvenly(fleet, demand, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range []Plan{prop, pack, spread} {
		if !plan.Satisfied {
			t.Fatal("plan failed to satisfy demand")
		}
		if math.Abs(plan.TotalOps-demand) > demand*1e-6 {
			t.Fatalf("plan ops %v != demand %v", plan.TotalOps, demand)
		}
	}
	if prop.EE() <= spread.EE() {
		t.Errorf("proportional EE %.1f should beat spread-evenly %.1f", prop.EE(), spread.EE())
	}
	// Pack-to-full runs the most efficient boxes at 100%, which modern
	// curves beat at 80%: proportional should be at least as good.
	if prop.EE() < pack.EE()*0.999 {
		t.Errorf("proportional EE %.1f should not lose to pack-to-full %.1f", prop.EE(), pack.EE())
	}
	if prop.TotalPower >= spread.TotalPower {
		t.Errorf("proportional power %.0f should undercut spread %.0f", prop.TotalPower, spread.TotalPower)
	}
}

func TestPlaceProportionalHighDemandTopsUp(t *testing.T) {
	fleet := testFleet(t)
	capacity := 3*1e6 + 3*6e5
	plan, err := PlaceProportional(fleet, 0.97*capacity, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Satisfied {
		t.Fatal("97% of capacity should be satisfiable")
	}
	over, err := PlaceProportional(fleet, 1.2*capacity, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if over.Satisfied {
		t.Error("demand above capacity cannot be satisfied")
	}
	if math.Abs(over.TotalOps-capacity) > capacity*1e-6 {
		t.Errorf("oversubscribed plan should saturate at capacity, got %v", over.TotalOps)
	}
}

func TestIdleServersOffOption(t *testing.T) {
	fleet := testFleet(t)
	demand := 5e5 // one modern server at half load covers this
	on, err := PlaceProportional(fleet, demand, Options{})
	if err != nil {
		t.Fatal(err)
	}
	off, err := PlaceProportional(fleet, demand, Options{IdleServersOff: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(off.Assignments) >= len(on.Assignments) {
		t.Errorf("power-off plan keeps %d assignments vs %d", len(off.Assignments), len(on.Assignments))
	}
	if off.TotalPower >= on.TotalPower {
		t.Error("powering idle servers off must reduce total power")
	}
}

func TestPlannerErrors(t *testing.T) {
	fleet := testFleet(t)
	if _, err := PlaceProportional(nil, 1, Options{}); err != ErrNoServers {
		t.Errorf("nil fleet: %v", err)
	}
	if _, err := PlaceProportional(fleet, 0, Options{}); err != ErrDemand {
		t.Errorf("zero demand: %v", err)
	}
	if _, err := PackToFull(nil, 1, Options{}); err != ErrNoServers {
		t.Errorf("nil fleet: %v", err)
	}
	if _, err := SpreadEvenly(fleet, -5, Options{}); err != ErrDemand {
		t.Errorf("negative demand: %v", err)
	}
	if _, err := MaxThroughputUnderCap(fleet, 0, Options{}); err == nil {
		t.Error("zero cap accepted")
	}
	if _, err := MaxThroughputUnderCap(fleet, 1, Options{}); err == nil {
		t.Error("cap below idle draw accepted")
	}
	// Non-finite input is an error from every planner, never a panic or
	// an unsatisfiable plan.
	planners := map[string]func([]*Profile, float64, Options) (Plan, error){
		"PlaceProportional": PlaceProportional,
		"PackToFull":        PackToFull,
		"SpreadEvenly":      SpreadEvenly,
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, plan := range planners {
			if _, err := plan(fleet, v, Options{}); err != ErrDemand {
				t.Errorf("%s demand %v: %v, want ErrDemand", name, v, err)
			}
		}
		if _, err := MaxThroughputUnderCap(fleet, v, Options{}); err == nil {
			t.Errorf("cap %v accepted", v)
		}
	}
}

func TestMaxThroughputUnderCap(t *testing.T) {
	fleet := testFleet(t)
	cap := 1200.0
	plan, err := MaxThroughputUnderCap(fleet, cap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalPower > cap+1e-6 {
		t.Fatalf("plan power %v exceeds cap %v", plan.TotalPower, cap)
	}
	if plan.TotalOps <= 0 {
		t.Fatal("plan produced no throughput")
	}
	// A bigger budget must never produce less throughput.
	plan2, err := MaxThroughputUnderCap(fleet, 1.5*cap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan2.TotalOps < plan.TotalOps {
		t.Error("throughput decreased with a larger power budget")
	}
	// The EP-aware planner beats naive uniform scaling under the cap.
	uniform := uniformUnderCap(fleet, cap)
	if plan.TotalOps < uniform {
		t.Errorf("cap planner %v ops should beat uniform scaling %v ops", plan.TotalOps, uniform)
	}
}

func TestMaxThroughputUnderCapPowerOff(t *testing.T) {
	fleet := testFleet(t)
	// Tight cap: with IdleServersOff the planner can concentrate the
	// budget on the efficient boxes instead of burning idle watts.
	const cap = 1000
	off, err := MaxThroughputUnderCap(fleet, cap, Options{IdleServersOff: true})
	if err != nil {
		t.Fatal(err)
	}
	if off.TotalPower > cap+1e-6 {
		t.Fatalf("plan power %v exceeds cap", off.TotalPower)
	}
	on, err := MaxThroughputUnderCap(fleet, cap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if off.TotalOps <= on.TotalOps {
		t.Error("power-off planning should win under a tight cap")
	}
}

// uniformUnderCap scales all servers to the single highest utilization
// whose fleet power fits the cap.
func uniformUnderCap(fleet []*Profile, cap float64) float64 {
	lo, hi := 0.0, 1.0
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		var w float64
		for _, s := range fleet {
			w += s.PowerAt(mid)
		}
		if w <= cap {
			lo = mid
		} else {
			hi = mid
		}
	}
	var ops float64
	for _, s := range fleet {
		ops += s.OpsAt(lo)
	}
	return ops
}

func TestPlacementOnSyntheticCorpus(t *testing.T) {
	// Integration: build profiles from a slice of the synthetic corpus
	// and verify the EP-aware plan wins on a realistic heterogeneous
	// fleet.
	rp, err := synth.NewRepository(synth.Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	recent := rp.Valid().YearRange(2012, 2016).All()
	if len(recent) < 50 {
		t.Fatalf("only %d recent servers", len(recent))
	}
	var fleet []*Profile
	for _, r := range recent[:50] {
		p, err := NewProfile(r.ID, r.MustCurve())
		if err != nil {
			t.Fatal(err)
		}
		fleet = append(fleet, p)
	}
	var capacity float64
	for _, p := range fleet {
		capacity += p.MaxOps
	}
	prop, err := PlaceProportional(fleet, 0.5*capacity, Options{})
	if err != nil {
		t.Fatal(err)
	}
	spread, err := SpreadEvenly(fleet, 0.5*capacity, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if prop.EE() <= spread.EE() {
		t.Errorf("EP-aware placement EE %.1f should beat spreading %.1f on a real fleet",
			prop.EE(), spread.EE())
	}
	clusters, err := BuildClusters(fleet, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) < 3 {
		t.Errorf("only %d clusters from a heterogeneous 50-server fleet", len(clusters))
	}
}

func TestUtilizationCapsRespected(t *testing.T) {
	fleet := testFleet(t)
	// Derate half the fleet to 60% — latency-critical servers.
	for i := 0; i < 3; i++ {
		fleet[i].UtilizationCap = 0.6
	}
	capped := 0.0
	for _, s := range fleet {
		capped += s.CappedOps()
	}
	demand := 0.9 * capped
	for name, plan := range map[string]func() (Plan, error){
		"proportional": func() (Plan, error) { return PlaceProportional(fleet, demand, Options{}) },
		"pack":         func() (Plan, error) { return PackToFull(fleet, demand, Options{}) },
		"spread":       func() (Plan, error) { return SpreadEvenly(fleet, demand, Options{}) },
	} {
		plan, err := plan()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !plan.Satisfied {
			t.Errorf("%s: demand within capped capacity unsatisfied", name)
		}
		for _, a := range plan.Assignments {
			cap := a.Server.UtilizationCap
			if cap == 0 {
				cap = 1
			}
			if a.Utilization > cap+1e-9 {
				t.Errorf("%s: server loaded to %.3f above its %.2f cap", name, a.Utilization, cap)
			}
		}
	}
	// Demand above the capped capacity cannot be satisfied even though
	// raw capacity would cover it.
	over, err := PlaceProportional(fleet, capped*1.05, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if over.Satisfied {
		t.Error("plan claims to satisfy demand above the capped capacity")
	}
	if math.Abs(over.TotalOps-capped) > capped*1e-6 {
		t.Errorf("oversubscribed plan should saturate at capped capacity: %v vs %v", over.TotalOps, capped)
	}
}

func TestUtilizationCapUnderPowerBudget(t *testing.T) {
	fleet := testFleet(t)
	for _, s := range fleet {
		s.UtilizationCap = 0.5
	}
	plan, err := MaxThroughputUnderCap(fleet, 1e9, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range plan.Assignments {
		if a.Utilization > 0.5+1e-9 {
			t.Errorf("budget planner exceeded the cap: %.3f", a.Utilization)
		}
	}
}

func TestSLACapFromWorkload(t *testing.T) {
	// End to end: derive a utilization cap from a p99 SLA with the
	// workload simulator and feed it into placement.
	p, err := NewProfile("latency-critical", modernCurve(t, 300, 2e5))
	if err != nil {
		t.Fatal(err)
	}
	rate, err := workload.MaxRateUnderSLA(workload.Config{
		Seed: 3, CapacityOpsPerSec: p.MaxOps, DurationSeconds: 30,
	}, 0.009)
	if err != nil {
		t.Fatal(err)
	}
	p.UtilizationCap = rate / p.MaxOps
	if p.UtilizationCap <= 0.3 || p.UtilizationCap >= 1 {
		t.Fatalf("derived cap %.3f implausible", p.UtilizationCap)
	}
	plan, err := PlaceProportional([]*Profile{p}, p.MaxOps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Satisfied {
		t.Error("full-capacity demand cannot be satisfied under an SLA cap")
	}
	if plan.Assignments[0].Utilization > p.UtilizationCap+1e-9 {
		t.Error("SLA cap violated")
	}
}
