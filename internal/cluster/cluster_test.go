package cluster

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/placement"
	"repro/internal/synth"
)

// profileFrom builds a placement profile from a normalized power shape.
func profileFrom(t *testing.T, idleFrac float64, norm []float64, peakWatts, maxOps float64) *placement.Profile {
	t.Helper()
	watts := make([]float64, 10)
	ops := make([]float64, 10)
	for i := range norm {
		watts[i] = peakWatts * norm[i]
		ops[i] = maxOps * float64(i+1) / 10
	}
	c, err := core.NewStandardCurve(peakWatts*idleFrac, watts, ops)
	if err != nil {
		t.Fatal(err)
	}
	p, err := placement.NewProfile("node", c)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// linearProfile has power idle + (1-idle)·u, EP = 1 - idle.
func linearProfile(t *testing.T, idleFrac float64) *placement.Profile {
	t.Helper()
	norm := make([]float64, 10)
	for i := range norm {
		u := float64(i+1) / 10
		norm[i] = idleFrac + (1-idleFrac)*u
	}
	return profileFrom(t, idleFrac, norm, 300, 1e6)
}

func replicate(p *placement.Profile, n int) []*placement.Profile {
	out := make([]*placement.Profile, n)
	for i := range out {
		out[i] = p
	}
	return out
}

// TestPolicyStrings pins the policy names spectrace, specsim and the
// examples print as row labels and parse as flag values.
func TestPolicyStrings(t *testing.T) {
	want := []string{"spread", "pack", "pack+off", "optimal-region"}
	for i, p := range AllPolicies() {
		if p.String() != want[i] {
			t.Errorf("policy %d is %q, want %q", p, p.String(), want[i])
		}
	}
	if Policy(99).String() != "unknown" {
		t.Errorf("out-of-range policy is %q", Policy(99).String())
	}
}

func TestComposeErrors(t *testing.T) {
	if _, err := Compose(nil, PolicySpread); err == nil {
		t.Error("empty cluster accepted")
	}
	if _, err := Compose(replicate(linearProfile(t, 0.5), 2), Policy(99)); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestSpreadEqualsSingleNodeEP(t *testing.T) {
	// Under equal spreading, N identical nodes have exactly the single
	// node's proportionality: the curve just scales.
	p := linearProfile(t, 0.4)
	single, err := Compose(replicate(p, 1), PolicySpread)
	if err != nil {
		t.Fatal(err)
	}
	four, err := Compose(replicate(p, 4), PolicySpread)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(single.EP()-four.EP()) > 1e-9 {
		t.Errorf("spread EP changed with size: %v vs %v", single.EP(), four.EP())
	}
	if math.Abs(single.EP()-0.6) > 0.01 {
		t.Errorf("linear idle-0.4 cluster EP = %v, want ≈ 0.6", single.EP())
	}
}

// concaveProfile mimics a real server: power rises steeply at low
// utilization then flattens (positive linear deviation), which is what
// makes spreading expensive.
func concaveProfile(t *testing.T, idleFrac float64) *placement.Profile {
	t.Helper()
	norm := make([]float64, 10)
	for i := range norm {
		u := float64(i+1) / 10
		norm[i] = idleFrac + (1-idleFrac)*math.Pow(u, 0.6)
	}
	return profileFrom(t, idleFrac, norm, 300, 1e6)
}

func TestPackBeatsSpread(t *testing.T) {
	// §III.E: concentrating work (pack) masks the steep low-utilization
	// region behind fully used machines — cluster EP rises above the
	// members' own EP. (For perfectly linear members the two policies
	// tie; real curves are concave.)
	p := concaveProfile(t, 0.4)
	members := replicate(p, 8)
	spread, err := Compose(members, PolicySpread)
	if err != nil {
		t.Fatal(err)
	}
	pack, err := Compose(members, PolicyPack)
	if err != nil {
		t.Fatal(err)
	}
	if pack.EP() <= spread.EP() {
		t.Errorf("pack EP %v should beat spread EP %v", pack.EP(), spread.EP())
	}
	// At half load, pack draws less: half the machines sit at idle
	// instead of all riding the steep low-utilization region.
	if pack.PowerWatts[50] >= spread.PowerWatts[50] {
		t.Errorf("pack half-load power %v above spread %v", pack.PowerWatts[50], spread.PowerWatts[50])
	}
}

func TestPackPowerOffApproachesIdeal(t *testing.T) {
	p := linearProfile(t, 0.4)
	members := replicate(p, 16)
	off, err := Compose(members, PolicyPackPowerOff)
	if err != nil {
		t.Fatal(err)
	}
	pack, err := Compose(members, PolicyPack)
	if err != nil {
		t.Fatal(err)
	}
	if off.EP() <= pack.EP() {
		t.Errorf("pack+off EP %v should beat pack EP %v", off.EP(), pack.EP())
	}
	// With 16 nodes and power-off, the cluster is close to ideally
	// proportional: its curve is a fine staircase hugging the diagonal.
	if off.EP() < 0.9 {
		t.Errorf("pack+off EP = %v, want near 1.0", off.EP())
	}
	if off.IdleFraction() != 0 {
		t.Errorf("pack+off idle fraction = %v, want 0", off.IdleFraction())
	}
}

func TestClusterEPGrowsWithSize(t *testing.T) {
	// The Fig. 13 economies-of-scale effect: under packing, cluster EP
	// grows with node count.
	pts, err := ScalingStudy(concaveProfile(t, 0.4), []int{1, 2, 4, 8, 16}, PolicyPack)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].EP <= pts[i-1].EP {
			t.Errorf("cluster EP not increasing: %d nodes %.3f after %d nodes %.3f",
				pts[i].Nodes, pts[i].EP, pts[i-1].Nodes, pts[i-1].EP)
		}
	}
	if _, err := ScalingStudy(linearProfile(t, 0.4), []int{0}, PolicyPack); err == nil {
		t.Error("size 0 accepted")
	}
}

func TestCompareOrdersPolicies(t *testing.T) {
	cmp, err := Compare(replicate(concaveProfile(t, 0.5), 8))
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Members != 8 || len(cmp.Rows) != len(AllPolicies()) {
		t.Fatalf("comparison shape: %+v", cmp)
	}
	byPolicy := make(map[Policy]ComparisonRow)
	for _, row := range cmp.Rows {
		byPolicy[row.Policy] = row
	}
	if !(byPolicy[PolicyPack].EP > byPolicy[PolicySpread].EP) {
		t.Error("pack should beat spread")
	}
	if !(byPolicy[PolicyPackPowerOff].EP > byPolicy[PolicyPack].EP) {
		t.Error("pack+off should beat pack")
	}
	if byPolicy[PolicySpread].HalfLoadWatts < byPolicy[PolicyPackPowerOff].HalfLoadWatts {
		t.Error("spread should burn the most power at half load")
	}
}

func TestAggregateCurveConversion(t *testing.T) {
	agg, err := Compose(replicate(linearProfile(t, 0.3), 4), PolicyPack)
	if err != nil {
		t.Fatal(err)
	}
	c, err := agg.Curve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.EP()-agg.EP()) > 0.02 {
		t.Errorf("curve EP %v diverges from aggregate EP %v", c.EP(), agg.EP())
	}
	// Power-off aggregates with zero idle still convert.
	off, err := Compose(replicate(linearProfile(t, 0.3), 4), PolicyPackPowerOff)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := off.Curve(); err != nil {
		t.Errorf("power-off aggregate conversion failed: %v", err)
	}
}

func TestOptimalRegionPolicyOnModerateCurves(t *testing.T) {
	// A server with substantial idle power whose efficiency peaks at
	// 80%: §V.C\'s strategy (hold engaged members at the optimal spot)
	// beats spreading on both proportionality and mid-load power.
	norm := []float64{0.38, 0.45, 0.52, 0.58, 0.63, 0.68, 0.72, 0.76, 0.87, 1.0}
	p := profileFrom(t, 0.30, norm, 300, 1e6)
	if p.OptimalUtilization != 0.8 {
		t.Fatalf("fixture optimal utilization = %v, want 0.8", p.OptimalUtilization)
	}
	members := replicate(p, 6)
	opt, err := Compose(members, PolicyOptimalRegion)
	if err != nil {
		t.Fatal(err)
	}
	spread, err := Compose(members, PolicySpread)
	if err != nil {
		t.Fatal(err)
	}
	if opt.EP() <= spread.EP() {
		t.Errorf("optimal-region EP %v should beat spread %v", opt.EP(), spread.EP())
	}
	if opt.PowerWatts[50] >= spread.PowerWatts[50] {
		t.Errorf("optimal-region half-load power %v above spread %v",
			opt.PowerWatts[50], spread.PowerWatts[50])
	}
}

func TestHeterogeneousClusterFromCorpus(t *testing.T) {
	rp, err := synth.NewRepository(synth.Config{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	servers := rp.Valid().YearRange(2011, 2016).All()[:12]
	members := make([]*placement.Profile, 0, len(servers))
	for _, r := range servers {
		p, err := placement.NewProfile(r.ID, r.MustCurve())
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, p)
	}
	cmp, err := Compare(members)
	if err != nil {
		t.Fatal(err)
	}
	var spreadEP, packOffEP float64
	for _, row := range cmp.Rows {
		switch row.Policy {
		case PolicySpread:
			spreadEP = row.EP
		case PolicyPackPowerOff:
			packOffEP = row.EP
		}
	}
	if !(packOffEP > spreadEP) {
		t.Errorf("pack+off (%.3f) should beat spread (%.3f) on a real fleet", packOffEP, spreadEP)
	}
}

func TestKnightShiftLiftsEP(t *testing.T) {
	// A poorly proportional primary (idle 60%) paired with a small
	// low-power knight: the combined system is far more proportional
	// than the primary alone — the KnightShift result from the paper's
	// related work.
	primary := linearProfile(t, 0.6)
	knightNorm := make([]float64, 10)
	for i := range knightNorm {
		u := float64(i+1) / 10
		knightNorm[i] = 0.2 + 0.8*u
	}
	knight := profileFrom(t, 0.2, knightNorm, 30, 1.5e5) // 15% capacity, 10% power
	combined, err := KnightShift(primary, knight, true)
	if err != nil {
		t.Fatal(err)
	}
	alone, err := Compose([]*placement.Profile{primary}, PolicySpread)
	if err != nil {
		t.Fatal(err)
	}
	if combined.EP() <= alone.EP()+0.05 {
		t.Errorf("KnightShift EP %.3f should clearly beat the primary alone %.3f",
			combined.EP(), alone.EP())
	}
	// With the primary kept idle (not off), the lift shrinks but the
	// low-load draw still falls versus the primary alone.
	warm, err := KnightShift(primary, knight, false)
	if err != nil {
		t.Fatal(err)
	}
	if warm.EP() > combined.EP() {
		t.Error("keeping the primary warm cannot beat powering it off")
	}
	if combined.PowerWatts[5] >= alone.PowerWatts[5] {
		t.Error("knight mode should cut low-load power")
	}
	// Peak power unchanged: above the switch point the primary serves.
	last := len(combined.PowerWatts) - 1
	if math.Abs(combined.PowerWatts[last]-alone.PowerWatts[last]) > 1e-9 {
		t.Error("full-load power should match the primary's")
	}
}

func TestKnightShiftErrors(t *testing.T) {
	p := linearProfile(t, 0.5)
	if _, err := KnightShift(nil, p, true); err == nil {
		t.Error("nil primary accepted")
	}
	if _, err := KnightShift(p, p, true); err == nil {
		t.Error("knight as big as primary accepted")
	}
}

func TestAggregateDegenerateGuards(t *testing.T) {
	zero := Aggregate{Utilizations: []float64{0, 1}, PowerWatts: []float64{0, 0}}
	if zero.EP() != 0 || zero.IdleFraction() != 0 {
		t.Error("zero-power aggregate should report zero metrics, not NaN")
	}
}
