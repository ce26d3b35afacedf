package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// linearCurve builds a standard 11-point curve whose normalized power is
// exactly idle + (1-idle)·u and whose throughput is perfectly linear.
func linearCurve(t *testing.T, idleFrac, peakWatts, peakOps float64) *Curve {
	t.Helper()
	watts := make([]float64, 10)
	ops := make([]float64, 10)
	for i := 0; i < 10; i++ {
		u := float64(i+1) / 10
		watts[i] = peakWatts * (idleFrac + (1-idleFrac)*u)
		ops[i] = peakOps * u
	}
	c, err := NewStandardCurve(peakWatts*idleFrac, watts, ops)
	if err != nil {
		t.Fatalf("linearCurve: %v", err)
	}
	return c
}

// idealCurve is a perfectly proportional curve: zero idle is invalid
// (power must be positive), so use a vanishingly small idle power.
func idealCurve(t *testing.T) *Curve {
	t.Helper()
	watts := make([]float64, 10)
	ops := make([]float64, 10)
	for i := 0; i < 10; i++ {
		u := float64(i+1) / 10
		watts[i] = 200 * u
		ops[i] = 1e6 * u
	}
	c, err := NewStandardCurve(1e-9, watts, ops)
	if err != nil {
		t.Fatalf("idealCurve: %v", err)
	}
	return c
}

func TestNewCurveValidation(t *testing.T) {
	valid := []Point{
		{Utilization: 0, PowerWatts: 50},
		{Utilization: 0.5, OpsPerSec: 500, PowerWatts: 100},
		{Utilization: 1, OpsPerSec: 1000, PowerWatts: 150},
	}
	tests := []struct {
		name    string
		mutate  func([]Point) []Point
		wantErr error
	}{
		{"valid", func(ps []Point) []Point { return ps }, nil},
		{"too few", func(ps []Point) []Point { return ps[:1] }, ErrTooFewPoints},
		{"no idle", func(ps []Point) []Point { ps[0].Utilization = 0.05; return ps }, ErrNoIdlePoint},
		{"no peak", func(ps []Point) []Point { ps[2].Utilization = 0.9; return ps }, ErrNoPeakPoint},
		{"unordered", func(ps []Point) []Point { ps[1].Utilization = 0; return ps }, ErrUnorderedPoints},
		{"duplicate util", func(ps []Point) []Point { ps[1].Utilization = 1; return ps }, ErrUnorderedPoints},
		{"zero power", func(ps []Point) []Point { ps[1].PowerWatts = 0; return ps }, ErrNonPositivePower},
		{"negative ops", func(ps []Point) []Point { ps[1].OpsPerSec = -1; return ps }, ErrNegativeOps},
		{"idle with ops", func(ps []Point) []Point { ps[0].OpsPerSec = 5; return ps }, ErrIdleHasThroughput},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ps := tt.mutate(append([]Point(nil), valid...))
			_, err := NewCurve(ps)
			if tt.wantErr == nil {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("err = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestNewCurveCopiesInput(t *testing.T) {
	ps := []Point{
		{Utilization: 0, PowerWatts: 50},
		{Utilization: 1, OpsPerSec: 1000, PowerWatts: 150},
	}
	c, err := NewCurve(ps)
	if err != nil {
		t.Fatal(err)
	}
	ps[0].PowerWatts = 999
	if c.IdlePower() != 50 {
		t.Error("curve aliases caller slice")
	}
	got := c.Points()
	got[0].PowerWatts = 777
	if c.IdlePower() != 50 {
		t.Error("Points() aliases internal slice")
	}
}

func TestNewStandardCurveLengthCheck(t *testing.T) {
	if _, err := NewStandardCurve(10, make([]float64, 9), make([]float64, 10)); err == nil {
		t.Error("9 watts values: expected error")
	}
	if _, err := NewStandardCurve(10, make([]float64, 10), make([]float64, 11)); err == nil {
		t.Error("11 ops values: expected error")
	}
}

func TestEPIdealIsOne(t *testing.T) {
	ep := idealCurve(t).EP()
	if math.Abs(ep-1) > 1e-6 {
		t.Errorf("EP(ideal) = %v, want 1", ep)
	}
}

func TestEPFlatIsZero(t *testing.T) {
	// Constant power at all levels: EP = 2 - 2·1 = 0.
	watts := make([]float64, 10)
	ops := make([]float64, 10)
	for i := range watts {
		watts[i] = 300
		ops[i] = float64(i+1) * 100
	}
	c, err := NewStandardCurve(300, watts, ops)
	if err != nil {
		t.Fatal(err)
	}
	if ep := c.EP(); math.Abs(ep) > 1e-12 {
		t.Errorf("EP(flat) = %v, want 0", ep)
	}
}

func TestEPLinearWithIdle(t *testing.T) {
	// Linear from idle fraction k: area = k/2 + 1/2, EP = 1 - k.
	for _, k := range []float64{0.1, 0.3, 0.5, 0.8} {
		c := linearCurve(t, k, 250, 1e6)
		want := 1 - k
		if ep := c.EP(); math.Abs(ep-want) > 1e-9 {
			t.Errorf("EP(linear idle=%v) = %v, want %v", k, ep, want)
		}
	}
}

func TestEPSublinearExceedsOne(t *testing.T) {
	// Power convex and below the ideal line at mid-utilization: p = u².
	watts := make([]float64, 10)
	ops := make([]float64, 10)
	for i := 0; i < 10; i++ {
		u := float64(i+1) / 10
		watts[i] = 200 * u * u
		ops[i] = 1e6 * u
	}
	c, err := NewStandardCurve(0.2, watts, ops)
	if err != nil {
		t.Fatal(err)
	}
	if ep := c.EP(); ep <= 1 || ep >= 2 {
		t.Errorf("EP(superproportional) = %v, want in (1, 2)", ep)
	}
}

func TestIdleFractionAndDynamicRange(t *testing.T) {
	c := linearCurve(t, 0.4, 500, 1e6)
	if got := c.IdleFraction(); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("IdleFraction = %v, want 0.4", got)
	}
	if got := c.DynamicRange(); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("DynamicRange = %v, want 0.6", got)
	}
	if c.PeakPower() != 500 {
		t.Errorf("PeakPower = %v", c.PeakPower())
	}
	if math.Abs(c.IdlePower()-200) > 1e-9 {
		t.Errorf("IdlePower = %v", c.IdlePower())
	}
}

func TestLinearDeviation(t *testing.T) {
	// A perfectly linear curve has zero deviation from its own chord.
	c := linearCurve(t, 0.3, 400, 1e6)
	if ld := c.LinearDeviation(); math.Abs(ld) > 1e-12 {
		t.Errorf("LD(linear) = %v, want 0", ld)
	}
	// A concave (superlinear power) curve has positive LD.
	watts := make([]float64, 10)
	ops := make([]float64, 10)
	for i := 0; i < 10; i++ {
		u := float64(i+1) / 10
		watts[i] = 400 * (0.3 + 0.7*math.Sqrt(u))
		ops[i] = 1e6 * u
	}
	concave, err := NewStandardCurve(120, watts, ops)
	if err != nil {
		t.Fatal(err)
	}
	if ld := concave.LinearDeviation(); ld <= 0 {
		t.Errorf("LD(concave) = %v, want > 0", ld)
	}
}

func TestPowerAtInterpolates(t *testing.T) {
	c := linearCurve(t, 0.2, 100, 1000)
	got, err := c.PowerAt(0.35)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.2 + 0.8*0.35
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("PowerAt(0.35) = %v, want %v", got, want)
	}
	if _, err := c.PowerAt(-0.1); err == nil {
		t.Error("PowerAt(-0.1): expected error")
	}
	if _, err := c.PowerAt(1.1); err == nil {
		t.Error("PowerAt(1.1): expected error")
	}
	if _, err := c.PowerAt(math.NaN()); err == nil {
		t.Error("PowerAt(NaN): expected error")
	}
	at1, _ := c.PowerAt(1)
	if math.Abs(at1-1) > 1e-12 {
		t.Errorf("PowerAt(1) = %v, want 1", at1)
	}
}

func TestOverallEE(t *testing.T) {
	c := linearCurve(t, 0.5, 100, 1000)
	// ops sum = 1000·(0.1+...+1.0) = 5500.
	// watts sum = 100·(0.5·11 + 0.5·5.5) = 100·8.25 = 825.
	want := 5500.0 / 825.0
	if got := c.OverallEE(); math.Abs(got-want) > 1e-9 {
		t.Errorf("OverallEE = %v, want %v", got, want)
	}
}

func TestPeakEEAtFullLoad(t *testing.T) {
	// Linear power with idle: EE(u) = ops·u / (P·(k+(1-k)u)) increases in
	// u, so the peak is at 100%.
	c := linearCurve(t, 0.5, 100, 1000)
	peak, utils := c.PeakEE()
	if len(utils) != 1 || utils[0] != 1.0 {
		t.Fatalf("peak utils = %v, want [1]", utils)
	}
	if math.Abs(peak-10) > 1e-9 {
		t.Errorf("peak EE = %v, want 10", peak)
	}
	if c.PeakEEOffset() != 0 {
		t.Errorf("PeakEEOffset = %v, want 0", c.PeakEEOffset())
	}
	if r := c.PeakOverFullRatio(); math.Abs(r-1) > 1e-12 {
		t.Errorf("PeakOverFullRatio = %v, want 1", r)
	}
}

func TestPeakEEAtPartialLoad(t *testing.T) {
	// Force the 80% level to be the most efficient.
	watts := []float64{40, 50, 60, 70, 80, 90, 95, 100, 130, 160}
	ops := []float64{100, 200, 300, 400, 500, 600, 700, 900, 950, 1000}
	c, err := NewStandardCurve(30, watts, ops)
	if err != nil {
		t.Fatal(err)
	}
	peak, utils := c.PeakEE()
	if len(utils) != 1 || utils[0] != 0.8 {
		t.Fatalf("peak utils = %v, want [0.8]", utils)
	}
	if math.Abs(peak-9) > 1e-9 {
		t.Errorf("peak EE = %v, want 9", peak)
	}
	if off := c.PeakEEOffset(); math.Abs(off-0.2) > 1e-12 {
		t.Errorf("PeakEEOffset = %v, want 0.2", off)
	}
	if r := c.PeakOverFullRatio(); math.Abs(r-9.0/6.25) > 1e-9 {
		t.Errorf("PeakOverFullRatio = %v, want %v", r, 9.0/6.25)
	}
}

func TestPeakEETie(t *testing.T) {
	// The 2011 server in the dataset ties at 80% and 90%.
	watts := []float64{40, 50, 60, 70, 80, 90, 95, 100, 112.5, 160}
	ops := []float64{100, 200, 300, 400, 500, 600, 700, 900, 1012.5, 1000}
	c, err := NewStandardCurve(30, watts, ops)
	if err != nil {
		t.Fatal(err)
	}
	_, utils := c.PeakEE()
	if len(utils) != 2 || utils[0] != 0.8 || utils[1] != 0.9 {
		t.Fatalf("peak utils = %v, want [0.8 0.9]", utils)
	}
	if c.PeakEEUtilization() != 0.8 {
		t.Errorf("PeakEEUtilization = %v, want 0.8", c.PeakEEUtilization())
	}
}

func TestNormalizedEE(t *testing.T) {
	c := linearCurve(t, 0.5, 100, 1000)
	norm := c.NormalizedEE()
	if norm[0] != 0 {
		t.Errorf("idle normalized EE = %v, want 0", norm[0])
	}
	if math.Abs(norm[len(norm)-1]-1) > 1e-12 {
		t.Errorf("full-load normalized EE = %v, want 1", norm[len(norm)-1])
	}
	for i := 1; i < len(norm); i++ {
		if norm[i] < norm[i-1] {
			t.Errorf("linear curve normalized EE not nondecreasing at %d: %v", i, norm)
		}
	}
}

func TestIdealIntersectionsLinearNone(t *testing.T) {
	// A linear curve with positive idle stays strictly above the ideal
	// line on (0,1): no crossings.
	c := linearCurve(t, 0.3, 100, 1000)
	if got := c.IdealIntersections(); len(got) != 0 {
		t.Errorf("intersections = %v, want none", got)
	}
}

func TestIdealIntersectionsSingleCross(t *testing.T) {
	// Normalized power: starts above ideal (idle 0.2) and dips below
	// after 50%: p(u) = 0.2+0.6u for u<=0.5, then below line.
	watts := []float64{26, 32, 38, 44, 52, 52, 56, 64, 78, 100}
	ops := []float64{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}
	c, err := NewStandardCurve(20, watts, ops)
	if err != nil {
		t.Fatal(err)
	}
	got := c.IdealIntersections()
	if len(got) != 1 {
		t.Fatalf("intersections = %v, want exactly 1", got)
	}
	if got[0] <= 0.5 || got[0] >= 0.7 {
		t.Errorf("crossing at %v, want in (0.5, 0.7)", got[0])
	}
	// Verify the interpolated crossing actually sits on the ideal line.
	p, err := c.PowerAt(got[0])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-got[0]) > 1e-9 {
		t.Errorf("PowerAt(crossing)=%v != crossing %v", p, got[0])
	}
}

func TestIdealIntersectionsDoubleCross(t *testing.T) {
	// The paper's 1U server with EP 0.86 crosses the ideal line twice
	// (between 50-60% and 70-80%). Build such a shape.
	watts := []float64{30, 38, 46, 52, 56, 57, 66, 82, 92, 100}
	ops := []float64{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}
	c, err := NewStandardCurve(25, watts, ops)
	if err != nil {
		t.Fatal(err)
	}
	got := c.IdealIntersections()
	if len(got) != 2 {
		t.Fatalf("intersections = %v, want exactly 2", got)
	}
	if !(got[0] > 0.5 && got[0] < 0.6 && got[1] > 0.7 && got[1] < 0.8) {
		t.Errorf("crossings at %v, want in (0.5,0.6) and (0.7,0.8)", got)
	}
}

func TestIdealIntersectionsExactGridTouch(t *testing.T) {
	// Curve touches the ideal line exactly at u=0.5 and crosses there.
	watts := []float64{22, 30, 38, 46, 50, 54, 60, 70, 84, 100}
	ops := []float64{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}
	c, err := NewStandardCurve(15, watts, ops)
	if err != nil {
		t.Fatal(err)
	}
	got := c.IdealIntersections()
	if len(got) != 1 || got[0] != 0.5 {
		t.Fatalf("intersections = %v, want [0.5]", got)
	}
}

func TestHighEfficiencyRegions(t *testing.T) {
	// Peak EE at 80%; normalized EE exceeds 1.0 from ~60% to 100%.
	watts := []float64{40, 50, 60, 70, 81, 90, 95, 100, 130, 160}
	ops := []float64{100, 200, 300, 400, 500, 600, 700, 900, 950, 1000}
	c, err := NewStandardCurve(30, watts, ops)
	if err != nil {
		t.Fatal(err)
	}
	regions := c.HighEfficiencyRegions(1.0)
	if len(regions) != 1 {
		t.Fatalf("regions = %v, want 1 region", regions)
	}
	r := regions[0]
	if r.Hi != 1.0 {
		t.Errorf("region end = %v, want 1.0", r.Hi)
	}
	if r.Lo <= 0.5 || r.Lo >= 0.7 {
		t.Errorf("region start = %v, want in (0.5, 0.7)", r.Lo)
	}
	if !r.Contains(0.8) || r.Contains(0.3) {
		t.Error("Contains misbehaves")
	}
	widest, ok := c.WidestHighEfficiencyRegion(1.0)
	if !ok || widest != r {
		t.Errorf("widest = %v ok=%v, want %v", widest, ok, r)
	}
}

func TestHighEfficiencyRegionsNone(t *testing.T) {
	c := linearCurve(t, 0.3, 100, 1000)
	if _, ok := c.WidestHighEfficiencyRegion(1.5); ok {
		t.Error("threshold 1.5 should be unreachable for a linear curve")
	}
}

func TestIdealCurveHelper(t *testing.T) {
	c := linearCurve(t, 0.3, 100, 1000)
	ideal := c.IdealCurve(100)
	if len(ideal) != c.NumLevels() {
		t.Fatalf("ideal has %d points", len(ideal))
	}
	if math.Abs(ideal[5].PowerWatts-50) > 1e-9 {
		t.Errorf("ideal power at 50%% = %v, want 50", ideal[5].PowerWatts)
	}
}

func TestPointEE(t *testing.T) {
	if (Point{OpsPerSec: 100, PowerWatts: 0}).EE() != 0 {
		t.Error("zero power should give zero EE, not +Inf")
	}
	if got := (Point{OpsPerSec: 100, PowerWatts: 50}).EE(); got != 2 {
		t.Errorf("EE = %v, want 2", got)
	}
}

// randomCurve builds a valid random standard curve for property tests.
func randomCurve(rng *rand.Rand) *Curve {
	idleFrac := 0.05 + 0.9*rng.Float64()
	peak := 100 + 900*rng.Float64()
	watts := make([]float64, 10)
	ops := make([]float64, 10)
	prev := idleFrac * peak
	for i := 0; i < 10; i++ {
		// Nondecreasing power with random increments; last level = peak.
		prev += rng.Float64() * (peak - prev) / float64(10-i)
		watts[i] = prev
		ops[i] = (float64(i+1)/10 + 0.05*rng.Float64()) * 1e6
	}
	watts[9] = peak
	c, err := NewStandardCurve(idleFrac*peak, watts, ops)
	if err != nil {
		panic(err)
	}
	return c
}

// Property: EP stays within its documented bounds for any curve whose
// power never exceeds peak, and EP = 2 - 2·area exactly.
func TestEPPropertyBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		c := randomCurve(rng)
		ep := c.EP()
		if ep < 0 || ep >= 2 {
			t.Fatalf("EP out of range: %v", ep)
		}
		// EP + 2·area must equal 2.
		if math.Abs(ep-(2-2*c.normalizedArea())) > 1e-12 {
			t.Fatalf("EP identity violated")
		}
	}
}

// Property: lower idle fraction (same shape otherwise) gives higher EP.
func TestEPPropertyIdleMonotonic(t *testing.T) {
	prev := math.Inf(-1)
	for _, k := range []float64{0.9, 0.7, 0.5, 0.3, 0.1, 0.01} {
		watts := make([]float64, 10)
		ops := make([]float64, 10)
		for i := 0; i < 10; i++ {
			u := float64(i+1) / 10
			watts[i] = 100 * (k + (1-k)*u)
			ops[i] = 1e6 * u
		}
		c, err := NewStandardCurve(100*k, watts, ops)
		if err != nil {
			t.Fatal(err)
		}
		if ep := c.EP(); ep <= prev {
			t.Fatalf("EP not monotone in idle: idle=%v ep=%v prev=%v", k, ep, prev)
		} else {
			prev = ep
		}
	}
}

// Property: PeakOverFullRatio >= 1 and the peak utilization is among the
// standard levels.
func TestPeakEEProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		c := randomCurve(rng)
		if r := c.PeakOverFullRatio(); r < 1-1e-12 {
			t.Fatalf("PeakOverFullRatio = %v < 1", r)
		}
		u := c.PeakEEUtilization()
		found := false
		for _, s := range StandardUtilizations[1:] {
			if u == s {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("peak utilization %v not a standard level", u)
		}
	}
}

// Property (testing/quick): EP is invariant under uniform power scaling.
func TestEPPropertyScaleInvariant(t *testing.T) {
	f := func(seed int64, scaleRaw float64) bool {
		scale := 0.1 + math.Abs(math.Mod(scaleRaw, 100))
		rng := rand.New(rand.NewSource(seed))
		c := randomCurve(rng)
		pts := c.Points()
		for i := range pts {
			pts[i].PowerWatts *= scale
		}
		scaled, err := NewCurve(pts)
		if err != nil {
			return false
		}
		return math.Abs(c.EP()-scaled.EP()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEPSimpsonAgreesOnSmoothCurves(t *testing.T) {
	// Simpson and trapezoid agree exactly on linear curves and within a
	// small tolerance on smooth random curves.
	c := linearCurve(t, 0.3, 100, 1000)
	if math.Abs(c.EPSimpson()-c.EP()) > 1e-12 {
		t.Errorf("Simpson %v vs trapezoid %v on a linear curve", c.EPSimpson(), c.EP())
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		rc := randomCurve(rng)
		if diff := math.Abs(rc.EPSimpson() - rc.EP()); diff > 0.05 {
			t.Fatalf("quadratures diverge by %v", diff)
		}
	}
}

func TestEPSimpsonNonStandardGridFallsBack(t *testing.T) {
	c, err := NewCurve([]Point{
		{Utilization: 0, PowerWatts: 50},
		{Utilization: 0.5, OpsPerSec: 500, PowerWatts: 100},
		{Utilization: 1, OpsPerSec: 1000, PowerWatts: 150},
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.EPSimpson() != c.EP() {
		t.Error("non-standard grid should fall back to the trapezoid value")
	}
}

// Property: high-efficiency regions are well-formed — inside [0,1],
// ordered, disjoint, and each actually contains a level meeting the
// threshold.
func TestHighEfficiencyRegionsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 300; trial++ {
		c := randomCurve(rng)
		threshold := 0.7 + 0.6*rng.Float64()
		regions := c.HighEfficiencyRegions(threshold)
		prevHi := -1.0
		for _, r := range regions {
			if r.Lo < 0 || r.Hi > 1 || r.Lo > r.Hi {
				t.Fatalf("malformed region %+v", r)
			}
			if r.Lo <= prevHi {
				t.Fatalf("regions overlap or unordered: %v", regions)
			}
			prevHi = r.Hi
		}
		// Every measured level meeting the threshold lies in a region.
		norm := c.NormalizedEE()
		for i, u := range StandardUtilizations {
			if i == 0 {
				continue
			}
			if norm[i] >= threshold {
				inside := false
				for _, r := range regions {
					if r.Contains(u) {
						inside = true
						break
					}
				}
				if !inside {
					t.Fatalf("level %v (EE %.3f ≥ %.3f) outside all regions %v",
						u, norm[i], threshold, regions)
				}
			}
		}
	}
}

// Property: every reported ideal-curve intersection sits on the ideal
// line within interpolation tolerance, strictly inside (0, 1).
func TestIdealIntersectionsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 300; trial++ {
		c := randomCurve(rng)
		for _, u := range c.IdealIntersections() {
			if u <= 0 || u >= 1 {
				t.Fatalf("crossing at %v outside (0,1)", u)
			}
			p, err := c.PowerAt(u)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(p-u) > 1e-9 {
				t.Fatalf("crossing at %v not on ideal line: p=%v", u, p)
			}
		}
	}
}

// TestScalarAccessorsDoNotAllocate pins that the scalar accessors read
// the curve's columns in place: none builds a normalized-power slice.
func TestScalarAccessorsDoNotAllocate(t *testing.T) {
	c := linearCurve(t, 0.3, 200, 1e6)
	var sink float64
	for _, a := range []struct {
		name string
		call func()
	}{
		{"EP", func() { sink = c.EP() }},
		{"LinearDeviation", func() { sink = c.LinearDeviation() }},
		{"PowerAt", func() { sink, _ = c.PowerAt(0.35) }},
		{"PeakOverFullRatio", func() { sink = c.PeakOverFullRatio() }},
		{"EPSimpson", func() { sink = c.EPSimpson() }},
	} {
		if n := testing.AllocsPerRun(100, a.call); n != 0 {
			t.Errorf("%s allocates %v objects per call, want 0", a.name, n)
		}
	}
	_ = sink
}
