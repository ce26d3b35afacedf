package synth

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/verify/tol"
)

// fuzzNormalize turns 11 arbitrary float64s into an admissible
// normalized curve: strictly increasing positive powers with the 100%
// level pinned to 1, the way every corpus curve is shaped. Returns
// ok=false for inputs that cannot be coerced (NaN, Inf, degenerate
// spans).
func fuzzNormalize(raw [11]float64) (normCurve, bool) {
	steps := make([]float64, 11)
	for i, v := range raw {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return normCurve{}, false
		}
		// Fold each input into a strictly positive step size.
		steps[i] = 1e-3 + math.Abs(math.Mod(v, 64))
	}
	cum := make([]float64, 11)
	cum[0] = steps[0]
	for i := 1; i < 11; i++ {
		cum[i] = cum[i-1] + steps[i]
	}
	peak := cum[10]
	var c normCurve
	c.idle = cum[0] / peak
	for i := 0; i < 10; i++ {
		c.levels[i] = cum[i+1] / peak
	}
	if !c.monotone() || c.idle <= 0 {
		return normCurve{}, false
	}
	return c, true
}

// toCore denormalizes a curve into the dataset representation (a 300 W
// peak server with throughput proportional to load) so core.Curve
// recomputes EP through the independent production path.
func toCore(t *testing.T, c normCurve) *core.Curve {
	t.Helper()
	const peakWatts, peakOps = 300.0, 1e6
	points := make([]core.Point, 0, 11)
	points = append(points, core.Point{Utilization: 0, PowerWatts: c.idle * peakWatts})
	for i, u := range levelGrid {
		points = append(points, core.Point{
			Utilization: u,
			OpsPerSec:   u * peakOps,
			PowerWatts:  c.levels[i] * peakWatts,
		})
	}
	curve, err := core.NewCurve(points)
	if err != nil {
		t.Fatalf("normalized curve rejected by core.NewCurve: %v", err)
	}
	return curve
}

// FuzzCurveEP drives random admissible curves through both EP
// implementations: the generator's normalized trapezoid (ep) and the
// production metric kernel (core.Curve.EP). They must agree to float
// round-off and stay inside the provable (0, 2) band.
func FuzzCurveEP(f *testing.F) {
	rp, err := NewRepository(Config{Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range rp.Valid().All()[:16] { // seed with real corpus curves
		points := r.MustCurve().Points()
		peak := points[10].PowerWatts
		var raw [11]float64
		prev := 0.0
		for i, p := range points {
			raw[i] = p.PowerWatts/peak - prev
			prev = p.PowerWatts / peak
		}
		f.Add(raw[0], raw[1], raw[2], raw[3], raw[4], raw[5],
			raw[6], raw[7], raw[8], raw[9], raw[10])
	}
	f.Add(0.5, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1)

	f.Fuzz(func(t *testing.T, v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10 float64) {
		c, ok := fuzzNormalize([11]float64{v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10})
		if !ok {
			t.Skip()
		}
		ep := c.ep()
		if ep <= tol.MinEP || ep >= tol.MaxEP {
			t.Fatalf("EP %v outside (%v, %v) for monotone curve %+v", ep, tol.MinEP, tol.MaxEP, c)
		}
		if got := 2 - 2*c.trapezoidArea(); got != ep {
			t.Fatalf("ep() %v inconsistent with trapezoidArea %v", ep, got)
		}
		if coreEP := toCore(t, c).EP(); math.Abs(coreEP-ep) > tol.EPRecomputeTolerance {
			t.Fatalf("core.Curve.EP %v diverges from normCurve.ep %v (Δ %v)",
				coreEP, ep, coreEP-ep)
		}
	})
}

// FuzzIdleForEP round-trips the generator's two curve solvers: the
// exact idle-for-EP inversion over the cubic shape family (fitShape),
// and the Eq. 2 inversion. Whenever fitShape accepts a target the idle
// must sit inside the physical band and the curve must hit that EP to
// round-off, and idleFromEq2 must invert Eq. 2 exactly.
func FuzzIdleForEP(f *testing.F) {
	rp, err := NewRepository(Config{Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	eps := rp.Valid().EPs()
	for i, ep := range eps[:24] { // seed with real corpus EP targets
		a := -1.0 + 2.0*float64(i)/24
		f.Add(a, -a/2, ep)
	}
	f.Add(0.0, 0.0, 0.5)
	f.Add(0.3, -0.6, 1.05)

	f.Fuzz(func(t *testing.T, a, b, ep float64) {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(ep) ||
			math.Abs(a) > 2 || math.Abs(b) > 2 || ep <= 0.01 || ep >= 1.8 {
			t.Skip()
		}
		var c normCurve
		if c.fitShape(a, b, ep) {
			if k := c.idle; k < 0.015 || k > 0.93 {
				t.Fatalf("fitShape(%v, %v, %v) idle %v outside the physical band", a, b, ep, k)
			}
			if got := c.ep(); math.Abs(got-ep) > 1e-9 {
				t.Fatalf("fitShape(%v, %v, %v).ep() = %v, want %v (Δ %v)",
					a, b, ep, got, ep, got-ep)
			}
		}
		if ep < eq2A { // Eq. 2 only covers EPs below its A asymptote at idle ≥ 0
			idle := idleFromEq2(ep)
			if back := eq2A * math.Exp(eq2B*idle); math.Abs(back-ep) > 1e-9*math.Max(1, ep) {
				t.Fatalf("Eq. 2 round trip: idleFromEq2(%v) = %v maps back to %v", ep, idle, back)
			}
		}
	})
}

// FuzzSolveCurve compares the solver with its pre-rewrite reference
// copy (solver_ref_test.go) on arbitrary seeds, EP targets and wanted
// spots: the curve bits and the next draw must match.
func FuzzSolveCurve(f *testing.F) {
	// Inputs that reach each of the reference's exits: first loop,
	// second loop, forced, fallback, and the linear last resort.
	f.Add(int64(1), 0.62, uint8(9))
	f.Add(int64(1), 0.05, uint8(9))
	f.Add(int64(1), 0.35, uint8(8))
	f.Add(int64(1), 0.7, uint8(5))
	f.Add(int64(1), 0.01, uint8(9))

	f.Fuzz(func(t *testing.T, seed int64, ep float64, spot uint8) {
		if !(ep > 0 && ep < 2) {
			t.Skip()
		}
		compareSolver(t, seed, ep, solverSpots[int(spot)%len(solverSpots)])
	})
}
