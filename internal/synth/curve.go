package synth

import (
	"math"
	"math/rand"
)

// levelGrid is the ten measured utilization levels (10%..100%).
var levelGrid = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// normCurve is a normalized power curve: idle fraction plus the ten
// level powers relative to the 100% level (levels[9] == 1).
type normCurve struct {
	idle   float64
	levels [10]float64
}

// trapezoidArea integrates the curve over utilization [0, 1] with the
// trapezoid rule on the 11-point grid — the same quadrature Eq. 1 uses.
func (c *normCurve) trapezoidArea() float64 {
	area := 0.1 * (c.idle + c.levels[0]) / 2
	for i := 1; i < 10; i++ {
		area += 0.1 * (c.levels[i-1] + c.levels[i]) / 2
	}
	return area
}

// ep returns the curve's energy proportionality (Eq. 1).
func (c *normCurve) ep() float64 { return 2 - 2*c.trapezoidArea() }

// peakSpot returns the utilization level(s) maximizing u/p(u) — the
// peak-efficiency spot(s) assuming throughput proportional to load —
// and the ratio of the best to the runner-up (stability margin). It
// leaves each level's u/p in ratio.
func (c *normCurve) peakSpot(ratio *[10]float64) (spot float64, margin float64) {
	best, second := -1.0, -1.0
	for i := range c.levels {
		u := levelGrid[i]
		e := u / c.levels[i]
		ratio[i] = e
		if e > best {
			second = best
			best = e
			spot = u
		} else if e > second {
			second = e
		}
	}
	if second <= 0 {
		return spot, math.Inf(1)
	}
	return spot, best / second
}

// monotone reports whether power strictly increases across the curve.
func (c *normCurve) monotone() bool {
	prev := c.idle
	for i := range c.levels {
		if c.levels[i] <= prev {
			return false
		}
		prev = c.levels[i]
	}
	return true
}

// fitShape sets c to the member of the cubic shape family
// s(u) = u + u(1-u)(a + b·u), with s(0)=0 and s(1)=1, that has exactly
// the target EP: p(u) = k + (1-k)·s(u). It is the only place the cubic
// is evaluated, once per grid level, and it reports false — leaving c
// unspecified — when:
//   - the shape is inadmissible: s is not strictly increasing, or
//     reaches the 100% power level before full load;
//   - the idle fraction is outside the physical band. With A* = 1 − EP/2
//     and G the shape's trapezoid area on the grid, k = (A* − G)/(1 − G);
//   - rounding leaves the built curve not strictly increasing.
func (c *normCurve) fitShape(a, b, ep float64) bool {
	var s [10]float64
	prev := 0.0
	for i := range s {
		u := levelGrid[i]
		v := u + u*(1-u)*(a+b*u)
		if v <= prev || (u < 1 && v >= 1) || v < 0 {
			return false
		}
		s[i] = v
		prev = v
	}
	g := 0.1 * s[0] / 2
	for i := 1; i < len(s); i++ {
		g += 0.1 * (s[i-1] + s[i]) / 2
	}
	if g >= 1 {
		return false
	}
	k := (1 - ep/2 - g) / (1 - g)
	if k < 0.015 || k > 0.93 {
		return false
	}
	c.idle = k
	prev = k
	for i := range s {
		p := k + (1-k)*s[i]
		if p <= prev {
			return false
		}
		c.levels[i] = p
		prev = p
	}
	return true
}

// peakMargin is the minimum best/runner-up efficiency ratio required so
// per-level throughput jitter cannot move the peak spot.
const peakMargin = 1.012

// Eq. 2 constants: the paper's fitted relation EP = A·e^(B·idle). The
// generator inverts it to choose each server's idle fraction from its
// EP target, which is what makes the corpus reproduce the correlation
// (−0.92) and the regression (R² ≈ 0.89).
const (
	eq2A = 1.2969
	eq2B = -2.06
	// eq2IdleNoise is the σ of the lognormal-ish scatter around the
	// inverted relation, tuned so the fitted R² lands near the paper's.
	eq2IdleNoise = 0.05
)

// idleFromEq2 inverts Eq. 2: idle = ln(EP/A)/B.
func idleFromEq2(ep float64) float64 {
	return math.Log(ep/eq2A) / eq2B
}

// solveCurve builds a curve with the exact target EP whose idle
// fraction follows the inverted Eq. 2 relation (plus scatter) and whose
// peak-efficiency spot lands on wantSpot. The cubic shape family
// provides the curvature; when random search does not hit the spot the
// curve is nudged level-wise and re-blended to the exact EP.
func solveCurve(rng *rand.Rand, ep, wantSpot float64) normCurve {
	targetIdle := clampF(idleFromEq2(ep)+eq2IdleNoise*rng.NormFloat64(), 0.03, 0.90)
	// The shape area implied by the idle choice:
	// A* = k + (1−k)·G  →  G = (A* − k)/(1 − k).
	aStar := 1 - ep/2
	gTarget := (aStar - targetIdle) / (1 - targetIdle)

	s := curveSolver{ep: ep, wantSpot: wantSpot, spotIdx: -1, fallbackGap: math.Inf(1)}
	// The spot can only be forced below full load, whose power is
	// pinned to 1 by normalization.
	for i, u := range levelGrid {
		if u == wantSpot && u < 1 {
			s.spotIdx = i
			break
		}
	}
	for attempt := 0; attempt < 200; attempt++ {
		// One shape degree of freedom comes from the area constraint
		// (continuous integral ∫s = 1/2 + a/6 + b/12 ≈ grid area); the
		// other is sampled.
		a := -1.0 + 2.0*rng.Float64()
		b := 12 * (gTarget - 0.5 - a/6)
		if b < -1.6 || b > 1.6 {
			continue
		}
		if s.try(a, b) {
			return s.c
		}
	}
	// Relax the idle constraint: free search over the family.
	for attempt := 0; attempt < 400; attempt++ {
		a := -1.0 + 2.0*rng.Float64()
		b := -1.2 + 2.4*rng.Float64()
		if s.try(a, b) {
			return s.c
		}
	}
	if s.haveFall {
		return s.fallback
	}
	// Last resort: a plain linear curve (s(u) = u) with the exact EP
	// (idle 1−EP), valid for any EP ≤ ~0.98; steeper EPs always admit a
	// cubic above, so this branch only serves degenerate inputs.
	k := 1 - ep
	if k < 0.015 {
		k = 0.015
	}
	c := normCurve{idle: k}
	for i := range c.levels {
		c.levels[i] = k + (1-k)*levelGrid[i]
	}
	return c
}

// curveSolver is one solveCurve call's search state. It lives on the
// caller's stack, and each attempt overwrites its candidate in place.
type curveSolver struct {
	ep, wantSpot float64
	// spotIdx is wantSpot's grid index, or -1 when forceSpot cannot
	// place the peak there.
	spotIdx int
	// c is the current candidate; ratio holds its u/p at each level.
	c     normCurve
	ratio [10]float64
	// fallback is the admissible candidate whose spot came closest to
	// wantSpot, at fallbackGap.
	fallback    normCurve
	haveFall    bool
	fallbackGap float64
}

// try fits shape (a, b) as the candidate and reports whether it, or
// the candidate forceSpot makes of it, peaks at wantSpot with margin.
// A candidate that misses is kept as the fallback when it comes closer
// than any before it; it is saved before forceSpot overwrites it, which
// changes nothing, since the solver returns as soon as forceSpot
// succeeds.
func (s *curveSolver) try(a, b float64) bool {
	if !s.c.fitShape(a, b, s.ep) {
		return false
	}
	spot, margin := s.c.peakSpot(&s.ratio)
	if spot == s.wantSpot && margin >= peakMargin {
		return true
	}
	if gap := math.Abs(spot - s.wantSpot); gap < s.fallbackGap && margin >= peakMargin {
		s.fallback, s.haveFall, s.fallbackGap = s.c, true, gap
	}
	return s.forceSpot()
}

// forceSpot nudges the candidate's power at the wanted peak-efficiency
// level just low enough to win the argmax with margin, then re-blends
// the curve to the exact EP and verifies the spot survived. It reads
// the candidate's u/p ratios from try's peakSpot, and it overwrites the
// candidate whether or not it succeeds.
func (s *curveSolver) forceSpot() bool {
	idx := s.spotIdx
	if idx < 0 {
		return false
	}
	c := &s.c
	maxOther := 0.0
	for i := range s.ratio {
		if i != idx && s.ratio[i] > maxOther {
			maxOther = s.ratio[i]
		}
	}
	// p at the spot must satisfy u/p ≥ margin·maxOther.
	spot := levelGrid[idx]
	need := spot / (maxOther * (peakMargin + 0.004))
	if need >= c.levels[idx] {
		return false // argmax was already elsewhere by margin
	}
	// The candidate is monotone, so the nudged curve is monotone unless
	// the new level falls out of order with one of its neighbours
	// (idx < 9: the spot is below full load).
	below := c.idle
	if idx > 0 {
		below = c.levels[idx-1]
	}
	if need <= below || c.levels[idx+1] <= need {
		return false
	}
	c.levels[idx] = need
	c.blendToEP(s.ep)
	if !c.monotone() {
		return false
	}
	if sp, m := c.peakSpot(&s.ratio); sp != spot || m < peakMargin {
		return false
	}
	return true
}

func clampF(v, lo, hi float64) float64 {
	return math.Max(lo, math.Min(hi, v))
}

// flatRef is a nearly flat reference curve (EP ≈ 0.05) used to pull a
// handcrafted curve's EP down.
var flatRef = func() normCurve {
	c := normCurve{idle: 0.95}
	for i := range c.levels {
		c.levels[i] = 0.95 + 0.05*levelGrid[i]
	}
	return c
}()

// convexRef is a super-proportional reference (p = u², EP ≈ 1.33) used
// to pull a handcrafted curve's EP up.
var convexRef = func() normCurve {
	var c normCurve
	for i, u := range levelGrid {
		c.levels[i] = u * u
	}
	return c
}()

// The reference curves' EPs, computed once.
var flatRefEP, convexRefEP = flatRef.ep(), convexRef.ep()

// blendToEP adjusts a handcrafted curve, in place, to an exact EP
// target by convex blending with a reference curve on the far side of
// the target. EP is a linear functional of the curve, so the blend
// weight solves exactly: λ = (target − ep(curve)) / (ep(ref) − ep(curve)).
// Handcrafted curves sit close to their targets, so λ stays small and
// the curve's qualitative features (crossing structure, peak spot)
// survive; the anchor tests assert them after blending.
func (c *normCurve) blendToEP(target float64) {
	base := c.ep()
	if base == target {
		return
	}
	ref, refEP := &flatRef, flatRefEP
	if target > base {
		ref, refEP = &convexRef, convexRefEP
	}
	lambda := (target - base) / (refEP - base)
	c.idle = (1-lambda)*c.idle + lambda*ref.idle
	for i := range c.levels {
		c.levels[i] = (1-lambda)*c.levels[i] + lambda*ref.levels[i]
	}
}
