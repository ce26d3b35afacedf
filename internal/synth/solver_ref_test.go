package synth

import (
	"math"
	"math/rand"
	"testing"
)

// This file keeps a verbatim copy of the curve solver as it stood
// before the one-pass rewrite: solveCurve and everything it calls,
// renamed with a ref prefix, with refCurve standing in for normCurve so
// the methods keep their value receivers. The only addition is the exit
// the solver took, which the oracle uses to prove it reached every
// branch. The production solver must draw the same random numbers and
// return the same bits as this copy.

type refCurve normCurve

// refExit names the branch refSolveCurve returned from.
type refExit int

const (
	refExitFirst    refExit = iota // a first-loop shape hit the spot
	refExitSecond                  // a second-loop shape hit the spot
	refExitForced                  // forceSpot nudged a shape onto the spot
	refExitFallback                // the closest admissible candidate
	refExitLinear                  // the linear last resort
	refExitCount
)

var refExitNames = [refExitCount]string{"first loop", "second loop", "forced", "fallback", "linear"}

func (c refCurve) trapezoidArea() float64 {
	area := 0.1 * (c.idle + c.levels[0]) / 2
	for i := 1; i < 10; i++ {
		area += 0.1 * (c.levels[i-1] + c.levels[i]) / 2
	}
	return area
}

func (c refCurve) ep() float64 { return 2 - 2*c.trapezoidArea() }

func (c refCurve) peakSpot() (spot float64, margin float64) {
	best, second := -1.0, -1.0
	for i, u := range levelGrid {
		e := u / c.levels[i]
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

func (c refCurve) monotone() bool {
	prev := c.idle
	for _, p := range c.levels {
		if p <= prev {
			return false
		}
		prev = p
	}
	return true
}

func refCubicShape(a, b, u float64) float64 {
	return u + u*(1-u)*(a+b*u)
}

func refShapeCurve(a, b, k float64) refCurve {
	var c refCurve
	c.idle = k
	for i, u := range levelGrid {
		c.levels[i] = k + (1-k)*refCubicShape(a, b, u)
	}
	return c
}

func refShapeArea(a, b float64) float64 {
	area := 0.1 * refCubicShape(a, b, 0.1) / 2
	for i := 1; i < len(levelGrid); i++ {
		area += 0.1 * (refCubicShape(a, b, levelGrid[i-1]) + refCubicShape(a, b, levelGrid[i])) / 2
	}
	return area
}

func refIdleForEP(a, b, ep float64) (float64, bool) {
	g := refShapeArea(a, b)
	if g >= 1 {
		return 0, false
	}
	k := (1 - ep/2 - g) / (1 - g)
	if k < 0.015 || k > 0.93 {
		return 0, false
	}
	return k, true
}

func refShapeAdmissible(a, b float64) bool {
	prev := 0.0
	for _, u := range levelGrid {
		s := refCubicShape(a, b, u)
		if s <= prev || (u < 1 && s >= 1) || s < 0 {
			return false
		}
		prev = s
	}
	return true
}

func refSolveCurve(rng *rand.Rand, ep, wantSpot float64) (refCurve, refExit) {
	targetIdle := clampF(idleFromEq2(ep)+eq2IdleNoise*rng.NormFloat64(), 0.03, 0.90)
	aStar := 1 - ep/2
	gTarget := (aStar - targetIdle) / (1 - targetIdle)

	var (
		fallback    refCurve
		haveFall    bool
		fallbackGap = math.Inf(1)
		exit        = refExitFirst
	)
	consider := func(c refCurve) (refCurve, bool) {
		if !c.monotone() {
			return refCurve{}, false
		}
		spot, margin := c.peakSpot()
		if spot == wantSpot && margin >= peakMargin {
			return c, true
		}
		if forced, ok := refForceSpot(c, wantSpot, ep); ok {
			exit = refExitForced
			return forced, true
		}
		if gap := math.Abs(spot - wantSpot); gap < fallbackGap && margin >= peakMargin {
			fallback, haveFall, fallbackGap = c, true, gap
		}
		return refCurve{}, false
	}
	for attempt := 0; attempt < 200; attempt++ {
		a := -1.0 + 2.0*rng.Float64()
		b := 12 * (gTarget - 0.5 - a/6)
		if b < -1.6 || b > 1.6 || !refShapeAdmissible(a, b) {
			continue
		}
		k, ok := refIdleForEP(a, b, ep)
		if !ok {
			continue
		}
		if c, ok := consider(refShapeCurve(a, b, k)); ok {
			return c, exit
		}
	}
	exit = refExitSecond
	for attempt := 0; attempt < 400; attempt++ {
		a := -1.0 + 2.0*rng.Float64()
		b := -1.2 + 2.4*rng.Float64()
		if !refShapeAdmissible(a, b) {
			continue
		}
		k, ok := refIdleForEP(a, b, ep)
		if !ok {
			continue
		}
		if c, ok := consider(refShapeCurve(a, b, k)); ok {
			return c, exit
		}
	}
	if haveFall {
		return fallback, refExitFallback
	}
	k := 1 - ep
	if k < 0.015 {
		k = 0.015
	}
	return refShapeCurve(0, 0, k), refExitLinear
}

func refForceSpot(c refCurve, spot, ep float64) (refCurve, bool) {
	if spot >= 1 {
		return refCurve{}, false
	}
	idx := -1
	for i, u := range levelGrid {
		if u == spot {
			idx = i
			break
		}
	}
	if idx < 0 {
		return refCurve{}, false
	}
	maxOther := 0.0
	for i, u := range levelGrid {
		if i == idx {
			continue
		}
		if e := u / c.levels[i]; e > maxOther {
			maxOther = e
		}
	}
	need := spot / (maxOther * (peakMargin + 0.004))
	if need >= c.levels[idx] {
		return refCurve{}, false
	}
	nudged := c
	nudged.levels[idx] = need
	if !nudged.monotone() {
		return refCurve{}, false
	}
	out := refBlendToEP(nudged, ep)
	if !out.monotone() {
		return refCurve{}, false
	}
	if s, m := out.peakSpot(); s != spot || m < peakMargin {
		return refCurve{}, false
	}
	return out, true
}

func refFlatRef() refCurve {
	var c refCurve
	c.idle = 0.95
	for i := range c.levels {
		c.levels[i] = 0.95 + 0.05*levelGrid[i]
	}
	return c
}

func refConvexRef() refCurve {
	var c refCurve
	for i, u := range levelGrid {
		c.levels[i] = u * u
	}
	return c
}

func refBlendToEP(c refCurve, target float64) refCurve {
	base := c.ep()
	if base == target {
		return c
	}
	ref := refFlatRef()
	if target > base {
		ref = refConvexRef()
	}
	lambda := (target - base) / (ref.ep() - base)
	out := refCurve{idle: (1-lambda)*c.idle + lambda*ref.idle}
	for i := range c.levels {
		out.levels[i] = (1-lambda)*c.levels[i] + lambda*ref.levels[i]
	}
	return out
}

// sameCurveBits reports whether two curves are Float64bits-identical at
// the idle and every level.
func sameCurveBits(got normCurve, want refCurve) bool {
	if math.Float64bits(got.idle) != math.Float64bits(want.idle) {
		return false
	}
	for i := range got.levels {
		if math.Float64bits(got.levels[i]) != math.Float64bits(want.levels[i]) {
			return false
		}
	}
	return true
}

// solverSpots is every wanted spot the oracle tries: the grid, plus an
// off-grid spot forceSpot cannot index and one past full load.
var solverSpots = append(append([]float64(nil), levelGrid...), 0.65, 1.2)

// compareSolver runs the production solver and the reference from the
// same seed. It reports the reference's exit and fails t unless both
// curves are bit-identical and both streams stand at the same position.
// It also fails t on a curve that is not monotone for an EP target in
// sampleEP's range [0.19, 0.99]: fleet generation draws each server
// once and relies on that.
func compareSolver(t *testing.T, seed int64, ep, spot float64) refExit {
	t.Helper()
	gotRng := rand.New(rand.NewSource(seed))
	wantRng := rand.New(rand.NewSource(seed))
	got := solveCurve(gotRng, ep, spot)
	want, exit := refSolveCurve(wantRng, ep, spot)
	if !sameCurveBits(got, want) {
		t.Fatalf("seed %d ep %v spot %v (%s): curve\n  got  %+v\n  want %+v",
			seed, ep, spot, refExitNames[exit], got, want)
	}
	if ep >= 0.19 && ep <= 0.99 && !got.monotone() {
		t.Fatalf("seed %d ep %v spot %v (%s): curve %+v is not monotone", seed, ep, spot, refExitNames[exit], got)
	}
	if g, w := gotRng.Int63(), wantRng.Int63(); g != w {
		t.Fatalf("seed %d ep %v spot %v (%s): streams end at different positions (next draw %d, want %d)",
			seed, ep, spot, refExitNames[exit], g, w)
	}
	return exit
}

// TestSolveCurveMatchesReference is the solver's byte-for-byte oracle:
// over EP targets across the whole accepted range, a share inside the
// fleet's range, and the degenerate EP 0.01 that reaches the linear
// last resort, every wanted spot must give the reference's curve bits
// and leave the stream where the reference leaves it. Every exit of the
// reference must be reached, so the comparison covers each branch.
func TestSolveCurveMatchesReference(t *testing.T) {
	const trials = 40_000
	pick := rand.New(rand.NewSource(20160401))
	var exits [refExitCount]int
	for trial := 0; trial < trials; trial++ {
		var ep float64
		switch {
		case trial%50 == 0:
			ep = 0.01
		case trial%3 == 0:
			ep = 0.19 + 0.80*pick.Float64()
		default:
			ep = 0.01 + 1.44*pick.Float64()
		}
		spot := solverSpots[pick.Intn(len(solverSpots))]
		exits[compareSolver(t, int64(trial)*7919+1, ep, spot)]++
	}
	t.Logf("exits over %d trials: %v", trials, exits)
	for e, n := range exits {
		if n == 0 {
			t.Errorf("no trial reached the %s exit", refExitNames[e])
		}
	}
}
