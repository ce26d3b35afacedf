// Package core implements the paper's metric kernel: the SPECpower-style
// power/performance curve over graduated utilization levels and every
// scalar metric the paper derives from it — energy proportionality
// (Eq. 1), linear deviation, dynamic range, idle power fraction, energy
// efficiency at each level, overall efficiency, peak efficiency and the
// utilization spot(s) where it occurs, intersections with the ideal
// proportionality curve, and high-efficiency working regions.
//
// A Curve is immutable after construction; all accessors return copies.
package core

import (
	"errors"
	"fmt"
	"math"
)

// Point is one measurement interval of a SPECpower-style run: the target
// utilization (0 for active idle, 0.10..1.00 for the ten load levels),
// the achieved throughput in ssj_ops, and the average power draw.
type Point struct {
	// Utilization is the target load as a fraction in [0, 1].
	Utilization float64
	// OpsPerSec is the achieved throughput (ssj_ops). Zero at active idle.
	OpsPerSec float64
	// PowerWatts is the average wall power during the interval.
	PowerWatts float64
}

// EE returns the point's energy efficiency in ops per watt.
func (p Point) EE() float64 {
	if p.PowerWatts <= 0 {
		return 0
	}
	return p.OpsPerSec / p.PowerWatts
}

// Validation errors returned by NewCurve.
var (
	ErrTooFewPoints      = errors.New("core: curve needs at least two points")
	ErrNoIdlePoint       = errors.New("core: first point must be active idle (utilization 0)")
	ErrNoPeakPoint       = errors.New("core: last point must be peak utilization (1.0)")
	ErrUnorderedPoints   = errors.New("core: utilizations must strictly increase")
	ErrNonPositivePower  = errors.New("core: power must be positive at every level")
	ErrNegativeOps       = errors.New("core: throughput must be non-negative")
	ErrIdleHasThroughput = errors.New("core: active idle must have zero throughput")
)

// Curve is a power/performance curve over graduated utilization levels,
// ordered from active idle (utilization 0) to peak (utilization 1).
// SPECpower curves have 11 points (active idle plus 10% steps), but any
// strictly increasing grid that starts at 0 and ends at 1 is accepted.
type Curve struct {
	points []Point
}

// NewCurve validates and copies points into an immutable Curve.
func NewCurve(points []Point) (*Curve, error) {
	if len(points) < 2 {
		return nil, ErrTooFewPoints
	}
	if points[0].Utilization != 0 {
		return nil, ErrNoIdlePoint
	}
	if points[len(points)-1].Utilization != 1 {
		return nil, ErrNoPeakPoint
	}
	if points[0].OpsPerSec != 0 {
		return nil, ErrIdleHasThroughput
	}
	for i, p := range points {
		if i > 0 && p.Utilization <= points[i-1].Utilization {
			return nil, fmt.Errorf("%w: point %d (%v after %v)",
				ErrUnorderedPoints, i, p.Utilization, points[i-1].Utilization)
		}
		if p.PowerWatts <= 0 {
			return nil, fmt.Errorf("%w: point %d", ErrNonPositivePower, i)
		}
		if p.OpsPerSec < 0 {
			return nil, fmt.Errorf("%w: point %d", ErrNegativeOps, i)
		}
	}
	return &Curve{points: append([]Point(nil), points...)}, nil
}

// StandardUtilizations are the eleven SPECpower target loads in ascending
// order: active idle, then 10% steps up to 100%.
var StandardUtilizations = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// NewStandardCurve builds a Curve on the SPECpower grid from an idle
// power reading and ten (power, ops) pairs ordered 10%..100%.
func NewStandardCurve(idleWatts float64, watts, ops []float64) (*Curve, error) {
	if len(watts) != 10 || len(ops) != 10 {
		return nil, fmt.Errorf("core: standard curve needs 10 load levels, got %d power / %d ops", len(watts), len(ops))
	}
	points := make([]Point, 0, 11)
	points = append(points, Point{Utilization: 0, PowerWatts: idleWatts})
	for i := 0; i < 10; i++ {
		points = append(points, Point{
			Utilization: StandardUtilizations[i+1],
			OpsPerSec:   ops[i],
			PowerWatts:  watts[i],
		})
	}
	return NewCurve(points)
}

// Points returns a copy of the curve's points.
func (c *Curve) Points() []Point {
	return append([]Point(nil), c.points...)
}

// NumLevels returns the number of points including active idle.
func (c *Curve) NumLevels() int { return len(c.points) }

// PeakPower returns the power at 100% utilization.
func (c *Curve) PeakPower() float64 {
	return c.points[len(c.points)-1].PowerWatts
}

// IdlePower returns the active-idle power.
func (c *Curve) IdlePower() float64 { return c.points[0].PowerWatts }

// IdleFraction returns idle power normalized to power at 100%
// utilization — the paper's "idle power percentage" and Hsu & Poole's
// idle-to-peak ratio (IPR).
func (c *Curve) IdleFraction() float64 {
	return c.IdlePower() / c.PeakPower()
}

// DynamicRange returns (P₁₀₀ − P_idle)/P₁₀₀, the normalized power swing
// the server can modulate. It equals 1 − IdleFraction.
func (c *Curve) DynamicRange() float64 {
	return 1 - c.IdleFraction()
}

// NormalizedPower returns the power at each point divided by the power
// at 100% utilization, in curve order.
func (c *Curve) NormalizedPower() []float64 {
	peak := c.PeakPower()
	out := make([]float64, len(c.points))
	for i, p := range c.points {
		out[i] = p.PowerWatts / peak
	}
	return out
}

// PowerAt returns the normalized power at utilization u in [0, 1],
// linearly interpolating between measured levels. Any other u,
// including NaN, is an error.
func (c *Curve) PowerAt(u float64) (float64, error) {
	if !(u >= 0 && u <= 1) {
		return 0, fmt.Errorf("core: utilization %v outside [0, 1]", u)
	}
	norm := c.NormalizedPower()
	for i := 1; i < len(c.points); i++ {
		lo, hi := c.points[i-1].Utilization, c.points[i].Utilization
		if u <= hi {
			frac := (u - lo) / (hi - lo)
			return norm[i-1] + frac*(norm[i]-norm[i-1]), nil
		}
	}
	return norm[len(norm)-1], nil
}

// normalizedArea returns the trapezoid area under the normalized
// power-utilization curve over [0, 1].
func (c *Curve) normalizedArea() float64 {
	norm := c.NormalizedPower()
	var area float64
	for i := 1; i < len(c.points); i++ {
		du := c.points[i].Utilization - c.points[i-1].Utilization
		area += du * (norm[i] + norm[i-1]) / 2
	}
	return area
}

// EP returns the energy proportionality metric of the paper's Eq. 1
// (after Ryckbosch et al.): with the power curve normalized to power at
// 100% utilization and A the trapezoid area under it over [0, 1],
//
//	EP = 1 − (A − A_ideal)/A_ideal = 2 − 2A,  A_ideal = 1/2.
//
// An ideally proportional server scores 1.0; a server whose power is
// flat at its peak scores 0; sublinear curves can exceed 1.0. The value
// lies in (−something small, 2): curves whose mid-load power exceeds
// peak power can dip marginally below zero, which the validation in
// internal/dataset flags as non-compliant.
func (c *Curve) EP() float64 {
	return 2 - 2*c.normalizedArea()
}

// EPSimpson recomputes the Eq. 1 metric with composite Simpson
// quadrature instead of the trapezoid rule — an ablation of the
// metric's numerical integration. It requires the standard 11-point
// grid (an even number of equal sub-intervals); other grids fall back
// to the trapezoid value. On real curves the two agree to within a few
// thousandths; the ablation bench quantifies the difference over the
// corpus.
func (c *Curve) EPSimpson() float64 {
	if len(c.points) != 11 {
		return c.EP()
	}
	norm := c.NormalizedPower()
	h := 0.1
	sum := norm[0] + norm[10]
	for i := 1; i < 10; i++ {
		if i%2 == 1 {
			sum += 4 * norm[i]
		} else {
			sum += 2 * norm[i]
		}
	}
	area := h / 3 * sum
	return 2 - 2*area
}

// LinearDeviation returns LD, the signed area between the normalized
// power curve and the chord from (0, idle) to (1, 1). Positive LD means
// the curve runs above the chord (superlinear power growth, worse at
// mid utilization); negative LD means sublinear growth (better).
func (c *Curve) LinearDeviation() float64 {
	chordArea := (c.IdleFraction() + 1) / 2
	return c.normalizedArea() - chordArea
}

// ProportionalityGap returns p_norm(u) − u at each measured point: how
// far the server's normalized power sits above the ideal line at that
// utilization. The slice is in curve order.
func (c *Curve) ProportionalityGap() []float64 {
	norm := c.NormalizedPower()
	out := make([]float64, len(c.points))
	for i, p := range c.points {
		out[i] = norm[i] - p.Utilization
	}
	return out
}

// EEValues returns the energy efficiency (ops/watt) at each measured
// point in curve order. Active idle has zero efficiency by definition.
func (c *Curve) EEValues() []float64 {
	out := make([]float64, len(c.points))
	for i, p := range c.points {
		out[i] = p.EE()
	}
	return out
}

// NormalizedEE returns each point's efficiency divided by the efficiency
// at 100% utilization — the y-axis of the paper's almond chart (Fig. 11).
func (c *Curve) NormalizedEE() []float64 {
	full := c.points[len(c.points)-1].EE()
	out := make([]float64, len(c.points))
	if full <= 0 {
		return out
	}
	for i, p := range c.points {
		out[i] = p.EE() / full
	}
	return out
}

// OverallEE returns the server's overall performance-to-power ratio —
// the SPECpower score: Σ ssj_ops across the ten load levels divided by
// Σ power across all eleven intervals including active idle.
func (c *Curve) OverallEE() float64 {
	var ops, watts float64
	for _, p := range c.points {
		ops += p.OpsPerSec
		watts += p.PowerWatts
	}
	if watts <= 0 {
		return 0
	}
	return ops / watts
}

// PeakEETolerance is the relative tolerance under which two levels'
// efficiencies count as tied for the peak (the dataset contains a 2011
// server whose 80% and 90% levels tie exactly). Exported so the
// columnar metric kernel in internal/dataset applies the identical
// tie rule.
const PeakEETolerance = 1e-9

// PeakEE returns the greatest energy efficiency across all measured
// levels and every utilization at which it occurs (ties included,
// ascending). Active idle never qualifies.
func (c *Curve) PeakEE() (value float64, utilizations []float64) {
	for _, p := range c.points[1:] {
		if ee := p.EE(); ee > value {
			value = ee
		}
	}
	for _, p := range c.points[1:] {
		if ee := p.EE(); ee >= value*(1-PeakEETolerance) {
			utilizations = append(utilizations, p.Utilization)
		}
	}
	return value, utilizations
}

// PeakEEUtilization returns the lowest utilization at which the curve
// attains its peak efficiency.
func (c *Curve) PeakEEUtilization() float64 {
	_, utils := c.PeakEE()
	if len(utils) == 0 {
		return 0
	}
	return utils[0]
}

// PeakEEOffset returns how far the peak-efficiency spot sits below full
// utilization: 1 − PeakEEUtilization. Zero for servers that are most
// efficient when fully loaded.
func (c *Curve) PeakEEOffset() float64 {
	return 1 - c.PeakEEUtilization()
}

// PeakOverFullRatio returns peak efficiency divided by the efficiency at
// 100% utilization (≥ 1 by construction).
func (c *Curve) PeakOverFullRatio() float64 {
	full := c.points[len(c.points)-1].EE()
	if full <= 0 {
		return 0
	}
	peak, _ := c.PeakEE()
	return peak / full
}

// IdealIntersections returns the utilizations in the open interval
// (0, 1) at which the normalized power curve crosses the ideal
// proportionality line p = u, found by linear interpolation on each
// segment. Touching the line without crossing does not count. The
// shared endpoint at u = 1 (where every normalized curve meets the
// ideal line by construction) is excluded.
func (c *Curve) IdealIntersections() []float64 {
	gap := c.ProportionalityGap()
	us := make([]float64, len(c.points))
	for i, p := range c.points {
		us[i] = p.Utilization
	}
	var out []float64
	for i := 1; i < len(gap); i++ {
		g0, g1 := gap[i-1], gap[i]
		switch {
		case g0*g1 < 0:
			// Strict sign change inside the segment: interpolate.
			t := g0 / (g0 - g1)
			if u := us[i-1] + t*(us[i]-us[i-1]); u > 0 && u < 1 {
				out = append(out, u)
			}
		case g1 == 0 && g0 != 0 && us[i] > 0 && us[i] < 1:
			// Exact zero at an interior grid point (possibly the start of
			// a plateau of zeros): it is a crossing only if the nearest
			// non-zero gap after the plateau has the opposite sign of g0.
			// Recording at the plateau's first point keeps one crossing
			// per sign change.
			var after float64
			for j := i + 1; j < len(gap); j++ {
				if gap[j] != 0 {
					after = gap[j]
					break
				}
			}
			if g0*after < 0 {
				out = append(out, us[i])
			}
		}
	}
	return out
}

// Interval is a closed utilization range [Lo, Hi].
type Interval struct {
	Lo, Hi float64
}

// Width returns Hi − Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Contains reports whether u lies inside the interval.
func (iv Interval) Contains(u float64) bool { return u >= iv.Lo && u <= iv.Hi }

// HighEfficiencyRegions returns the contiguous utilization intervals
// over which the normalized efficiency (relative to 100% load) is at
// least threshold. Boundaries between measured levels are linearly
// interpolated. The paper's "high energy efficiency zone" uses
// threshold = 1.0; its "optimal working region" discussion uses the
// widest such region.
func (c *Curve) HighEfficiencyRegions(threshold float64) []Interval {
	ee := c.NormalizedEE()
	us := make([]float64, len(c.points))
	for i, p := range c.points {
		us[i] = p.Utilization
	}
	var regions []Interval
	inside := false
	var start float64
	// Skip the idle point: efficiency there is zero by definition.
	for i := 1; i < len(us); i++ {
		above := ee[i] >= threshold
		if above && !inside {
			start = us[i]
			if i > 1 && ee[i-1] < threshold {
				// Interpolate the entry boundary on the previous segment.
				t := (threshold - ee[i-1]) / (ee[i] - ee[i-1])
				start = us[i-1] + t*(us[i]-us[i-1])
			}
			inside = true
		}
		if !above && inside {
			end := us[i-1]
			if ee[i-1] > threshold {
				t := (ee[i-1] - threshold) / (ee[i-1] - ee[i])
				end = us[i-1] + t*(us[i]-us[i-1])
			}
			regions = append(regions, Interval{Lo: start, Hi: end})
			inside = false
		}
	}
	if inside {
		regions = append(regions, Interval{Lo: start, Hi: 1})
	}
	return regions
}

// WidestHighEfficiencyRegion returns the widest interval from
// HighEfficiencyRegions and false when no level reaches the threshold.
func (c *Curve) WidestHighEfficiencyRegion(threshold float64) (Interval, bool) {
	var best Interval
	found := false
	for _, r := range c.HighEfficiencyRegions(threshold) {
		if !found || r.Width() > best.Width() {
			best = r
			found = true
		}
	}
	return best, found
}

// IdealCurve returns the ideal energy-proportionality curve (power equal
// to utilization) sampled on this curve's utilization grid, with the
// given peak power in watts. Useful for plotting against the measured
// curve.
func (c *Curve) IdealCurve(peakWatts float64) []Point {
	out := make([]Point, len(c.points))
	for i, p := range c.points {
		out[i] = Point{
			Utilization: p.Utilization,
			OpsPerSec:   p.OpsPerSec,
			PowerWatts:  math.Max(peakWatts*p.Utilization, 1e-9),
		}
	}
	return out
}
