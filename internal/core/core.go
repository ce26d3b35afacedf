// Package core implements the paper's metric kernel: the SPECpower-style
// power/performance curve over graduated utilization levels and every
// scalar metric the paper derives from it — energy proportionality
// (Eq. 1), linear deviation, dynamic range, idle power fraction, energy
// efficiency at each level, overall efficiency, peak efficiency and the
// utilization spot(s) where it occurs, intersections with the ideal
// proportionality curve, and high-efficiency working regions.
//
// A Curve is active-idle power plus per-level utilization, throughput
// and power columns. NewCurve copies its points into fresh columns;
// LevelCurve wraps one row of the dataset column store's level columns
// without copying, so a single result and a million-row corpus read
// their metrics from the same accessors. Both forms validate through
// CheckLevels. A Curve is immutable; accessors that return slices
// return copies, and each Append form appends to the caller's buffer.
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

// Validation errors returned by NewCurve and CheckLevels.
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
	idleWatts float64
	// util, ops and watts are the measured levels after active idle,
	// index-aligned: level k is the curve's point k+1.
	util, ops, watts []float64
}

// NewCurve validates and copies points into an immutable Curve.
func NewCurve(points []Point) (*Curve, error) {
	if len(points) < 2 {
		return nil, ErrTooFewPoints
	}
	if points[0].Utilization != 0 {
		return nil, ErrNoIdlePoint
	}
	if points[0].OpsPerSec != 0 {
		return nil, ErrIdleHasThroughput
	}
	n := len(points) - 1
	cols := make([]float64, 3*n)
	c := LevelCurve(points[0].PowerWatts, cols[:n:n], cols[n:2*n:2*n], cols[2*n:])
	for k, p := range points[1:] {
		c.util[k], c.ops[k], c.watts[k] = p.Utilization, p.OpsPerSec, p.PowerWatts
	}
	if err := CheckLevels(c.idleWatts, c.util, c.ops, c.watts); err != nil {
		return nil, err
	}
	return c, nil
}

// CheckLevels validates a curve given as active-idle power plus its
// measured levels' utilization, throughput and power, index-aligned and
// of equal length: at least one level, utilizations strictly
// increasing from the idle point's 0 and ending at 1, positive power
// at every point and non-negative throughput. It returns the error
// NewCurve reports for the same points, or nil.
func CheckLevels(idleWatts float64, util, ops, watts []float64) error {
	if len(util) < 1 {
		return ErrTooFewPoints
	}
	if util[len(util)-1] != 1 {
		return ErrNoPeakPoint
	}
	if idleWatts <= 0 {
		return fmt.Errorf("%w: point 0", ErrNonPositivePower)
	}
	prev := 0.0
	for k, u := range util {
		// Level k is point k+1; the idle point is point 0.
		if u <= prev {
			return fmt.Errorf("%w: point %d (%v after %v)", ErrUnorderedPoints, k+1, u, prev)
		}
		if watts[k] <= 0 {
			return fmt.Errorf("%w: point %d", ErrNonPositivePower, k+1)
		}
		if ops[k] < 0 {
			return fmt.Errorf("%w: point %d", ErrNegativeOps, k+1)
		}
		prev = u
	}
	return nil
}

// LevelCurve wraps active-idle power and the measured levels'
// utilization, throughput and power in a Curve without copying the
// slices. They must pass CheckLevels and must not change while the
// Curve is in use. A wrapper that does not outlive its caller's frame
// stays on the stack once LevelCurve is inlined.
func LevelCurve(idleWatts float64, util, ops, watts []float64) *Curve {
	return &Curve{idleWatts: idleWatts, util: util, ops: ops, watts: watts}
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
	out := make([]Point, 0, c.NumLevels())
	out = append(out, Point{PowerWatts: c.idleWatts})
	for k, u := range c.util {
		out = append(out, Point{Utilization: u, OpsPerSec: c.ops[k], PowerWatts: c.watts[k]})
	}
	return out
}

// NumLevels returns the number of points including active idle.
func (c *Curve) NumLevels() int { return len(c.util) + 1 }

// PeakPower returns the power at 100% utilization.
func (c *Curve) PeakPower() float64 { return c.watts[len(c.watts)-1] }

// IdlePower returns the active-idle power.
func (c *Curve) IdlePower() float64 { return c.idleWatts }

// levelEE returns level k's energy efficiency (Point.EE).
func (c *Curve) levelEE(k int) float64 {
	return Point{OpsPerSec: c.ops[k], PowerWatts: c.watts[k]}.EE()
}

// fullEE returns the energy efficiency at 100% utilization.
func (c *Curve) fullEE() float64 { return c.levelEE(len(c.util) - 1) }

// utilizations returns every point's utilization, active idle first.
func (c *Curve) utilizations() []float64 {
	return append(append(make([]float64, 0, c.NumLevels()), 0), c.util...)
}

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
	return c.AppendNormalizedPower(make([]float64, 0, c.NumLevels()))
}

// AppendNormalizedPower appends NormalizedPower's values to dst and
// returns the extended slice.
func (c *Curve) AppendNormalizedPower(dst []float64) []float64 {
	peak := c.PeakPower()
	dst = append(dst, c.idleWatts/peak)
	for _, w := range c.watts {
		dst = append(dst, w/peak)
	}
	return dst
}

// PowerAt returns the normalized power at utilization u in [0, 1],
// linearly interpolating between measured levels. Any other u,
// including NaN, is an error.
func (c *Curve) PowerAt(u float64) (float64, error) {
	if !(u >= 0 && u <= 1) {
		return 0, fmt.Errorf("core: utilization %v outside [0, 1]", u)
	}
	peak := c.PeakPower()
	lo, lastNorm := 0.0, c.idleWatts/peak
	for k, hi := range c.util {
		norm := c.watts[k] / peak
		if u <= hi {
			frac := (u - lo) / (hi - lo)
			return lastNorm + frac*(norm-lastNorm), nil
		}
		lo, lastNorm = hi, norm
	}
	return lastNorm, nil
}

// normalizedArea returns the trapezoid area under the normalized
// power-utilization curve over [0, 1].
func (c *Curve) normalizedArea() float64 {
	peak := c.PeakPower()
	var area float64
	lo, lastNorm := 0.0, c.idleWatts/peak
	for k, hi := range c.util {
		norm := c.watts[k] / peak
		area += (hi - lo) * (norm + lastNorm) / 2
		lo, lastNorm = hi, norm
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
	if len(c.util) != 10 {
		return c.EP()
	}
	watts := c.watts[:10]
	peak := watts[9]
	h := 0.1
	sum := c.idleWatts/peak + watts[9]/peak
	for i := 1; i < 10; i++ {
		norm := watts[i-1] / peak
		if i%2 == 1 {
			sum += 4 * norm
		} else {
			sum += 2 * norm
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
	return c.AppendProportionalityGap(make([]float64, 0, c.NumLevels()))
}

// AppendProportionalityGap appends ProportionalityGap's values to dst
// and returns the extended slice.
func (c *Curve) AppendProportionalityGap(dst []float64) []float64 {
	peak := c.PeakPower()
	dst = append(dst, c.idleWatts/peak) // the idle point's utilization is 0
	for k, u := range c.util {
		dst = append(dst, c.watts[k]/peak-u)
	}
	return dst
}

// EEValues returns the energy efficiency (ops/watt) at each measured
// point in curve order. Active idle has zero efficiency by definition.
func (c *Curve) EEValues() []float64 {
	out := make([]float64, c.NumLevels())
	for k := range c.util {
		out[k+1] = c.levelEE(k)
	}
	return out
}

// NormalizedEE returns each point's efficiency divided by the efficiency
// at 100% utilization — the y-axis of the paper's almond chart (Fig. 11).
// Every value is zero when full-load efficiency is not positive.
func (c *Curve) NormalizedEE() []float64 {
	return c.AppendNormalizedEE(make([]float64, 0, c.NumLevels()))
}

// AppendNormalizedEE appends NormalizedEE's values to dst and returns
// the extended slice.
func (c *Curve) AppendNormalizedEE(dst []float64) []float64 {
	full := c.fullEE()
	dst = append(dst, 0) // active idle
	for k := range c.util {
		if full <= 0 {
			dst = append(dst, 0)
		} else {
			dst = append(dst, c.levelEE(k)/full)
		}
	}
	return dst
}

// OverallEE returns the server's overall performance-to-power ratio —
// the SPECpower score: Σ ssj_ops across the ten load levels divided by
// Σ power across all eleven intervals including active idle.
func (c *Curve) OverallEE() float64 {
	var ops, watts float64
	watts += c.idleWatts
	for k := range c.util {
		ops += c.ops[k]
		watts += c.watts[k]
	}
	if watts <= 0 {
		return 0
	}
	return ops / watts
}

// peakEETolerance is the relative tolerance under which two levels'
// efficiencies count as tied for the peak (the dataset contains a 2011
// server whose 80% and 90% levels tie exactly).
const peakEETolerance = 1e-9

// peakEE returns the greatest energy efficiency across the measured
// levels.
func (c *Curve) peakEE() float64 {
	var value float64
	for k := range c.util {
		if ee := c.levelEE(k); ee > value {
			value = ee
		}
	}
	return value
}

// PeakEE returns the greatest energy efficiency across all measured
// levels and every utilization at which it occurs (ties included,
// ascending). Active idle never qualifies.
func (c *Curve) PeakEE() (value float64, utilizations []float64) {
	return c.AppendPeakEE(nil)
}

// AppendPeakEE is PeakEE appending the peak's utilizations to dst.
func (c *Curve) AppendPeakEE(dst []float64) (value float64, utilizations []float64) {
	value = c.peakEE()
	thresh := value * (1 - peakEETolerance)
	for k, u := range c.util {
		if c.levelEE(k) >= thresh {
			dst = append(dst, u)
		}
	}
	return value, dst
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
	full := c.fullEE()
	if full <= 0 {
		return 0
	}
	return c.peakEE() / full
}

// IdealIntersections returns the utilizations in the open interval
// (0, 1) at which the normalized power curve crosses the ideal
// proportionality line p = u, found by linear interpolation on each
// segment. Touching the line without crossing does not count. The
// shared endpoint at u = 1 (where every normalized curve meets the
// ideal line by construction) is excluded.
func (c *Curve) IdealIntersections() []float64 {
	gap := c.ProportionalityGap()
	us := c.utilizations()
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
	us := c.utilizations()
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
	out := c.Points()
	for i := range out {
		out[i].PowerWatts = math.Max(peakWatts*out[i].Utilization, 1e-9)
	}
	return out
}
