package trace

import (
	"fmt"
	"math"
)

// Hist2D is a demand trace folded into a weighted histogram: the trace
// compression layer of the composition optimizer. Steady-state fleet
// power depends on instantaneous demand only, so scoring a candidate
// fleet needs one power evaluation per occupied cell instead of one
// per step — ~70× fewer for a 1-minute week at 128 bins.
//
// With no rate sets the fold is the plain demand histogram, one cell
// per occupied demand bin. A time-varying tariff bills a demand×rate
// product whose covariance that fold cannot see, so rate sets split
// every demand bin by rate: cells are binned by the FIRST set (the
// objective's primary signal), and every set — e.g. other regions'
// scaled copies of the same shape — keeps its per-cell conditional
// mean, so trace-weighted carbon or cost is a double sum over cells.
//
// Each cell carries the MEAN demand of its steps (not the bin center),
// so the fold preserves total offered load exactly and the energy
// estimate is exact for any fleet whose power is linear across each
// cell's span; the residual error is bounded by the within-cell spans
// and shrinks as bins grow. Transitions and hysteresis are out of
// scope — the optimizer replays its top-k through fleetsim for those.
//
// Determinism contract: accumulation is a single pass in step order,
// and cells are emitted demand-ascending then rate-ascending. When
// every rate is bit-identical (a constant profile) each demand bin
// occupies exactly one cell, so BinOps/Weight are Float64bits-identical
// to the fold of the same trace with no rate sets.
type Hist2D struct {
	// StepSeconds is the sampling period of the folded trace.
	StepSeconds float64
	// Steps is the total number of trace steps (the sum of Weight).
	Steps int
	// Bins is the number of occupied demand bins; it equals Cells()
	// when no rate set was folded.
	Bins int
	// BinOps is the mean demand of each occupied cell.
	BinOps []float64
	// Weight is the step count of each occupied cell.
	Weight []float64
	// Rates[s][c] is rate set s's mean rate within cell c; empty when
	// no rate set was folded.
	Rates [][]float64
	// PeakOps and MinOps are the exact trace extremes — feasibility
	// checks (capacity ≥ peak) must not depend on bin resolution.
	PeakOps, MinOps float64
	// MeanOps is the exact trace mean.
	MeanOps float64
}

// Duration returns the folded trace length in seconds.
func (h *Hist2D) Duration() float64 {
	return h.StepSeconds * float64(h.Steps)
}

// Cells returns the number of occupied (demand, rate) cells.
func (h *Hist2D) Cells() int {
	return len(h.BinOps)
}

// Compress2D folds the trace into at most bins equi-width demand bins
// over [min, max] demand, each crossed with rateBins equi-width rate
// bins over the FIRST rate set's [min, max] rate. With no rate sets
// the fold is the plain demand histogram and rateBins, though still
// validated, plays no part. Every rate set must be exactly one rate
// per trace step (use IntensityProfile.Align) and finite and
// non-negative — violations are typed *RateError / *AlignError. Empty
// cells are dropped. The fold is a single deterministic pass;
// identical inputs produce identical histograms.
func (t *Trace) Compress2D(bins, rateBins int, rateSets ...[]float64) (*Hist2D, error) {
	if bins < 1 {
		return nil, fmt.Errorf("trace: invalid bin count %d", bins)
	}
	if rateBins < 1 {
		return nil, fmt.Errorf("trace: invalid rate bin count %d", rateBins)
	}
	if len(t.DemandOps) == 0 {
		return nil, fmt.Errorf("trace: empty trace")
	}
	if !validStep(t.StepSeconds) {
		return nil, fmt.Errorf("trace: invalid step %v s", t.StepSeconds)
	}
	steps := len(t.DemandOps)
	for s, rates := range rateSets {
		if len(rates) != steps {
			return nil, &AlignError{TraceStep: t.StepSeconds,
				Reason: fmt.Sprintf("rate set %d has %d rates for %d trace steps", s, len(rates), steps)}
		}
		for i, r := range rates {
			if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
				return nil, &RateError{Field: fmt.Sprintf("rateSets[%d]", s), Index: i, Value: r}
			}
		}
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, d := range t.DemandOps {
		if math.IsNaN(d) || math.IsInf(d, 0) {
			return nil, fmt.Errorf("trace: non-finite demand %v", d)
		}
		lo = math.Min(lo, d)
		hi = math.Max(hi, d)
	}
	width := (hi - lo) / float64(bins)
	var primary []float64
	var rlo, rwidth float64
	if len(rateSets) == 0 {
		rateBins = 1 // every step lands in rate bin 0
	} else {
		primary = rateSets[0]
		rlo = math.Inf(1)
		rhi := math.Inf(-1)
		for _, r := range primary {
			rlo = math.Min(rlo, r)
			rhi = math.Max(rhi, r)
		}
		rwidth = (rhi - rlo) / float64(rateBins)
	}

	// Dense (demand bin)*(rate bin) accumulators, demand-major so the
	// constant-profile case (every step in rate bin 0) touches exactly
	// the same cells in the same order as the fold with no rate sets.
	cells := bins * rateBins
	sum := make([]float64, cells)
	count := make([]float64, cells)
	rsum := make([][]float64, len(rateSets))
	for s := range rateSets {
		rsum[s] = make([]float64, cells)
	}
	var total float64
	for i, d := range t.DemandOps {
		b := 0
		if width > 0 {
			b = int((d - lo) / width)
			if b >= bins {
				b = bins - 1
			}
		}
		rb := 0
		if rwidth > 0 {
			rb = int((primary[i] - rlo) / rwidth)
			if rb >= rateBins {
				rb = rateBins - 1
			}
		}
		c := b*rateBins + rb
		sum[c] += d
		count[c]++
		for s := range rateSets {
			rsum[s][c] += rateSets[s][i]
		}
		total += d
	}
	h := &Hist2D{
		StepSeconds: t.StepSeconds,
		Steps:       steps,
		Rates:       make([][]float64, len(rateSets)),
		PeakOps:     hi,
		MinOps:      lo,
		MeanOps:     total / float64(steps),
	}
	lastBin := -1
	for c := 0; c < cells; c++ {
		if count[c] == 0 {
			continue
		}
		if b := c / rateBins; b != lastBin {
			h.Bins++
			lastBin = b
		}
		h.BinOps = append(h.BinOps, sum[c]/count[c])
		h.Weight = append(h.Weight, count[c])
		for s := range rateSets {
			h.Rates[s] = append(h.Rates[s], rsum[s][c]/count[c])
		}
	}
	return h, nil
}
