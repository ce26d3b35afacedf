package analysis

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/stats"
)

// GapRow is one year of the proportionality-gap analysis: the mean
// normalized-power excess over the ideal line at each utilization
// level. Wong & Annavaram observed that even as overall EP improves,
// the low-utilization region keeps a large gap; this extension
// quantifies that region over the corpus by hardware availability year.
type GapRow struct {
	Year int
	N    int
	// MeanGap[i] is the mean of p_norm(u_i) − u_i over the year's
	// servers, indexed by the standard grid (0 = active idle).
	MeanGap []float64
	// LowUtilGap averages the gap over the 10-40% levels — the region
	// the related work singles out.
	LowUtilGap float64
	// PeakRegionGap averages the gap over the 70-100% levels.
	PeakRegionGap float64
}

// ProportionalityGapByYear computes the per-level gap trend from each
// standard-grid row's Curve.ProportionalityGap.
func ProportionalityGapByYear(rp *dataset.Repository) ([]GapRow, error) {
	cs := rp.Columns()
	byYear, years := groupRowsByInt(cs.HWYearCol())
	curveOK := cs.CurveOKCol()
	grid := len(core.StandardUtilizations)
	gap := make([]float64, 0, grid)
	out := make([]GapRow, 0, len(years))
	for _, y := range years {
		row := GapRow{Year: y, MeanGap: make([]float64, grid)}
		for _, r := range byYear[y] {
			if !curveOK[r] {
				return nil, fmt.Errorf("analysis: gap: %w", cs.CurveErr(int(r)))
			}
			c := cs.Curve(int(r))
			if c.NumLevels() != grid {
				continue
			}
			gap = c.AppendProportionalityGap(gap[:0])
			for i, g := range gap {
				row.MeanGap[i] += g
			}
			row.N++
		}
		if row.N == 0 {
			continue
		}
		for i := range row.MeanGap {
			row.MeanGap[i] /= float64(row.N)
		}
		// Levels 1..4 are 10-40%; 7..10 are 70-100%.
		row.LowUtilGap = stats.Sum(row.MeanGap[1:5]) / 4
		row.PeakRegionGap = stats.Sum(row.MeanGap[7:11]) / 4
		out = append(out, row)
	}
	return out, nil
}

// GapSummary condenses the trend into the related work's headline: the
// low-utilization gap shrinks far more slowly than the peak-region gap.
type GapSummary struct {
	FirstYear, LastYear       int
	LowGapFirst, LowGapLast   float64
	PeakGapFirst, PeakGapLast float64
}

// SummarizeGap extracts the first/last-year comparison, skipping years
// with fewer than minCount servers (the sparse early years distort the
// endpoints otherwise).
func SummarizeGap(rows []GapRow, minCount int) (GapSummary, error) {
	var s GapSummary
	first := true
	for _, row := range rows {
		if row.N < minCount {
			continue
		}
		if first {
			s.FirstYear, s.LowGapFirst, s.PeakGapFirst = row.Year, row.LowUtilGap, row.PeakRegionGap
			first = false
		}
		s.LastYear, s.LowGapLast, s.PeakGapLast = row.Year, row.LowUtilGap, row.PeakRegionGap
	}
	if first {
		return GapSummary{}, tooFew("analysis: no year with ≥ %d servers", minCount)
	}
	return s, nil
}
