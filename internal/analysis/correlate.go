package analysis

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// firstCurveError returns the curve error of the first invalid result
// in repository order, or nil when every curve is valid — the same
// error a sequential curve-building loop would surface first. The valid
// path reads one precomputed flag; only a failure materializes a row.
func firstCurveError(rp *dataset.Repository) error {
	cs := rp.Columns()
	if cs.AllCurvesOK() {
		return nil
	}
	for i, ok := range cs.CurveOKCol() {
		if !ok {
			return cs.CurveErr(i)
		}
	}
	return nil
}

// Correlations quantifies the metric relationships the paper reports
// (§I, §III.D, §IV) across the repository.
type Correlations struct {
	// EPvsOverallEE is the paper's headline 0.741.
	EPvsOverallEE float64
	// EPvsIdleFraction is the paper's −0.92.
	EPvsIdleFraction float64
	// EPvsDynamicRange mirrors the idle correlation with opposite sign.
	EPvsDynamicRange float64
	// EPvsPeakOffset relates proportionality to how far below 100% the
	// peak-efficiency spot sits (§IV.A: more proportional servers peak
	// earlier).
	EPvsPeakOffset float64
	// EPvsPeakOverFull relates proportionality to the ratio of peak
	// efficiency over full-load efficiency.
	EPvsPeakOverFull float64
	N                int
}

// ComputeCorrelations evaluates all pairwise correlations. The metric
// vectors come from the repository's precomputed columns; no curves are
// rebuilt on the warm path. Fewer than two servers, or a metric with no
// variance (which leaves a coefficient undefined), is an error matching
// ErrTooFewServers.
func ComputeCorrelations(rp *dataset.Repository) (Correlations, error) {
	if err := firstCurveError(rp); err != nil {
		return Correlations{}, fmt.Errorf("analysis: correlations: %w", err)
	}
	if rp.Len() < 2 {
		return Correlations{}, tooFew("analysis: correlations need at least 2 servers, have %d", rp.Len())
	}
	eps := rp.EPs()
	ees := rp.OverallEEs()
	idles := rp.IdleFractions()
	drs := rp.DynamicRanges()
	ratios := rp.PeakOverFullRatios()
	offsets := rp.PeakEEUtilizations()
	for i, u := range offsets {
		offsets[i] = 1 - u // PeakEEOffset = 1 − peak-efficiency utilization
	}
	out := Correlations{N: rp.Len()}
	var err error
	if out.EPvsOverallEE, err = stats.Pearson(eps, ees); err != nil {
		return Correlations{}, err
	}
	if out.EPvsIdleFraction, err = stats.Pearson(eps, idles); err != nil {
		return Correlations{}, err
	}
	if out.EPvsDynamicRange, err = stats.Pearson(eps, drs); err != nil {
		return Correlations{}, err
	}
	if out.EPvsPeakOffset, err = stats.Pearson(eps, offsets); err != nil {
		return Correlations{}, err
	}
	if out.EPvsPeakOverFull, err = stats.Pearson(eps, ratios); err != nil {
		return Correlations{}, err
	}
	for _, r := range []float64{out.EPvsOverallEE, out.EPvsIdleFraction, out.EPvsDynamicRange, out.EPvsPeakOffset, out.EPvsPeakOverFull} {
		if math.IsNaN(r) {
			return Correlations{}, tooFew("analysis: correlations undefined over %d servers: a metric has no variance", out.N)
		}
	}
	return out, nil
}

// IdleRegression fits the paper's Eq. 2, EP = A·e^(B·idle), over the
// repository and reports the fit together with the correlation.
type IdleRegression struct {
	Fit         stats.ExpFit
	Correlation float64
	// MaxTheoreticalEP is A — the EP the fit predicts at zero idle
	// power (the paper reads 1.297 off its fit).
	MaxTheoreticalEP float64
	// EPAtFivePercentIdle evaluates the fit at idle = 5% (the paper's
	// 1.17 illustration).
	EPAtFivePercentIdle float64
}

// FitIdleRegression computes Eq. 2 over the repository.
func FitIdleRegression(rp *dataset.Repository) (IdleRegression, error) {
	if err := firstCurveError(rp); err != nil {
		return IdleRegression{}, fmt.Errorf("analysis: idle regression: %w", err)
	}
	eps := rp.EPs()
	idles := rp.IdleFractions()
	fit, err := stats.ExponentialRegression(idles, eps)
	if err != nil {
		return IdleRegression{}, fmt.Errorf("analysis: idle regression: %w", err)
	}
	corr, err := stats.Pearson(eps, idles)
	if err != nil {
		return IdleRegression{}, err
	}
	return IdleRegression{
		Fit:                 fit,
		Correlation:         corr,
		MaxTheoreticalEP:    fit.A,
		EPAtFivePercentIdle: fit.Predict(0.05),
	}, nil
}

// AsyncStats quantifies §IV.B: the top decile by EP and by EE draw from
// different years and barely overlap.
type AsyncStats struct {
	// TopN is the decile size.
	TopN int
	// Share2012 is 2012's share of the whole corpus (the paper's 27.4%).
	Share2012 float64
	// TopEPFrom2012 is the fraction of the top-EP decile made in 2012
	// (the paper's 91.7%).
	TopEPFrom2012 float64
	// TopEEFrom2012 is the fraction of the top-EE decile made in 2012
	// (the paper's 16.7%).
	TopEEFrom2012 float64
	// Servers20152016InTopEE and Servers20152016 report how many of the
	// 2015/2016 servers sit in the top-EE decile (the paper: all).
	Servers20152016InTopEE int
	Servers20152016        int
	// Overlap is the fraction of the top-EP decile that is also in the
	// top-EE decile (the paper's 14.6%).
	Overlap float64
}

// Asynchronization computes the §IV.B top-decile statistics. The
// deciles are the rows a stable ascending argsort of each metric
// column ends with, found by selection rather than a full sort, so no
// result views are built.
func Asynchronization(rp *dataset.Repository) AsyncStats {
	cs := rp.Columns()
	n := cs.Len()
	topN := n / 10
	out := AsyncStats{TopN: topN}
	if topN == 0 {
		return out
	}
	hwYears := cs.HWYearCol()
	in2012, late2015 := 0, 0
	for _, y := range hwYears {
		if y == 2012 {
			in2012++
		}
		if y >= 2015 && y <= 2016 {
			late2015++
		}
	}
	out.Share2012 = float64(in2012) / float64(n)

	ids := cs.IDCol()
	topEPSet := make(map[string]bool, topN)
	ep2012 := 0
	for _, r := range topRows(cs.EPCol(), topN) {
		topEPSet[ids[r]] = true
		if hwYears[r] == 2012 {
			ep2012++
		}
	}
	out.TopEPFrom2012 = float64(ep2012) / float64(topN)

	ee2012, late, overlap := 0, 0, 0
	for _, r := range topRows(cs.OverallEECol(), topN) {
		if hwYears[r] == 2012 {
			ee2012++
		}
		if hwYears[r] >= 2015 {
			late++
		}
		if topEPSet[ids[r]] {
			overlap++
		}
	}
	out.TopEEFrom2012 = float64(ee2012) / float64(topN)
	out.Servers20152016InTopEE = late
	out.Servers20152016 = late2015
	out.Overlap = float64(overlap) / float64(topN)
	return out
}

// topRows returns the rows of the topN largest keys, 0 < topN ≤
// len(keys): the set dataset.ArgsortStable(keys) ends with, in no
// particular order. Ties at the threshold go to the higher rows, as the
// stable sort leaves them last. Keys with a NaN, which the sort orders
// by its comparator's quirks, take the sort.
func topRows(keys []float64, topN int) []int32 {
	n := len(keys)
	for _, k := range keys {
		if k != k {
			return dataset.ArgsortStable(keys)[n-topN:]
		}
	}
	sel := slices.Clone(keys)
	stats.SelectNth(sel, n-topN)
	t := sel[n-topN]
	ties := topN
	for _, k := range keys {
		if k > t {
			ties--
		}
	}
	out := make([]int32, 0, topN)
	for i := n - 1; i >= 0; i-- {
		if k := keys[i]; k > t || k == t && ties > 0 {
			if k == t {
				ties--
			}
			out = append(out, int32(i))
		}
	}
	return out
}

// ReorgDelta is one year's §I comparison: the percentage differences of
// EP and EE statistics when servers are grouped by hardware
// availability year versus published year. The paper reports the
// corpus-wide ranges (avg EP −6.2%..8.7%, median EP −8.6%..13.1%, avg
// EE −2.2%..16.6%, median EE −5.0%..20.8%).
type ReorgDelta struct {
	Year          int
	AvgEPDeltaPct float64
	MedEPDeltaPct float64
	AvgEEDeltaPct float64
	MedEEDeltaPct float64
	NHWYear, NPub int
}

// YearReorgDeltas compares hardware-availability-year statistics
// against published-year statistics for every year present in both
// groupings.
func YearReorgDeltas(rp *dataset.Repository) ([]ReorgDelta, error) {
	hw, err := YearlyTrend(rp)
	if err != nil {
		return nil, err
	}
	pub, err := YearlyTrendByPublished(rp)
	if err != nil {
		return nil, err
	}
	pubByYear := make(map[int]YearStats, len(pub))
	for _, p := range pub {
		pubByYear[p.Year] = p
	}
	var out []ReorgDelta
	for _, h := range hw {
		p, ok := pubByYear[h.Year]
		if !ok {
			continue
		}
		out = append(out, ReorgDelta{
			Year:          h.Year,
			AvgEPDeltaPct: 100 * (h.EP.Mean/p.EP.Mean - 1),
			MedEPDeltaPct: 100 * (h.EP.Median/p.EP.Median - 1),
			AvgEEDeltaPct: 100 * (h.EE.Mean/p.EE.Mean - 1),
			MedEEDeltaPct: 100 * (h.EE.Median/p.EE.Median - 1),
			NHWYear:       h.N,
			NPub:          p.N,
		})
	}
	return out, nil
}
