package analysis

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/dataset"
	"repro/internal/par"
	"repro/internal/stats"
)

// EraRate is the robust per-year improvement rate of a metric over one
// era, fitted per-server (not on year aggregates) with Theil-Sen so
// sparse outlier years cannot tilt it.
type EraRate struct {
	FromYear, ToYear int
	N                int
	// EPPerYear is the median EP improvement per hardware availability
	// year.
	EPPerYear float64
	// EEGrowthPerYear is the relative EE growth per year, from a
	// Theil-Sen fit on log EE (so it reads as a compound rate).
	EEGrowthPerYear float64
}

// ImprovementRates quantifies the stagnation question directly: the
// paper argues the 2013-2016 flattening of EP is specious; the robust
// per-era rates show how much slower proportionality improved after the
// Sandy Bridge era compared to 2007-2012 while efficiency kept
// compounding. Each era's fit is memoized on the corpus, so Fig. E4,
// the projections and the JSON summary share one fit per era.
func ImprovementRates(rp *dataset.Repository, eras [][2]int) ([]EraRate, error) {
	cs := rp.Columns()
	return par.MapErr(len(eras), func(i int) (EraRate, error) {
		era := eras[i]
		return memo(cs, fmt.Sprintf("analysis.eraRate.%d-%d", era[0], era[1]), func() (EraRate, error) {
			return eraRate(cs, era)
		})
	})
}

// eraRate fits one era's EP and log-EE Theil–Sen slopes, its servers in
// store order (which fixes the pairs the sampled estimator draws).
func eraRate(cs *dataset.ColumnStore, era [2]int) (EraRate, error) {
	hwYears := cs.HWYearCol()
	epCol, eeCol := cs.EPCol(), cs.OverallEECol()
	curveOK := cs.CurveOKCol()
	span := cs.HWYearGroups().Span(era[0], era[1])
	n := len(span)
	if n < 3 {
		return EraRate{}, tooFew("analysis: era %d-%d has only %d servers", era[0], era[1], n)
	}
	if first, last := hwYears[span[0]], hwYears[span[n-1]]; first == last {
		return EraRate{}, tooFew("analysis: era %d-%d servers all date from %d; a rate needs two years", era[0], era[1], first)
	}
	years := make([]float64, 0, n)
	eps := make([]float64, 0, n)
	logEEs := make([]float64, 0, n)
	for i, y := range hwYears {
		if int(y) < era[0] || int(y) > era[1] {
			continue
		}
		if !curveOK[i] {
			return EraRate{}, fmt.Errorf("analysis: era rates: %w", cs.CurveErr(i))
		}
		years = append(years, float64(y))
		eps = append(eps, epCol[i])
		logEEs = append(logEEs, math.Log(math.Max(eeCol[i], 1e-9)))
	}
	epFit, err := stats.TheilSen(years, eps)
	if err != nil {
		return EraRate{}, fmt.Errorf("analysis: era %d-%d EP fit: %w", era[0], era[1], err)
	}
	eeFit, err := stats.TheilSen(years, logEEs)
	if err != nil {
		return EraRate{}, fmt.Errorf("analysis: era %d-%d EE fit: %w", era[0], era[1], err)
	}
	return EraRate{
		FromYear:        era[0],
		ToYear:          era[1],
		N:               n,
		EPPerYear:       epFit.Slope,
		EEGrowthPerYear: math.Expm1(eeFit.Slope),
	}, nil
}

// Projection extrapolates the corpus trends past 2016 — the paper's
// title question turned forward: where will we be in year X? The EP
// path uses the robust post-2012 rate; the efficiency path compounds
// the fitted growth; the idle-power column inverts Eq. 2 to show what
// idle fraction that EP would demand.
type Projection struct {
	Year int
	// MeanEP extrapolates the post-dip (2013-2016) Theil-Sen rate from
	// the 2016 mean.
	MeanEP float64
	// EEFactorOver2016 compounds the post-dip efficiency growth.
	EEFactorOver2016 float64
	// ImpliedIdleFraction inverts the corpus Eq. 2 fit at MeanEP.
	ImpliedIdleFraction float64
}

// ProjectTrends extrapolates to the target year (> 2016).
func ProjectTrends(rp *dataset.Repository, targetYear int) (Projection, error) {
	if targetYear <= 2016 {
		return Projection{}, fmt.Errorf("analysis: projection target %d must be after 2016", targetYear)
	}
	// Project from the post-dip era (2013-2016): the paper argues the
	// 2013-14 dip is compositional, and the recovery is the signal. All
	// three inputs are memoized, so several target years share them.
	rates, err := ImprovementRates(rp, [][2]int{{2013, 2016}})
	if err != nil {
		return Projection{}, err
	}
	trend, err := YearlyTrend(rp)
	if err != nil {
		return Projection{}, err
	}
	at := slices.IndexFunc(trend, func(ys YearStats) bool { return ys.Year == 2016 })
	if at < 0 {
		return Projection{}, tooFew("analysis: no 2016 servers to project from")
	}
	reg, err := FitIdleRegression(rp)
	if err != nil {
		return Projection{}, err
	}
	years := float64(targetYear - 2016)
	ep := trend[at].EP.Mean + rates[0].EPPerYear*years
	// EP cannot exceed the Eq. 2 asymptote (idle → 0).
	if ep > reg.Fit.A {
		ep = reg.Fit.A
	}
	proj := Projection{
		Year:             targetYear,
		MeanEP:           ep,
		EEFactorOver2016: math.Pow(1+rates[0].EEGrowthPerYear, years),
	}
	if ep > 0 && reg.Fit.B != 0 {
		proj.ImpliedIdleFraction = math.Log(ep/reg.Fit.A) / reg.Fit.B
	}
	return proj, nil
}
