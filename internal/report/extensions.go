package report

import (
	"fmt"
	"math"
	"strings"
	"text/tabwriter"

	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/placement"
	"repro/internal/power"
	"repro/internal/stats"
)

// The E-series figures extend the paper: E1 quantifies the
// low-utilization proportionality gap the related work highlights; E2
// reports cluster-wide proportionality under load-distribution
// policies; E3 is the EP-quadrature ablation.

// FigE1GapTrend renders the per-year proportionality-gap analysis.
func FigE1GapTrend(rp *dataset.Repository) (string, error) {
	rows, err := analysis.ProportionalityGapByYear(rp)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Fig.E1 (extension) Proportionality gap by utilization region and year\n")
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "year\tn\tidle gap\tlow-util gap (10-40%)\tpeak-region gap (70-100%)")
	for _, row := range rows {
		fmt.Fprintf(tw, "%d\t%d\t%.3f\t%.3f\t%.3f\n",
			row.Year, row.N, row.MeanGap[0], row.LowUtilGap, row.PeakRegionGap)
	}
	tw.Flush()
	sum, err := analysis.SummarizeGap(rows, 30)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "low-utilization gap %.3f (%d) → %.3f (%d); peak-region gap %.3f → %.3f\n",
		sum.LowGapFirst, sum.FirstYear, sum.LowGapLast, sum.LastYear,
		sum.PeakGapFirst, sum.PeakGapLast)
	b.WriteString("even as overall EP improves, servers stay least proportional at low utilization.\n")
	return b.String(), nil
}

// FigE2ClusterPolicies renders cluster-wide EP of a fleet under every
// load-distribution policy.
func FigE2ClusterPolicies(fleet []*placement.Profile) (string, error) {
	cmp, err := cluster.Compare(fleet)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.E2 (extension) Cluster-wide EP of a %d-server fleet by policy\n", cmp.Members)
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "policy\tcluster EP\tidle fraction\thalf-load draw (W)")
	for _, row := range cmp.Rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.0f\n",
			row.Policy, row.EP, row.IdleFraction, row.HalfLoadWatts)
	}
	tw.Flush()
	return b.String(), nil
}

// FigE3QuadratureAblation renders the EP-quadrature ablation: trapezoid
// (Eq. 1 as published) versus composite Simpson over the corpus.
func FigE3QuadratureAblation(rp *dataset.Repository) (string, error) {
	cs := rp.Columns()
	epCol := cs.EPCol()
	curveOK := cs.CurveOKCol()
	ids := cs.IDCol()
	diffs := make([]float64, 0, cs.Len())
	maxDiff := 0.0
	var maxID string
	// Simpson − trapezoid per server; the EP column holds the trapezoid
	// value. Off the standard grid Simpson falls back to the trapezoid
	// value, so the difference is zero there.
	for i := 0; i < cs.Len(); i++ {
		if !curveOK[i] {
			return "", cs.CurveErr(i)
		}
		d := 0.0
		if c := cs.Curve(i); c.NumLevels() == len(core.StandardUtilizations) {
			d = c.EPSimpson() - epCol[i]
		}
		diffs = append(diffs, d)
		if abs := math.Abs(d); abs > maxDiff {
			maxDiff, maxID = abs, ids[i]
		}
	}
	sum, err := stats.Describe(diffs)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Fig.E3 (extension) EP quadrature ablation: Simpson − trapezoid over the corpus\n")
	fmt.Fprintf(&b, "n=%d  mean %+.5f  median %+.5f  sd %.5f  extreme %+.5f (%s)\n",
		sum.N, sum.Mean, sum.Median, sum.StdDev, maxDiff, maxID)
	b.WriteString("Eq.1's trapezoid rule is adequate: the quadrature choice moves EP by under a hundredth.\n")
	return b.String(), nil
}

// FigE4ImprovementRates renders the robust per-era improvement rates —
// the quantitative answer to "is energy proportionality improvement
// stagnated?" (§III.B).
func FigE4ImprovementRates(rp *dataset.Repository) (string, error) {
	rates, err := analysis.ImprovementRates(rp, [][2]int{{2007, 2012}, {2012, 2016}})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Fig.E4 (extension) Robust per-era improvement rates (Theil-Sen over servers)\n")
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "era\tn\tEP / year\tEE growth / year")
	for _, r := range rates {
		fmt.Fprintf(tw, "%d-%d\t%d\t%+.4f\t%+.1f%%\n",
			r.FromYear, r.ToYear, r.N, r.EPPerYear, 100*r.EEGrowthPerYear)
	}
	tw.Flush()
	b.WriteString("proportionality gains slowed sharply after the Sandy Bridge era while efficiency kept compounding —\n")
	b.WriteString("the asynchronous evolution of §IV.B, measured as rates.\n")
	return b.String(), nil
}

// FigE5PowerBreakdown renders the per-component wall-power attribution
// of the Table II servers at idle, half, and full load.
func FigE5PowerBreakdown() string {
	var b strings.Builder
	b.WriteString("Fig.E5 (extension) Component power breakdown of the Table II servers (W at nominal frequency)\n")
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "server\tload\tCPU\tMemory\tStorage\tPlatform\tFans\tPSU loss\ttotal")
	for _, srv := range power.TableIIServers() {
		for _, busy := range []float64{0, 0.5, 1} {
			bd := srv.PowerBreakdown(busy, srv.CPU.NominalGHz)
			fmt.Fprintf(tw, "%s\t%.0f%%\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\n",
				srv.Name, 100*busy,
				bd.Watts[power.ComponentCPU], bd.Watts[power.ComponentMemory],
				bd.Watts[power.ComponentStorage], bd.Watts[power.ComponentPlatform],
				bd.Watts[power.ComponentFans], bd.Watts[power.ComponentPSULoss],
				bd.TotalWatts)
		}
	}
	tw.Flush()
	b.WriteString("fixed platform/memory/PSU floors are what keep idle power — and with it EP — bounded.\n")
	return b.String()
}

// FigE6Projection renders the forward extrapolation: the title question
// asked about 2020 instead of 2016.
func FigE6Projection(rp *dataset.Repository) (string, error) {
	var b strings.Builder
	b.WriteString("Fig.E6 (extension) Where will we be in 2020? (trend extrapolation)\n")
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "year\tprojected mean EP\tEE factor vs 2016\timplied idle power")
	for _, year := range []int{2018, 2020, 2022} {
		proj, err := analysis.ProjectTrends(rp, year)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(tw, "%d\t%.3f\t×%.2f\t%.1f%%\n",
			proj.Year, proj.MeanEP, proj.EEFactorOver2016, 100*proj.ImpliedIdleFraction)
	}
	tw.Flush()
	b.WriteString("extrapolated from the post-2012 Theil-Sen rates and the corpus Eq.2 fit;\n")
	b.WriteString("EP saturates at the Eq.2 asymptote unless idle power keeps falling.\n")
	return b.String(), nil
}

// FigE7KnightShift renders the server-level heterogeneity experiment
// from the paper's related work (refs [17]/[40]): pair each of three
// corpus servers of different eras with a low-power companion sized at
// 15% capacity / 10% peak power, and report the proportionality lift.
func FigE7KnightShift(rp *dataset.Repository) (string, error) {
	var b strings.Builder
	b.WriteString("Fig.E7 (extension) KnightShift heterogeneity: EP with a low-power companion\n")
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "primary (year)\tprimary EP\t+knight (idle primary)\t+knight (primary off)")
	cs := rp.Columns()
	hwYears := cs.HWYearCol()
	for _, year := range []int{2009, 2012, 2016} {
		// Only the first server of the year is plotted; scan the year
		// column and materialize just that row.
		first := -1
		for i, y := range hwYears {
			if int(y) == year {
				first = i
				break
			}
		}
		if first < 0 {
			continue
		}
		r := cs.Result(first)
		primary, err := placement.NewProfile(r.ID, r.MustCurve())
		if err != nil {
			return "", err
		}
		knight, err := knightFor(primary)
		if err != nil {
			return "", err
		}
		warm, err := cluster.KnightShift(primary, knight, false)
		if err != nil {
			return "", err
		}
		off, err := cluster.KnightShift(primary, knight, true)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(tw, "%s (%d)\t%.3f\t%.3f\t%.3f\n",
			r.ID, year, primary.EP, warm.EP(), off.EP())
	}
	tw.Flush()
	b.WriteString("a 15%-capacity companion at 10% of peak power lifts low-load proportionality most\n")
	b.WriteString("where the primary is least proportional — the related work's EP-wall result.\n")
	return b.String(), nil
}

// knightFor builds the low-power companion: 15% of the primary's
// capacity at 10% of its peak power, with a 20% idle fraction.
func knightFor(primary *placement.Profile) (*placement.Profile, error) {
	peakW := 0.10 * primary.PowerAt(1)
	maxOps := 0.15 * primary.MaxOps
	watts := make([]float64, 10)
	ops := make([]float64, 10)
	for i := 0; i < 10; i++ {
		u := float64(i+1) / 10
		watts[i] = peakW * (0.2 + 0.8*u)
		ops[i] = maxOps * u
	}
	c, err := core.NewStandardCurve(0.2*peakW, watts, ops)
	if err != nil {
		return nil, err
	}
	return placement.NewProfile("knight", c)
}
