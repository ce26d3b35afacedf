// Package report regenerates each of the paper's figures and tables from
// the series and rows the paper plots. One ordered table (sections.go)
// lists every section of the evaluation; each entry renders a chart,
// drawn as terminal text or SVG, and a data table. The text report
// (Full), the HTML report (FullHTML), the per-figure renders served over
// HTTP (Figure, FigureSVG) and specanalyze's selection (Figures) all read
// that table.
package report

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/analysis"
	"repro/internal/bench"
	"repro/internal/chart"
	"repro/internal/core"
	"repro/internal/dataset"
)

// ---- Fig. 1 ----

// fig1Chart plots one server's energy proportionality curve against
// the ideal proportional line (paper Fig. 1).
func fig1Chart(r *dataset.Result, c *core.Curve) *chart.LineChart {
	norm := c.NormalizedPower()
	utils := core.StandardUtilizations
	ideal := make([]float64, len(utils))
	copy(ideal, utils)
	return &chart.LineChart{
		Title:  fmt.Sprintf("Fig.1 Energy proportionality curve — %s (EP=%.2f, score %.0f)", r.ID, c.EP(), c.OverallEE()),
		XLabel: "utilization",
		YLabel: "power (normalized to 100% load)",
		Series: []chart.Series{
			{Name: "server", X: utils, Y: norm, Marker: '*'},
			{Name: "ideal", X: utils, Y: ideal, Marker: '.'},
		},
	}
}

// ---- Fig. 2 ----

// fig2Chart scatters per-server EP and EE against hardware availability
// year (paper Fig. 2).
func fig2Chart(rp *dataset.Repository) (*chart.LineChart, error) {
	cs := rp.Columns()
	hwYears := cs.HWYearCol()
	epCol, eeCol := cs.EPCol(), cs.OverallEECol()
	curveOK := cs.CurveOKCol()
	years := make([]float64, 0, cs.Len())
	eps := make([]float64, 0, cs.Len())
	ees := make([]float64, 0, cs.Len())
	var maxEE float64
	for i := 0; i < cs.Len(); i++ {
		if !curveOK[i] {
			return nil, cs.CurveErr(i)
		}
		years = append(years, float64(hwYears[i]))
		eps = append(eps, epCol[i])
		ee := eeCol[i]
		ees = append(ees, ee)
		if ee > maxEE {
			maxEE = ee
		}
	}
	// Second axis: EE normalized into the EP scale for a shared plot.
	scaled := make([]float64, len(ees))
	for i, e := range ees {
		scaled[i] = e / maxEE * 1.2
	}
	return &chart.LineChart{
		Title:  fmt.Sprintf("Fig.2 EP and EE evolution (n=%d; EE scaled by %.0f = 1.2)", rp.Len(), maxEE),
		XLabel: "hardware availability year",
		YLabel: "EP / scaled EE",
		Series: []chart.Series{
			{Name: "EP", X: years, Y: eps, Marker: '*', PointsOnly: true},
			{Name: "EE (scaled)", X: years, Y: scaled, Marker: 'o', PointsOnly: true},
		},
	}, nil
}

// ---- Fig. 3 / Fig. 4 ----

// trendTable renders the stats columns the paper's Fig. 3/4 report.
func trendTable(trend []analysis.YearStats, metric func(analysis.YearStats) [4]float64, header string) string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "year\tn\t%s\n", header)
	for _, ys := range trend {
		v := metric(ys)
		fmt.Fprintf(tw, "%d\t%d\t%.4g\t%.4g\t%.4g\t%.4g\n", ys.Year, ys.N, v[0], v[1], v[2], v[3])
	}
	tw.Flush()
	return b.String()
}

func epMetric(ys analysis.YearStats) [4]float64 {
	return [4]float64{ys.EP.Max, ys.EP.Median, ys.EP.Mean, ys.EP.Min}
}

func eeMetric(ys analysis.YearStats) [4]float64 {
	return [4]float64{ys.EE.Max, ys.EE.Median, ys.EE.Mean, ys.EE.Min}
}

// fig3Chart plots the per-year EP statistics (paper Fig. 3).
func fig3Chart(trend []analysis.YearStats) *chart.LineChart {
	return &chart.LineChart{
		Title:  "Fig.3 Stats trend of EP (max/median/average/min by hw availability year)",
		XLabel: "year",
		YLabel: "EP",
		Series: trendSeries(trend, epMetric),
	}
}

// fig4Chart plots the per-year overall-EE and peak-EE statistics (paper
// Fig. 4).
func fig4Chart(trend []analysis.YearStats) *chart.LineChart {
	series := trendSeries(trend, eeMetric)
	peak := trendSeries(trend, func(ys analysis.YearStats) [4]float64 {
		return [4]float64{ys.PeakEE.Max, ys.PeakEE.Median, ys.PeakEE.Mean, ys.PeakEE.Min}
	})
	peak[0].Name, peak[1].Name, peak[2].Name, peak[3].Name =
		"max peak EE", "med peak EE", "avg peak EE", "min peak EE"
	return &chart.LineChart{
		Title:  "Fig.4 Stats trend of energy efficiency by hw availability year",
		XLabel: "year",
		YLabel: "ssj_ops/watt",
		Series: append(series, peak...),
	}
}

func trendSeries(trend []analysis.YearStats, metric func(analysis.YearStats) [4]float64) []chart.Series {
	names := []string{"max", "median", "average", "min"}
	out := make([]chart.Series, 4)
	for i := range out {
		out[i] = chart.Series{Name: names[i]}
	}
	for _, ys := range trend {
		v := metric(ys)
		for i := 0; i < 4; i++ {
			out[i].X = append(out[i].X, float64(ys.Year))
			out[i].Y = append(out[i].Y, v[i])
		}
	}
	return out
}

// ---- Fig. 5 ----

// fig5Chart plots the EP cumulative distribution (paper Fig. 5) and
// returns the headline bucket shares.
func fig5Chart(rp *dataset.Repository) (*chart.LineChart, string, error) {
	cdf, _, err := analysis.EPDistribution(rp)
	if err != nil {
		return nil, "", err
	}
	xs, ps := cdf.Points()
	lc := &chart.LineChart{
		Title:  "Fig.5 CDF of energy proportionality",
		XLabel: "EP",
		YLabel: "CDF",
		Series: []chart.Series{{Name: "CDF", X: xs, Y: ps, Marker: '*'}},
	}
	summary := fmt.Sprintf(
		"EP in [0.6,0.7): %.2f%%   EP in [0.8,0.9): %.2f%%   EP < 1.0: %.2f%%\n",
		100*cdf.Between(0.6, 0.7), 100*cdf.Between(0.8, 0.9), 100*cdf.At(0.9999999))
	return lc, summary, nil
}

// ---- Fig. 6 / Fig. 7 / Fig. 8 ----

// fig6Bars counts servers per microarchitecture family (paper Fig. 6).
func fig6Bars(rp *dataset.Repository) *chart.BarChart {
	fams := analysis.ByFamily(rp)
	bars := make([]chart.Bar, 0, len(fams))
	for _, f := range fams {
		bars = append(bars, chart.Bar{
			Label:      f.Family.String(),
			Value:      float64(f.Count),
			Annotation: fmt.Sprintf("mean EP %.2f", f.MeanEP),
		})
	}
	return &chart.BarChart{Title: "Fig.6 CPU by microarchitecture (server count)", Bars: bars}
}

// fig7Bars shows the mean EP per processor codename (paper Fig. 7).
func fig7Bars(rp *dataset.Repository) *chart.BarChart {
	codes := analysis.ByCodename(rp)
	bars := make([]chart.Bar, 0, len(codes))
	for _, c := range codes {
		bars = append(bars, chart.Bar{
			Label:      c.Codename.String(),
			Value:      c.MeanEP,
			Annotation: fmt.Sprintf("n=%d median %.2f", c.Count, c.MedianEP),
		})
	}
	return &chart.BarChart{Title: "Fig.7 Mean EP by microarchitecture codename", Bars: bars}
}

// fig8Stack shows the 2012-2016 microarchitecture mix (paper Fig. 8).
func fig8Stack(rp *dataset.Repository) *chart.StackedChart {
	rows := analysis.MarchMix(rp, 2012, 2016)
	catSet := make(map[string]bool)
	for _, row := range rows {
		for fam := range row.Counts {
			catSet[fam.String()] = true
		}
	}
	cats := make([]string, 0, len(catSet))
	for c := range catSet {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	srows := make([]chart.StackedRow, 0, len(rows))
	for _, row := range rows {
		shares := make(map[string]float64, len(row.Counts))
		for fam, n := range row.Counts {
			shares[fam.String()] = float64(n)
		}
		srows = append(srows, chart.StackedRow{
			Label:  fmt.Sprintf("%d (n=%d)", row.Year, row.Total),
			Shares: shares,
		})
	}
	return &chart.StackedChart{
		Title:      "Fig.8 Servers by microarchitecture, 2012-2016",
		Categories: cats,
		Rows:       srows,
	}
}

// ---- Fig. 9 / Fig. 11 ----

// fig9Chart is the pencil-head chart: the envelope of all normalized
// power curves (paper Fig. 9).
func fig9Chart(rp *dataset.Repository) *chart.LineChart {
	env := analysis.PowerEnvelope(rp)
	return &chart.LineChart{
		Title:  fmt.Sprintf("Fig.9 Pencil-head chart of EP (%d curves, envelope shown)", env.N),
		XLabel: "utilization",
		YLabel: "normalized power",
		Series: []chart.Series{
			{Name: fmt.Sprintf("upper envelope (EP=%.2f)", env.UpperEP), X: env.Utilizations, Y: env.Upper, Marker: '#'},
			{Name: fmt.Sprintf("lower envelope (EP=%.2f)", env.LowerEP), X: env.Utilizations, Y: env.Lower, Marker: '*'},
			{Name: "ideal", X: env.Utilizations, Y: env.Utilizations, Marker: '.'},
		},
	}
}

// fig11Chart is the almond chart: the envelope of all normalized
// efficiency curves (paper Fig. 11).
func fig11Chart(rp *dataset.Repository) *chart.LineChart {
	env := analysis.EEEnvelope(rp)
	return &chart.LineChart{
		Title:  fmt.Sprintf("Fig.11 Almond chart of EE (%d curves, envelope shown)", env.N),
		XLabel: "utilization",
		YLabel: "EE normalized to 100% load",
		Series: []chart.Series{
			{Name: fmt.Sprintf("upper envelope (EP=%.2f)", env.LowerEP), X: env.Utilizations, Y: env.Upper, Marker: '*'},
			{Name: fmt.Sprintf("lower envelope (EP=%.2f)", env.UpperEP), X: env.Utilizations, Y: env.Lower, Marker: '#'},
		},
	}
}

// ---- Fig. 10 / Fig. 12 ----

// fig10Chart plots the eleven representative EP curves (paper Fig. 10);
// fig10Table reports where each crosses the ideal line.
func fig10Chart(reps []analysis.Representative) *chart.LineChart {
	series := make([]chart.Series, 0, len(reps)+1)
	utils := core.StandardUtilizations
	for _, rep := range reps {
		c := rep.Result.MustCurve()
		series = append(series, chart.Series{Name: rep.Label, X: utils, Y: c.NormalizedPower()})
	}
	series = append(series, chart.Series{Name: "ideal", X: utils, Y: utils, Marker: '.'})
	return &chart.LineChart{
		Title:  "Fig.10 Selected energy proportionality curves",
		XLabel: "utilization",
		YLabel: "normalized power",
		Series: series,
	}
}

func fig10Table(reps []analysis.Representative) string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "server\tEP\tidle%\tideal-curve intersections")
	for _, rep := range reps {
		c := rep.Result.MustCurve()
		xs := c.IdealIntersections()
		cross := "none before 100%"
		if len(xs) > 0 {
			parts := make([]string, len(xs))
			for i, x := range xs {
				parts[i] = fmt.Sprintf("%.0f%%", 100*x)
			}
			cross = strings.Join(parts, ", ")
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%.1f%%\t%s\n", rep.Label, rep.EP, 100*c.IdleFraction(), cross)
	}
	tw.Flush()
	return b.String()
}

// fig12Chart plots the representative efficiency curves (paper Fig. 12);
// fig12Table reports each server's high-efficiency zone.
func fig12Chart(reps []analysis.Representative) *chart.LineChart {
	series := make([]chart.Series, 0, len(reps))
	utils := core.StandardUtilizations
	for _, rep := range reps {
		c := rep.Result.MustCurve()
		series = append(series, chart.Series{Name: rep.Label, X: utils, Y: c.NormalizedEE()})
	}
	return &chart.LineChart{
		Title:  "Fig.12 Selected energy efficiency curves (normalized to 100% load)",
		XLabel: "utilization",
		YLabel: "normalized EE",
		Series: series,
	}
}

func fig12Table(reps []analysis.Representative) string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "server\tEP\tpeak EE spot\thigh-efficiency zone (EE ≥ 1.0x)")
	for _, rep := range reps {
		c := rep.Result.MustCurve()
		zone := "none below 100%"
		if region, ok := c.WidestHighEfficiencyRegion(1.0); ok && region.Width() > 0 {
			zone = fmt.Sprintf("%.0f%%-%.0f%%", 100*region.Lo, 100*region.Hi)
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%.0f%%\t%s\n", rep.Label, rep.EP, 100*c.PeakEEUtilization(), zone)
	}
	tw.Flush()
	return b.String()
}

// ---- Fig. 13 / Fig. 14 / Fig. 15 ----

// Fig13Nodes renders EP/EE versus node count (paper Fig. 13).
func Fig13Nodes(rp *dataset.Repository) string {
	return groupChart(analysis.ByNodes(rp, 3), "Fig.13 EP and EE improve with server nodes", "nodes")
}

// Fig14Chips renders EP/EE of single-node servers by chip count (paper
// Fig. 14).
func Fig14Chips(rp *dataset.Repository) string {
	return groupChart(analysis.ByChips(rp, 3), "Fig.14 EP and EE of single-node servers by chips", "chips")
}

func groupChart(groups []analysis.GroupStats, title, key string) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\tn\tavg EP\tmed EP\tavg EE\tmed EE\n", key)
	for _, g := range groups {
		fmt.Fprintf(tw, "%d\t%d\t%.3f\t%.3f\t%.0f\t%.0f\n",
			g.Key, g.N, g.MeanEP, g.MedianEP, g.MeanEE, g.MedianEE)
	}
	tw.Flush()
	return b.String()
}

// Fig15TwoChip renders the 2-chip versus all-server comparison (paper
// Fig. 15).
func Fig15TwoChip(rp *dataset.Repository) string {
	cmp := analysis.TwoChipVsAll(rp)
	var b strings.Builder
	b.WriteString("Fig.15 Single-node 2-chip servers vs all servers (same hw year)\n")
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "year\tn(2chip)\tEP 2chip\tEP all\tEE 2chip\tEE all")
	for _, y := range cmp.Years {
		fmt.Fprintf(tw, "%d\t%d\t%.3f\t%.3f\t%.0f\t%.0f\n",
			y.Year, y.TwoChipN, y.TwoChipMeanEP, y.AllMeanEP, y.TwoChipMeanEE, y.AllMeanEE)
	}
	tw.Flush()
	fmt.Fprintf(&b, "aggregate advantage: mean EP %+.2f%%, mean EE %+.2f%%, median EP %+.2f%%, median EE %+.2f%%\n",
		cmp.MeanEPAdvantagePct, cmp.MeanEEAdvantagePct, cmp.MedianEPAdvantagePct, cmp.MedianEEAdvantagePct)
	return b.String()
}

// ---- Fig. 16 ----

// fig16Stack shows the chronological shift of the peak-efficiency
// utilization spot (paper Fig. 16).
func fig16Stack(rp *dataset.Repository) *chart.StackedChart {
	rows := analysis.PeakShift(rp)
	levels := []float64{0.6, 0.7, 0.8, 0.9, 1.0}
	cats := make([]string, len(levels))
	for i, u := range levels {
		cats[i] = fmt.Sprintf("%.0f%%", 100*u)
	}
	srows := make([]chart.StackedRow, 0, len(rows))
	for _, row := range rows {
		shares := make(map[string]float64, len(row.Counts))
		for u, n := range row.Counts {
			shares[fmt.Sprintf("%.0f%%", 100*u)] = float64(n)
		}
		srows = append(srows, chart.StackedRow{
			Label:  fmt.Sprintf("%d (n=%d)", row.Year, row.Spots),
			Shares: shares,
		})
	}
	return &chart.StackedChart{
		Title:      "Fig.16 Chronological shifting of utilization with peak EE",
		Categories: cats,
		Rows:       srows,
	}
}

func fig16Summary(rp *dataset.Repository) string {
	var b strings.Builder
	overall := analysis.PeakShiftShares(rp, 2004, 2016)
	early := analysis.PeakShiftShares(rp, 2004, 2012)
	late := analysis.PeakShiftShares(rp, 2013, 2016)
	fmt.Fprintf(&b, "overall: 100%%:%.2f%% 90%%:%.2f%% 80%%:%.2f%% 70%%:%.2f%% 60%%:%.2f%%\n",
		100*overall[1.0], 100*overall[0.9], 100*overall[0.8], 100*overall[0.7], 100*overall[0.6])
	fmt.Fprintf(&b, "2004-2012: peak@100%% %.2f%%   2013-2016: peak@100%% %.2f%%, @80%% %.2f%%, @70%% %.2f%%\n",
		100*early[1.0], 100*late[1.0], 100*late[0.8], 100*late[0.7])
	return b.String()
}

// ---- Fig. 17 ----

// Fig17MPC renders mean EP/EE per memory-per-core configuration (paper
// Fig. 17).
func Fig17MPC(rp *dataset.Repository) string {
	buckets := analysis.MemoryPerCore(rp, 10)
	var b strings.Builder
	b.WriteString("Fig.17 EP and EE at different memory-per-core configurations\n")
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "GB/core\tn\tavg EP\tavg EE")
	bestEP, bestEE := 0.0, 0.0
	var bestEPAt, bestEEAt float64
	for _, bk := range buckets {
		fmt.Fprintf(tw, "%.2f\t%d\t%.3f\t%.0f\n", bk.GBPerCore, bk.Count, bk.MeanEP, bk.MeanEE)
		if bk.MeanEP > bestEP {
			bestEP, bestEPAt = bk.MeanEP, bk.GBPerCore
		}
		if bk.MeanEE > bestEE {
			bestEE, bestEEAt = bk.MeanEE, bk.GBPerCore
		}
	}
	tw.Flush()
	fmt.Fprintf(&b, "best memory per core: EP at %.2f GB/core, EE at %.2f GB/core\n", bestEPAt, bestEEAt)
	return b.String()
}

// ---- Fig. 18-21 (sweeps) ----

func sweepChart(title string, points []bench.SweepPoint) *chart.LineChart {
	byGov, govs := groupByGovernor(points)
	series := make([]chart.Series, 0, len(govs))
	for _, gov := range govs {
		pts := byGov[gov]
		sort.SliceStable(pts, func(i, j int) bool { return pts[i].MemoryPerCore < pts[j].MemoryPerCore })
		s := chart.Series{Name: gov}
		for _, p := range pts {
			s.X = append(s.X, p.MemoryPerCore)
			s.Y = append(s.Y, p.OverallEE)
		}
		series = append(series, s)
	}
	return &chart.LineChart{
		Title:  title,
		XLabel: "memory per core (GB)",
		YLabel: "overall EE (ssj_ops/watt)",
		Series: series,
	}
}

func sweepTable(points []bench.SweepPoint) string {
	byGov, govs := groupByGovernor(points)
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "governor\tGB/core\toverall EE\tpeak EE\tpeak EE @\tpeak power (W)")
	for _, gov := range govs {
		for _, p := range byGov[gov] {
			fmt.Fprintf(tw, "%s\t%.2f\t%.1f\t%.1f\t%.0f%%\t%.0f\n",
				p.Governor, p.MemoryPerCore, p.OverallEE, p.PeakEE, 100*p.PeakEEAtLoad, p.PeakPowerWatts)
		}
	}
	tw.Flush()
	return b.String()
}

func groupByGovernor(points []bench.SweepPoint) (map[string][]bench.SweepPoint, []string) {
	byGov := make(map[string][]bench.SweepPoint)
	var govs []string
	for _, p := range points {
		if _, ok := byGov[p.Governor]; !ok {
			govs = append(govs, p.Governor)
		}
		byGov[p.Governor] = append(byGov[p.Governor], p)
	}
	return byGov, govs
}

// SweepFigure renders one of the Fig. 18-20 panels: overall efficiency
// versus memory per core, one series per frequency governor.
func SweepFigure(title string, points []bench.SweepPoint) string {
	return sweepChart(title, points).Render() + sweepTable(points)
}

func fig21Chart(points []bench.SweepPoint) *chart.LineChart {
	byMem, mems := groupByMemory(points)
	var series []chart.Series
	for _, m := range mems {
		pts := byMem[m]
		sort.SliceStable(pts, func(i, j int) bool { return pts[i].BusyFreqGHz < pts[j].BusyFreqGHz })
		ee := chart.Series{Name: fmt.Sprintf("EE MPC=%.2f", m)}
		for _, p := range pts {
			if p.Governor == "ondemand" {
				continue
			}
			ee.X = append(ee.X, p.BusyFreqGHz)
			ee.Y = append(ee.Y, p.OverallEE)
		}
		series = append(series, ee)
	}
	return &chart.LineChart{
		Title:  "Fig.21 EE and peak power on server #4 by frequency and memory per core",
		XLabel: "CPU frequency (GHz)",
		YLabel: "overall EE",
		Series: series,
	}
}

func fig21Table(points []bench.SweepPoint) string {
	byMem, mems := groupByMemory(points)
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "MPC (GB/core)\tgovernor\tfreq (GHz)\toverall EE\tpeak power (W)")
	for _, m := range mems {
		for _, p := range byMem[m] {
			fmt.Fprintf(tw, "%.2f\t%s\t%.2f\t%.1f\t%.0f\n",
				p.MemoryPerCore, p.Governor, p.BusyFreqGHz, p.OverallEE, p.PeakPowerWatts)
		}
	}
	tw.Flush()
	return b.String()
}

func groupByMemory(points []bench.SweepPoint) (map[float64][]bench.SweepPoint, []float64) {
	byMem := make(map[float64][]bench.SweepPoint)
	var mems []float64
	for _, p := range points {
		if _, ok := byMem[p.MemoryPerCore]; !ok {
			mems = append(mems, p.MemoryPerCore)
		}
		byMem[p.MemoryPerCore] = append(byMem[p.MemoryPerCore], p)
	}
	sort.Float64s(mems)
	return byMem, mems
}

// Fig21PowerAndEE renders server #4's efficiency and peak power against
// frequency, one pair of rows per memory configuration (paper Fig. 21).
func Fig21PowerAndEE(points []bench.SweepPoint) string {
	return fig21Chart(points).Render() + fig21Table(points)
}
