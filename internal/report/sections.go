package report

import (
	"sync"

	"repro/internal/analysis"
	"repro/internal/bench"
	"repro/internal/dataset"
	"repro/internal/power"
)

// chartForm is a section's chart: Render draws it as terminal text,
// RenderSVG as a standalone SVG element.
type chartForm interface {
	Render() string
	RenderSVG() string
}

// section is one entry of the report table.
type section struct {
	id     string // selector for Figure and Figures; "" for report-only sections
	anchor string // id of the section's element in FullHTML
	title  string
	chart  bool // render returns a chart form besides the table text
	corpus bool // false for the sweep figures, which read Options.Seed and SweepSeconds instead
	// render returns the section's chart (nil when chart is false) and
	// the table text printed after it.
	render func(c *renderCtx) (chartForm, string, error)
}

// absentError marks a section the corpus cannot supply. Full, FullHTML
// and Figures leave such a section out; Figure and FigureSVG return the
// error, which matches analysis.ErrTooFewServers.
type absentError string

func (e absentError) Error() string { return string(e) }
func (absentError) Unwrap() error   { return analysis.ErrTooFewServers }

// renderCtx is one render's corpus plus the inputs several sections
// share: the Figs. 10/12 representatives and the Table II sweeps
// (server #4's feeds Figs. 20 and 21). Each is computed at most once,
// when a section first asks for it.
type renderCtx struct {
	rp     *dataset.Repository
	reps   func() []analysis.Representative
	sweeps []func() ([]bench.SweepPoint, error)
}

func newRenderCtx(rp *dataset.Repository, opts Options) *renderCtx {
	c := &renderCtx{
		rp:   rp,
		reps: sync.OnceValue(func() []analysis.Representative { return analysis.SelectRepresentatives(rp) }),
	}
	for _, srv := range power.TableIIServers() {
		c.sweeps = append(c.sweeps, sync.OnceValues(func() ([]bench.SweepPoint, error) {
			return bench.SweepWith(srv, bench.PaperMemoryConfigs(srv), bench.AllFrequencyGovernors(srv),
				bench.SweepOptions{Seed: opts.Seed, IntervalSeconds: opts.SweepSeconds})
		}))
	}
	return c
}

// sweepPanel renders one of the Fig. 18-20 panels from Table II server i.
func (c *renderCtx) sweepPanel(i int, title string) (chartForm, string, error) {
	pts, err := c.sweeps[i]()
	if err != nil {
		return nil, "", err
	}
	return sweepChart(title, pts), sweepTable(pts), nil
}

// sections is the report table in paper order. Its columns are the
// selector, the HTML anchor, the title, whether the section has a chart
// form, whether it depends on the corpus, and its render. Every surface
// reads it: Full and FullHTML render it whole, Figure and FigureSVG one
// entry by selector, Figures a selection.
var sections = []section{
	{"1", "fig1", "Fig. 1 — Energy proportionality curve", true, true, func(c *renderCtx) (chartForm, string, error) {
		s := findSample(c.rp)
		if s == nil {
			return nil, "", absentError("report: no 2016 sample server for Fig. 1")
		}
		curve, err := s.Curve()
		if err != nil {
			return nil, "", err
		}
		return fig1Chart(s, curve), "", nil
	}},
	{"2", "fig2", "Fig. 2 — EP and EE evolution", true, true, func(c *renderCtx) (chartForm, string, error) {
		lc, err := fig2Chart(c.rp)
		return lc, "", err
	}},
	{"3", "fig3", "Fig. 3 — EP statistics by year", true, true, func(c *renderCtx) (chartForm, string, error) {
		trend, err := analysis.YearlyTrend(c.rp)
		if err != nil {
			return nil, "", err
		}
		return fig3Chart(trend), trendTable(trend, epMetric, "max\tmedian\taverage\tmin"), nil
	}},
	{"4", "fig4", "Fig. 4 — EE statistics by year", true, true, func(c *renderCtx) (chartForm, string, error) {
		trend, err := analysis.YearlyTrend(c.rp)
		if err != nil {
			return nil, "", err
		}
		return fig4Chart(trend), trendTable(trend, eeMetric, "max EE\tmed EE\tavg EE\tmin EE"), nil
	}},
	{"5", "fig5", "Fig. 5 — CDF of energy proportionality", true, true, func(c *renderCtx) (chartForm, string, error) {
		return fig5Chart(c.rp)
	}},
	{"6", "fig6", "Fig. 6 — Servers by microarchitecture", true, true, func(c *renderCtx) (chartForm, string, error) {
		return fig6Bars(c.rp), "", nil
	}},
	{"7", "fig7", "Fig. 7 — Mean EP by codename", true, true, func(c *renderCtx) (chartForm, string, error) {
		return fig7Bars(c.rp), "", nil
	}},
	{"8", "fig8", "Fig. 8 — Microarchitecture mix 2012-2016", true, true, func(c *renderCtx) (chartForm, string, error) {
		return fig8Stack(c.rp), "", nil
	}},
	{"9", "fig9", "Fig. 9 — Pencil-head chart (EP envelope)", true, true, func(c *renderCtx) (chartForm, string, error) {
		return fig9Chart(c.rp), "", nil
	}},
	{"10", "fig10", "Fig. 10 — Selected EP curves", true, true, func(c *renderCtx) (chartForm, string, error) {
		reps := c.reps()
		return fig10Chart(reps), fig10Table(reps), nil
	}},
	{"11", "fig11", "Fig. 11 — Almond chart (EE envelope)", true, true, func(c *renderCtx) (chartForm, string, error) {
		return fig11Chart(c.rp), "", nil
	}},
	{"12", "fig12", "Fig. 12 — Selected EE curves", true, true, func(c *renderCtx) (chartForm, string, error) {
		reps := c.reps()
		return fig12Chart(reps), fig12Table(reps), nil
	}},
	{"13", "fig13", "Fig. 13 — Economies of scale by node count", false, true, func(c *renderCtx) (chartForm, string, error) {
		return nil, Fig13Nodes(c.rp), nil
	}},
	{"14", "fig14", "Fig. 14 — Single-node servers by chip count", false, true, func(c *renderCtx) (chartForm, string, error) {
		return nil, Fig14Chips(c.rp), nil
	}},
	{"15", "fig15", "Fig. 15 — 2-chip servers vs all", false, true, func(c *renderCtx) (chartForm, string, error) {
		return nil, Fig15TwoChip(c.rp), nil
	}},
	{"16", "fig16", "Fig. 16 — Peak-efficiency utilization shift", true, true, func(c *renderCtx) (chartForm, string, error) {
		return fig16Stack(c.rp), fig16Summary(c.rp), nil
	}},
	{"t1", "tab1", "Table I — Memory per core statistics", false, true, func(c *renderCtx) (chartForm, string, error) {
		return nil, TableIMPC(c.rp), nil
	}},
	{"17", "fig17", "Fig. 17 — EP and EE by memory per core", false, true, func(c *renderCtx) (chartForm, string, error) {
		return nil, Fig17MPC(c.rp), nil
	}},
	{"t2", "tab2", "Table II — Tested servers", false, true, func(*renderCtx) (chartForm, string, error) {
		return nil, TableIIServers(), nil
	}},
	{"", "stats", "Headline statistics", false, true, func(c *renderCtx) (chartForm, string, error) {
		s, err := StatsSummary(c.rp)
		return nil, s, err
	}},

	// Extension figures (not in the paper): the low-utilization
	// proportionality gap, cluster-wide EP by policy, the Eq. 1
	// quadrature ablation, per-era rates, the component breakdown, the
	// projection past 2016 and KnightShift heterogeneity.
	{"e1", "e1", "Extension E1 — Proportionality gap by region", false, true, func(c *renderCtx) (chartForm, string, error) {
		s, err := FigE1GapTrend(c.rp)
		return nil, s, err
	}},
	{"", "e2", "Extension E2 — Cluster-wide EP by policy", false, true, func(c *renderCtx) (chartForm, string, error) {
		fleet := recentFleet(c.rp, 12)
		if len(fleet) < 2 {
			return nil, "", absentError("report: fewer than two recent servers for Extension E2")
		}
		s, err := FigE2ClusterPolicies(fleet)
		return nil, s, err
	}},
	{"e3", "e3", "Extension E3 — Quadrature ablation", false, true, func(c *renderCtx) (chartForm, string, error) {
		s, err := FigE3QuadratureAblation(c.rp)
		return nil, s, err
	}},
	{"e4", "e4", "Extension E4 — Per-era improvement rates", false, true, func(c *renderCtx) (chartForm, string, error) {
		s, err := FigE4ImprovementRates(c.rp)
		return nil, s, err
	}},
	{"e5", "e5", "Extension E5 — Component power breakdown", false, true, func(*renderCtx) (chartForm, string, error) {
		return nil, FigE5PowerBreakdown(), nil
	}},
	{"e6", "e6", "Extension E6 — Projection past 2016", false, true, func(c *renderCtx) (chartForm, string, error) {
		s, err := FigE6Projection(c.rp)
		return nil, s, err
	}},
	{"e7", "e7", "Extension E7 — KnightShift heterogeneity", false, true, func(c *renderCtx) (chartForm, string, error) {
		s, err := FigE7KnightShift(c.rp)
		return nil, s, err
	}},

	// The §V.A/§V.B hardware experiments on the Table II servers.
	{"", "fig18", "Fig. 18 — Server #1 memory × frequency sweep", true, false, func(c *renderCtx) (chartForm, string, error) {
		return c.sweepPanel(0, "Fig.18 EE vs memory per core × frequency on #1 (Sugon A620r-G)")
	}},
	{"", "fig19", "Fig. 19 — Server #2 memory × frequency sweep", true, false, func(c *renderCtx) (chartForm, string, error) {
		return c.sweepPanel(1, "Fig.19 EE vs memory per core × frequency on #2 (Sugon I620-G10)")
	}},
	{"", "fig20", "Fig. 20 — Server #4 memory × frequency sweep", true, false, func(c *renderCtx) (chartForm, string, error) {
		return c.sweepPanel(3, "Fig.20 EE vs memory per core × frequency on #4 (ThinkServer RD450)")
	}},
	{"", "fig21", "Fig. 21 — Server #4 EE and peak power", true, false, func(c *renderCtx) (chartForm, string, error) {
		pts, err := c.sweeps[3]()
		if err != nil {
			return nil, "", err
		}
		return fig21Chart(pts), fig21Table(pts), nil
	}},
}
