package report

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/bench"
	"repro/internal/dataset"
	"repro/internal/par"
	"repro/internal/placement"
	"repro/internal/power"
	"repro/internal/synth"
)

var testCorpus *dataset.Repository

func validCorpus(t *testing.T) *dataset.Repository {
	t.Helper()
	if testCorpus == nil {
		rp, err := synth.NewRepository(synth.Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		testCorpus = rp.Valid()
	}
	return testCorpus
}

// mustFigure renders one selector as text, failing the test on error.
func mustFigure(t *testing.T, rp *dataset.Repository, id string) string {
	t.Helper()
	out, err := Figure(rp, id)
	if err != nil {
		t.Fatalf("Figure(%q): %v", id, err)
	}
	return out
}

func TestFig1SampleServer(t *testing.T) {
	rp := validCorpus(t)
	out, err := Figure(rp, "1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Fig.1") || !strings.Contains(out, "EP=1.02") {
		t.Errorf("Fig.1 header wrong:\n%s", out[:200])
	}
	if !strings.Contains(out, "score 12212") {
		t.Errorf("sample score missing:\n%s", out[:200])
	}
	// A sample server whose curve cannot be built is an error, not an
	// absent figure.
	bad := findSample(rp).Clone()
	bad.ActiveIdleWatts = -1
	for _, render := range []func(*dataset.Repository, string) (string, error){Figure, FigureSVG} {
		_, err := render(dataset.NewRepository([]*dataset.Result{bad}), "1")
		if err == nil || errors.Is(err, analysis.ErrTooFewServers) {
			t.Errorf("invalid sample result: err = %v, want a curve error", err)
		}
	}
}

// TestFig1WithoutSample: a corpus with no 2016 server cannot supply
// Fig. 1. Figure and FigureSVG say so with an error matching
// analysis.ErrTooFewServers; the multi-section renders behind Full,
// FullHTML and Figures leave it out. (Such a corpus cannot render a
// whole report: Fig. E6 projects from the 2016 servers.)
func TestFig1WithoutSample(t *testing.T) {
	rp := validCorpus(t).YearRange(2004, 2015)
	for _, render := range []func(*dataset.Repository, string) (string, error){Figure, FigureSVG} {
		_, err := render(rp, "1")
		if !errors.Is(err, analysis.ErrTooFewServers) || !strings.Contains(err.Error(), "report: no 2016 sample server for Fig. 1") {
			t.Errorf("err = %v, want the no-sample error matching ErrTooFewServers", err)
		}
	}
	out, err := Figures(rp, []string{"1", "2"})
	if err != nil {
		t.Fatal(err)
	}
	fig2, err := Figure(rp, "2")
	if err != nil {
		t.Fatal(err)
	}
	if out != fig2+"\n" {
		t.Error("Figures with an absent Fig. 1 is not Fig. 2 alone")
	}
	first2 := func(s *section) bool { return s.anchor == "fig1" || s.anchor == "fig2" }
	html, err := renderAll(rp, Options{}, first2, htmlSection)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(html, `id="fig1"`) || !strings.HasPrefix(html, `<section id="fig2">`) {
		t.Errorf("HTML sections without a 2016 server:\n%.200s", html)
	}
}

// TestFiguresSelection pins the multi-selector render: table order
// whatever the argument order, a blank line after each section, and an
// unknown or report-only selector is an error naming the valid ones.
func TestFiguresSelection(t *testing.T) {
	rp := validCorpus(t)
	out, err := Figures(rp, []string{"17", "t1", "3"})
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, id := range []string{"3", "t1", "17"} {
		fig, err := Figure(rp, id)
		if err != nil {
			t.Fatal(err)
		}
		want.WriteString(fig + "\n")
	}
	if out != want.String() {
		t.Error("Figures is not the table-ordered selection, each followed by a blank line")
	}
	for _, id := range []string{"99", "e2", "18", ""} {
		if _, err := Figures(rp, []string{"3", id}); err == nil || !strings.Contains(err.Error(), "valid: 1, 10") {
			t.Errorf("Figures(%q) err = %v, want an unknown-figure error listing the selectors", id, err)
		}
	}
}

func TestTrendFigures(t *testing.T) {
	rp := validCorpus(t)
	fig2, err := Figure(rp, "2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fig2, "Fig.2") || !strings.Contains(fig2, "n=477") {
		t.Error("Fig.2 header wrong")
	}
	fig3, err := Figure(rp, "3")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fig.3", "2004", "2016", "median", "average"} {
		if !strings.Contains(fig3, want) {
			t.Errorf("Fig.3 missing %q", want)
		}
	}
	fig4, err := Figure(rp, "4")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fig4, "peak EE") {
		t.Error("Fig.4 missing peak EE series")
	}
	fig5, err := Figure(rp, "5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fig5, "EP < 1.0: 99.58%") {
		t.Errorf("Fig.5 summary wrong:\n%s", fig5)
	}
}

func TestGroupingFigures(t *testing.T) {
	rp := validCorpus(t)
	fig6 := mustFigure(t, rp, "6")
	for _, want := range []string{"Fig.6", "Sandy Bridge", "Netburst", "mean EP"} {
		if !strings.Contains(fig6, want) {
			t.Errorf("Fig.6 missing %q", want)
		}
	}
	fig7 := mustFigure(t, rp, "7")
	if !strings.Contains(fig7, "Sandy Bridge EN") || !strings.Contains(fig7, "Penryn") {
		t.Error("Fig.7 missing codenames")
	}
	fig8 := mustFigure(t, rp, "8")
	if !strings.Contains(fig8, "2012") || !strings.Contains(fig8, "legend:") {
		t.Error("Fig.8 malformed")
	}
}

func TestEnvelopeFigures(t *testing.T) {
	rp := validCorpus(t)
	fig9 := mustFigure(t, rp, "9")
	if !strings.Contains(fig9, "EP=1.05") || !strings.Contains(fig9, "EP=0.18") {
		t.Errorf("Fig.9 envelope EPs missing:\n%s", fig9)
	}
	fig10 := mustFigure(t, rp, "10")
	if !strings.Contains(fig10, "2012 EP=1.05") || !strings.Contains(fig10, "intersections") {
		t.Error("Fig.10 malformed")
	}
	// The double-crosser shows two intersection points.
	foundDouble := false
	for _, line := range strings.Split(fig10, "\n") {
		if strings.Contains(line, "2014 EP=0.86") && strings.Count(line, "%") == 3 {
			foundDouble = true
		}
	}
	if !foundDouble {
		t.Errorf("Fig.10 double-crossing row missing:\n%s", fig10)
	}
	fig11 := mustFigure(t, rp, "11")
	if !strings.Contains(fig11, "Fig.11") {
		t.Error("Fig.11 malformed")
	}
	fig12 := mustFigure(t, rp, "12")
	if !strings.Contains(fig12, "peak EE spot") {
		t.Error("Fig.12 malformed")
	}
}

func TestScaleFigures(t *testing.T) {
	rp := validCorpus(t)
	fig13 := Fig13Nodes(rp)
	if !strings.Contains(fig13, "16") {
		t.Errorf("Fig.13 missing 16-node group:\n%s", fig13)
	}
	fig14 := Fig14Chips(rp)
	if !strings.Contains(fig14, "284") {
		t.Errorf("Fig.14 missing the 284-server 2-chip group:\n%s", fig14)
	}
	fig15 := Fig15TwoChip(rp)
	if !strings.Contains(fig15, "aggregate advantage") {
		t.Error("Fig.15 malformed")
	}
	fig16 := mustFigure(t, rp, "16")
	if !strings.Contains(fig16, "2013-2016") || !strings.Contains(fig16, "overall") {
		t.Error("Fig.16 malformed")
	}
	fig17 := Fig17MPC(rp)
	if !strings.Contains(fig17, "EP at 1.50 GB/core") || !strings.Contains(fig17, "EE at 1.78 GB/core") {
		t.Errorf("Fig.17 best points wrong:\n%s", fig17)
	}
}

func TestTables(t *testing.T) {
	rp := validCorpus(t)
	t1 := TableIMPC(rp)
	if !strings.Contains(t1, "Table I") || !strings.Contains(t1, "430 servers") {
		t.Errorf("Table I malformed:\n%s", t1)
	}
	t2 := TableIIServers()
	for _, want := range []string{"Sugon A620r-G", "AMD Opteron 6272", "ThinkServer RD450", "DDR4"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table II missing %q", want)
		}
	}
}

func TestStatsSummary(t *testing.T) {
	out, err := StatsSummary(validCorpus(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"corr(EP, overall EE)", "Eq.2", "Top-decile", "Reorganization"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats summary missing %q", want)
		}
	}
}

func TestSweepFigures(t *testing.T) {
	srv := power.Server4ThinkServerRD450()
	pts, err := bench.Sweep(srv,
		[]bench.MemoryConfig{{TotalGB: 32, DIMMSizeGB: 16}, {TotalGB: 96, DIMMSizeGB: 16}},
		[]power.Governor{power.UserSpace(1.2), power.Performance(), power.OnDemand()}, 5)
	if err != nil {
		t.Fatal(err)
	}
	out := SweepFigure("Fig.20 test", pts)
	for _, want := range []string{"Fig.20 test", "ondemand", "1.2GHz", "peak power"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep figure missing %q", want)
		}
	}
	fig21 := Fig21PowerAndEE(pts)
	if !strings.Contains(fig21, "Fig.21") || !strings.Contains(fig21, "MPC") {
		t.Error("Fig.21 malformed")
	}
}

func TestFullReport(t *testing.T) {
	out, err := Full(validCorpus(t), Options{Sweeps: true, SweepSeconds: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	wanted := []string{
		"Fig.1", "Fig.2", "Fig.3", "Fig.4", "Fig.5", "Fig.6", "Fig.7",
		"Fig.8", "Fig.9", "Fig.10", "Fig.11", "Fig.12", "Fig.13",
		"Fig.14", "Fig.15", "Fig.16", "Fig.17", "Fig.18", "Fig.19",
		"Fig.20", "Fig.21", "Table I", "Table II", "Eq.2",
	}
	for _, want := range wanted {
		if !strings.Contains(out, want) {
			t.Errorf("full report missing %q", want)
		}
	}
}

func TestSummaryLine(t *testing.T) {
	rp, err := synth.NewRepository(synth.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := Summary(rp)
	if !strings.Contains(s, "517 submissions") || !strings.Contains(s, "477 valid") {
		t.Errorf("summary = %q", s)
	}
}

func TestExtensionFigures(t *testing.T) {
	rp := validCorpus(t)
	e1, err := FigE1GapTrend(rp)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e1, "Fig.E1") || !strings.Contains(e1, "low-util") {
		t.Errorf("E1 malformed:\n%s", e1)
	}
	var fleet []*placement.Profile
	for _, r := range rp.YearRange(2012, 2016).All()[:10] {
		p, err := placement.NewProfile(r.ID, r.MustCurve())
		if err != nil {
			t.Fatal(err)
		}
		fleet = append(fleet, p)
	}
	e2, err := FigE2ClusterPolicies(fleet)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fig.E2", "spread", "pack+off", "optimal-region"} {
		if !strings.Contains(e2, want) {
			t.Errorf("E2 missing %q", want)
		}
	}
	e3, err := FigE3QuadratureAblation(rp)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e3, "Fig.E3") || !strings.Contains(e3, "n=477") {
		t.Errorf("E3 malformed:\n%s", e3)
	}
}

func TestDisclosure(t *testing.T) {
	rp := validCorpus(t)
	sample := findSample(rp)
	out, err := Disclosure(sample)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"SPECpower_ssj2008 disclosure", "Hardware vendor", "active idle",
		"overall ssj_ops/watt: 12212", "EP 1.020", "compliance: PASS",
		"peak efficiency",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("disclosure missing %q:\n%s", want, out)
		}
	}
	// A non-compliant result discloses its violation.
	bad := sample.Clone()
	bad.Levels[3].ActualLoad = 0.9
	out, err = Disclosure(bad)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "compliance: FAIL") {
		t.Error("non-compliant disclosure should say FAIL")
	}
	// Curve-invalid results error.
	broken := sample.Clone()
	broken.ActiveIdleWatts = -1
	if _, err := Disclosure(broken); err == nil {
		t.Error("invalid curve accepted")
	}
}

func TestExtensionFiguresE4E5(t *testing.T) {
	rp := validCorpus(t)
	e4, err := FigE4ImprovementRates(rp)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e4, "Fig.E4") || !strings.Contains(e4, "2007-2012") || !strings.Contains(e4, "2012-2016") {
		t.Errorf("E4 malformed:\n%s", e4)
	}
	e5 := FigE5PowerBreakdown()
	for _, want := range []string{"Fig.E5", "PSU loss", "ThinkServer RD450", "Platform"} {
		if !strings.Contains(e5, want) {
			t.Errorf("E5 missing %q", want)
		}
	}
}

func TestFullHTML(t *testing.T) {
	out, err := FullHTML(validCorpus(t), Options{Sweeps: true, SweepSeconds: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "<!DOCTYPE html>") || !strings.HasSuffix(out, "</html>\n") {
		t.Fatal("not a complete HTML document")
	}
	for _, want := range []string{
		`<section id="fig1">`, `<section id="fig16">`, `<section id="fig21">`,
		`<section id="tab1">`, `<section id="e4">`, "<svg", "</svg>",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("HTML missing %q", want)
		}
	}
	// All 21 paper figures present.
	for i := 1; i <= 21; i++ {
		id := fmt.Sprintf(`id="fig%d"`, i)
		if !strings.Contains(out, id) {
			t.Errorf("HTML missing section %s", id)
		}
	}
	// No scripts; self-contained.
	if strings.Contains(out, "<script") {
		t.Error("HTML must not contain scripts")
	}
	// SVG charts embedded in quantity.
	if strings.Count(out, "<svg") < 14 {
		t.Errorf("only %d SVGs embedded", strings.Count(out, "<svg"))
	}
}

func TestFullHTMLNoSweeps(t *testing.T) {
	out, err := FullHTML(validCorpus(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, `id="fig18"`) {
		t.Error("sweeps rendered despite being disabled")
	}
}

func TestExtensionFigureE6(t *testing.T) {
	e6, err := FigE6Projection(validCorpus(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fig.E6", "2020", "2022", "implied idle"} {
		if !strings.Contains(e6, want) {
			t.Errorf("E6 missing %q", want)
		}
	}
}

func TestJSONSummary(t *testing.T) {
	rp, err := synth.NewRepository(synth.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalJSONSummary(rp)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	for _, key := range []string{
		"corpus", "yearly_trend", "families", "codenames", "by_nodes",
		"memory_per_core", "peak_shift", "correlations",
		"eq2_idle_regression", "top_decile_asymmetry", "reorg_deltas",
		"proportionality_gap", "era_rates",
	} {
		if _, ok := back[key]; !ok {
			t.Errorf("JSON summary missing %q", key)
		}
	}
	corpus := back["corpus"].(map[string]any)
	if corpus["valid"].(float64) != 477 {
		t.Errorf("valid = %v", corpus["valid"])
	}
	trend := back["yearly_trend"].([]any)
	if len(trend) != 13 {
		t.Errorf("trend years = %d", len(trend))
	}
}

func TestExtensionFigureE7(t *testing.T) {
	e7, err := FigE7KnightShift(validCorpus(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fig.E7", "2009", "2016", "primary off"} {
		if !strings.Contains(e7, want) {
			t.Errorf("E7 missing %q:\n%s", want, e7)
		}
	}
}

// TestFullReportGolden guards the determinism contract of the parallel
// section pipeline: the full report — sweeps included — at seed 1 over
// the default corpus is byte-identical at every worker count and
// matches a committed digest. If an intentional output change breaks
// this, regenerate the digest with:
//
//	specreport -seed 1 -sweep-seconds 5 | sha256sum
const fullReportSeed1Digest = "729965030dd6af82b1961a7aa82e9de9e17f92c68463ef308c426a85aef4f278"

func TestFullReportGolden(t *testing.T) {
	rp := validCorpus(t)
	opts := Options{Sweeps: true, SweepSeconds: 5, Seed: 1}

	defer par.SetMaxWorkers(0)
	var outs []string
	for _, workers := range []int{1, 2, 8} {
		par.SetMaxWorkers(workers)
		out, err := Full(rp, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		outs = append(outs, out)
	}
	for i := 1; i < len(outs); i++ {
		if outs[i] != outs[0] {
			t.Errorf("report differs between worker counts 1 and %d", []int{1, 2, 8}[i])
		}
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(outs[0]))); got != fullReportSeed1Digest {
		t.Errorf("report digest = %s, want %s (output drifted)", got, fullReportSeed1Digest)
	}
}

// TestFullHTMLWorkerInvariant extends the same guarantee to the HTML
// pipeline.
func TestFullHTMLWorkerInvariant(t *testing.T) {
	rp := validCorpus(t)
	opts := Options{Sweeps: true, SweepSeconds: 5, Seed: 3}
	defer par.SetMaxWorkers(0)
	par.SetMaxWorkers(1)
	serial, err := FullHTML(rp, opts)
	if err != nil {
		t.Fatal(err)
	}
	par.SetMaxWorkers(8)
	parallel, err := FullHTML(rp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if serial != parallel {
		t.Error("HTML report differs between worker counts")
	}
}

// TestHardwareExperimentsSharedSweep checks Fig. 20 and Fig. 21 render
// from one shared server #4 sweep and stay consistent with a direct
// sweep of the same grid.
func TestHardwareExperimentsSharedSweep(t *testing.T) {
	out, err := Full(validCorpus(t), Options{Sweeps: true, SweepSeconds: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := power.TableIIServers()[3]
	pts, err := bench.SweepWith(srv, bench.PaperMemoryConfigs(srv), bench.AllFrequencyGovernors(srv),
		bench.SweepOptions{Seed: 2, IntervalSeconds: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, Fig21PowerAndEE(pts)) {
		t.Error("Fig.21 does not match server #4's sweep")
	}
	if !strings.Contains(out, SweepFigure("Fig.20 EE vs memory per core × frequency on #4 (ThinkServer RD450)", pts)) {
		t.Error("Fig.20 does not match server #4's sweep")
	}
	for _, fig := range []string{"Fig.18", "Fig.19", "Fig.20", "Fig.21"} {
		if !strings.Contains(out, fig) {
			t.Errorf("hardware experiments missing %s", fig)
		}
	}
}
