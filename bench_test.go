// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section. Each benchmark regenerates its figure from the
// calibrated synthetic corpus (or the simulated Table II servers for
// Fig. 18-21) and prints the series once, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation and times every analysis.
package repro_test

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"

	"repro"
	"repro/internal/analysis"
	"repro/internal/bench"
	"repro/internal/dataset"
	"repro/internal/power"
	"repro/internal/report"
	"repro/internal/synth"
)

var (
	corpusOnce  sync.Once
	corpusValid *dataset.Repository
	printed     sync.Map
)

// benchCorpus returns the shared 477-server corpus.
func benchCorpus(b *testing.B) *dataset.Repository {
	b.Helper()
	corpusOnce.Do(func() {
		rp, err := synth.NewRepository(synth.Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		corpusValid = rp.Valid()
	})
	return corpusValid
}

// printOnce emits a regenerated figure exactly once per process.
func printOnce(key, text string) {
	if _, loaded := printed.LoadOrStore(key, true); !loaded {
		fmt.Printf("\n%s\n", text)
	}
}

func BenchmarkFig01EPCurve(b *testing.B) {
	rp := benchCorpus(b)
	var sample *dataset.Result
	for _, r := range rp.YearRange(2016, 2016).All() {
		if sample == nil || r.EP() > sample.EP() {
			sample = r
		}
	}
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = report.Fig1EPCurve(sample)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("fig1", out)
}

func BenchmarkFig02Evolution(b *testing.B) {
	rp := benchCorpus(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = report.Fig2Evolution(rp)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("fig2", out)
}

func BenchmarkFig03EPTrend(b *testing.B) {
	rp := benchCorpus(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = report.Fig3EPTrend(rp)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("fig3", out)
}

func BenchmarkFig04EETrend(b *testing.B) {
	rp := benchCorpus(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = report.Fig4EETrend(rp)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("fig4", out)
}

func BenchmarkFig05EPCDF(b *testing.B) {
	rp := benchCorpus(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = report.Fig5EPCDF(rp)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("fig5", out)
}

func BenchmarkFig06MarchCount(b *testing.B) {
	rp := benchCorpus(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = report.Fig6Families(rp)
	}
	printOnce("fig6", out)
}

func BenchmarkFig07CodenameEP(b *testing.B) {
	rp := benchCorpus(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = report.Fig7Codenames(rp)
	}
	printOnce("fig7", out)
}

func BenchmarkFig08MarchMix(b *testing.B) {
	rp := benchCorpus(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = report.Fig8MarchMix(rp)
	}
	printOnce("fig8", out)
}

func BenchmarkFig09PencilHead(b *testing.B) {
	rp := benchCorpus(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = report.Fig9PencilHead(rp)
	}
	printOnce("fig9", out)
}

func BenchmarkFig10SelectedEP(b *testing.B) {
	rp := benchCorpus(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = report.Fig10SelectedEP(rp)
	}
	printOnce("fig10", out)
}

func BenchmarkFig11Almond(b *testing.B) {
	rp := benchCorpus(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = report.Fig11Almond(rp)
	}
	printOnce("fig11", out)
}

func BenchmarkFig12SelectedEE(b *testing.B) {
	rp := benchCorpus(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = report.Fig12SelectedEE(rp)
	}
	printOnce("fig12", out)
}

func BenchmarkFig13NodeScale(b *testing.B) {
	rp := benchCorpus(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = report.Fig13Nodes(rp)
	}
	printOnce("fig13", out)
}

func BenchmarkFig14ChipScale(b *testing.B) {
	rp := benchCorpus(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = report.Fig14Chips(rp)
	}
	printOnce("fig14", out)
}

func BenchmarkFig15TwoChip(b *testing.B) {
	rp := benchCorpus(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = report.Fig15TwoChip(rp)
	}
	printOnce("fig15", out)
}

func BenchmarkFig16PeakShift(b *testing.B) {
	rp := benchCorpus(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = report.Fig16PeakShift(rp)
	}
	printOnce("fig16", out)
}

func BenchmarkFig17MPC(b *testing.B) {
	rp := benchCorpus(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = report.Fig17MPC(rp)
	}
	printOnce("fig17", out)
}

// sweepFigure runs one hardware-experiment sweep with shortened
// intervals (the methodology is identical; only the simulated
// measurement time shrinks).
func sweepFigure(b *testing.B, srv power.ServerConfig, key, title string) []bench.SweepPoint {
	b.Helper()
	mems := bench.PaperMemoryConfigs(srv)
	govs := bench.AllFrequencyGovernors(srv)
	var pts []bench.SweepPoint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = sweepShort(srv, mems, govs, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printOnce(key, report.SweepFigure(title, pts))
	return pts
}

func sweepShort(srv power.ServerConfig, mems []bench.MemoryConfig, govs []power.Governor, seed int64) ([]bench.SweepPoint, error) {
	out := make([]bench.SweepPoint, 0, len(mems)*len(govs))
	for mi, mem := range mems {
		cfg, err := srv.WithMemory(mem.TotalGB, mem.DIMMSizeGB)
		if err != nil {
			return nil, err
		}
		for gi, gov := range govs {
			runner, err := bench.NewRunner(bench.Config{
				Server:          cfg,
				Governor:        gov,
				Seed:            seed + int64(mi)*1009 + int64(gi)*9176,
				IntervalSeconds: 20,
			})
			if err != nil {
				return nil, err
			}
			res, err := runner.Run()
			if err != nil {
				return nil, err
			}
			peakEE, atLoad := res.PeakEE()
			out = append(out, bench.SweepPoint{
				Server:         cfg.Name,
				MemoryGB:       mem.TotalGB,
				MemoryPerCore:  float64(mem.TotalGB) / float64(cfg.TotalCores()),
				Governor:       gov.Name(),
				BusyFreqGHz:    res.BusyFreqGHz,
				OverallEE:      res.OverallEE(),
				PeakEE:         peakEE,
				PeakEEAtLoad:   atLoad,
				PeakPowerWatts: res.PeakPowerWatts(),
			})
		}
	}
	return out, nil
}

func BenchmarkFig18Server1Sweep(b *testing.B) {
	sweepFigure(b, power.Server1SugonA620rG(), "fig18",
		"Fig.18 EE vs memory per core × frequency on #1 (Sugon A620r-G)")
}

func BenchmarkFig19Server2Sweep(b *testing.B) {
	sweepFigure(b, power.Server2SugonI620G10(), "fig19",
		"Fig.19 EE vs memory per core × frequency on #2 (Sugon I620-G10)")
}

func BenchmarkFig20Server4Sweep(b *testing.B) {
	sweepFigure(b, power.Server4ThinkServerRD450(), "fig20",
		"Fig.20 EE vs memory per core × frequency on #4 (ThinkServer RD450)")
}

func BenchmarkFig21Server4Power(b *testing.B) {
	srv := power.Server4ThinkServerRD450()
	mems := bench.PaperMemoryConfigs(srv)
	govs := bench.AllFrequencyGovernors(srv)
	var pts []bench.SweepPoint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = sweepShort(srv, mems, govs, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printOnce("fig21", report.Fig21PowerAndEE(pts))
}

func BenchmarkTab1MPCCounts(b *testing.B) {
	rp := benchCorpus(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = report.TableIMPC(rp)
	}
	printOnce("tab1", out)
}

func BenchmarkTab2Servers(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = report.TableIIServers()
	}
	printOnce("tab2", out)
}

func BenchmarkReorgDeltas(b *testing.B) {
	rp := benchCorpus(b)
	b.ResetTimer()
	var deltas []analysis.ReorgDelta
	for i := 0; i < b.N; i++ {
		var err error
		deltas, err = analysis.YearReorgDeltas(rp)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if _, loaded := printed.LoadOrStore("reorg", true); !loaded {
		fmt.Printf("\nPublished-year vs hw-availability-year deltas (%d years):\n", len(deltas))
		for _, d := range deltas {
			fmt.Printf("  %d: avg EP %+.1f%%, med EP %+.1f%%, avg EE %+.1f%%, med EE %+.1f%% (n %d vs %d)\n",
				d.Year, d.AvgEPDeltaPct, d.MedEPDeltaPct, d.AvgEEDeltaPct, d.MedEEDeltaPct, d.NHWYear, d.NPub)
		}
	}
}

func BenchmarkEq2IdleRegression(b *testing.B) {
	rp := benchCorpus(b)
	b.ResetTimer()
	var reg analysis.IdleRegression
	for i := 0; i < b.N; i++ {
		var err error
		reg, err = analysis.FitIdleRegression(rp)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(reg.Fit.R2, "R2")
	b.ReportMetric(reg.Fit.A, "A")
	printOnce("eq2", fmt.Sprintf("Eq.2: EP = %.4f·e^(%.3f·idle)  R²=%.3f  corr=%.3f (paper: 1.2969, -2.06, 0.892, -0.92)",
		reg.Fit.A, reg.Fit.B, reg.Fit.R2, reg.Correlation))
}

func BenchmarkCorrEPvsEE(b *testing.B) {
	rp := benchCorpus(b)
	b.ResetTimer()
	var corr analysis.Correlations
	for i := 0; i < b.N; i++ {
		var err error
		corr, err = analysis.ComputeCorrelations(rp)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(corr.EPvsOverallEE, "corr")
	printOnce("correlations", fmt.Sprintf("corr(EP, overall EE) = %.3f (paper: 0.741)", corr.EPvsOverallEE))
}

func BenchmarkAsync(b *testing.B) {
	rp := benchCorpus(b)
	b.ResetTimer()
	var async analysis.AsyncStats
	for i := 0; i < b.N; i++ {
		async = analysis.Asynchronization(rp)
	}
	b.StopTimer()
	printOnce("async", fmt.Sprintf(
		"Top-decile asymmetry: top-EP from 2012 %.1f%% (paper 91.7%%), top-EE from 2012 %.1f%% (paper 16.7%%), overlap %.1f%% (paper 14.6%%)",
		100*async.TopEPFrom2012, 100*async.TopEEFrom2012, 100*async.Overlap))
}

// BenchmarkCorpusGeneration times the full 517-submission synthesis.
func BenchmarkCorpusGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := synth.Generate(synth.Config{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepositoryMetricsCold measures the one-time cost of building
// every curve and metric column from scratch: each iteration clones the
// corpus (fresh, empty caches) and precomputes it.
func BenchmarkRepositoryMetricsCold(b *testing.B) {
	rp := benchCorpus(b)
	all := rp.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh := make([]*dataset.Result, len(all))
		for j, r := range all {
			fresh[j] = r.Clone()
		}
		cold := dataset.NewRepository(fresh)
		b.StartTimer()
		cold.Precompute()
		if eps := cold.EPs(); len(eps) != len(all) {
			b.Fatalf("got %d EPs", len(eps))
		}
	}
}

// BenchmarkRepositoryMetricsWarm measures the steady-state cost the
// analyses actually pay: reading three full metric columns off the
// warm cache.
func BenchmarkRepositoryMetricsWarm(b *testing.B) {
	rp := benchCorpus(b)
	rp.Precompute()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(rp.EPs())+len(rp.OverallEEs())+len(rp.IdleFractions()) != 3*rp.Len() {
			b.Fatal("short column")
		}
	}
}

// BenchmarkSortByEP times the key-column sort over the full corpus.
func BenchmarkSortByEP(b *testing.B) {
	rp := benchCorpus(b)
	rp.Precompute()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sorted := rp.SortByEP(); len(sorted) != rp.Len() {
			b.Fatal("short sort")
		}
	}
}

// BenchmarkPlacement times the EP-aware planner on a 100-server fleet.
func BenchmarkPlacement(b *testing.B) {
	rp := benchCorpus(b)
	servers := rp.YearRange(2009, 2016).All()[:100]
	fleet := make([]*repro.PlacementProfile, 0, len(servers))
	var capacity float64
	for _, r := range servers {
		p, err := repro.NewPlacementProfile(r.ID, r.MustCurve())
		if err != nil {
			b.Fatal(err)
		}
		fleet = append(fleet, p)
		capacity += p.MaxOps
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.PlaceProportional(fleet, 0.5*capacity, repro.PlacementOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Extension benchmarks (not in the paper): the low-utilization
// proportionality gap, cluster-wide EP by policy, the Eq. 1 quadrature
// ablation, trace replay, and the transaction-level workload engine.

func BenchmarkExtE1GapTrend(b *testing.B) {
	rp := benchCorpus(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = report.FigE1GapTrend(rp)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("extE1", out)
}

func BenchmarkExtE2ClusterPolicies(b *testing.B) {
	rp := benchCorpus(b)
	var fleet []*repro.PlacementProfile
	for _, r := range rp.YearRange(2012, 2016).All()[:12] {
		p, err := repro.NewPlacementProfile(r.ID, r.MustCurve())
		if err != nil {
			b.Fatal(err)
		}
		fleet = append(fleet, p)
	}
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = report.FigE2ClusterPolicies(fleet)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("extE2", out)
}

func BenchmarkExtE3Quadrature(b *testing.B) {
	rp := benchCorpus(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = report.FigE3QuadratureAblation(rp)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("extE3", out)
}

func BenchmarkExtWorkloadInterval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := repro.SimulateWorkload(repro.WorkloadConfig{
			Seed: int64(i), CapacityOpsPerSec: 5e5, TargetRate: 3.5e5, DurationSeconds: 60,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullReportWarm times report.Full — sweeps included — over a
// pre-generated (cache-warm) corpus: the steady-state cost of
// regenerating the paper's whole evaluation section.
func BenchmarkFullReportWarm(b *testing.B) {
	rp := benchCorpus(b)
	opts := report.Options{Sweeps: true, SweepSeconds: 20, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := report.Full(rp, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullReportCold includes corpus generation and first-touch
// cache fills — the specreport end-to-end cost.
func BenchmarkFullReportCold(b *testing.B) {
	opts := report.Options{Sweeps: true, SweepSeconds: 20, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rp, err := synth.NewRepository(synth.Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := report.Full(rp.Valid(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

// Fleet-scale benchmarks: cluster composition, fleet generation, and
// the corpus codecs at the 10k-100k server scale the ROADMAP targets.
// Before/after numbers for the fast-path rewrite live in
// BENCH_fleet.json.

// benchFleetProfiles builds an n-server fleet by replicating the
// 2009-2016 corpus profiles.
func benchFleetProfiles(b *testing.B, n int) []*repro.PlacementProfile {
	b.Helper()
	rp := benchCorpus(b)
	servers := rp.YearRange(2009, 2016).All()
	fleet := make([]*repro.PlacementProfile, n)
	for i := 0; i < n; i++ {
		r := servers[i%len(servers)]
		p, err := repro.NewPlacementProfile(fmt.Sprintf("%s-%d", r.ID, i), r.MustCurve())
		if err != nil {
			b.Fatal(err)
		}
		fleet[i] = p
	}
	return fleet
}

func benchmarkFleetCompose(b *testing.B, n int) {
	fleet := benchFleetProfiles(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg, err := repro.ComposeCluster(fleet, repro.PolicyPack)
		if err != nil {
			b.Fatal(err)
		}
		if agg.EP() <= 0 {
			b.Fatal("non-positive cluster EP")
		}
	}
}

func BenchmarkFleetCompose10k(b *testing.B)  { benchmarkFleetCompose(b, 10_000) }
func BenchmarkFleetCompose100k(b *testing.B) { benchmarkFleetCompose(b, 100_000) }

func BenchmarkFleetCompare1k(b *testing.B) {
	fleet := benchFleetProfiles(b, 1_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.CompareClusterPolicies(fleet); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetGenerate10k times the sharded fleet synthesizer.
func BenchmarkFleetGenerate10k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rs, err := repro.GenerateFleet(repro.FleetConfig{Seed: 1, Servers: 10_000})
		if err != nil {
			b.Fatal(err)
		}
		if len(rs) != 10_000 {
			b.Fatalf("got %d servers", len(rs))
		}
	}
}

// benchmarkFleetRead times parsing a 10k-server corpus from one codec.
func benchmarkFleetRead(b *testing.B,
	write func(io.Writer, []*repro.Result) error,
	read func(io.Reader) ([]*repro.Result, error)) {
	b.Helper()
	rs, err := repro.GenerateFleet(repro.FleetConfig{Seed: 1, Servers: 10_000})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := write(&buf, rs); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := read(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != len(rs) {
			b.Fatalf("got %d results", len(got))
		}
	}
}

func BenchmarkFleetReadBinary10k(b *testing.B) {
	benchmarkFleetRead(b, repro.WriteBinary, repro.ReadBinary)
}

func BenchmarkFleetReadCSV10k(b *testing.B) {
	benchmarkFleetRead(b, repro.WriteCSV, repro.ReadCSV)
}

func BenchmarkFleetReadJSON10k(b *testing.B) {
	benchmarkFleetRead(b, repro.WriteJSON, repro.ReadJSON)
}

func BenchmarkFleetWriteBinary10k(b *testing.B) {
	rs, err := repro.GenerateFleet(repro.FleetConfig{Seed: 1, Servers: 10_000})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := repro.WriteBinary(&buf, rs); err != nil {
			b.Fatal(err)
		}
	}
}
