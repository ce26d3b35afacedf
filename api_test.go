package repro_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro"
)

// TestFacadeEndToEnd drives the whole public API the way the README's
// quickstart does: corpus → metrics → analyses → hardware experiment →
// placement → traces, all through the root package.
func TestFacadeEndToEnd(t *testing.T) {
	corpus, err := repro.GenerateCorpus(repro.SynthConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	valid := corpus.Valid()
	if valid.Len() != 477 {
		t.Fatalf("valid = %d", valid.Len())
	}

	// Codec round trip through the facade.
	var buf bytes.Buffer
	if err := repro.WriteCSV(&buf, valid.All()); err != nil {
		t.Fatal(err)
	}
	back, err := repro.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 477 {
		t.Fatalf("round trip = %d", len(back))
	}
	for _, r := range back[:20] {
		if err := repro.Validate(r); err != nil {
			t.Fatalf("round-tripped result invalid: %v", err)
		}
	}

	// Metric kernel.
	best := valid.SortByEP()[valid.Len()-1]
	curve := best.MustCurve()
	if math.Abs(curve.EP()-1.05) > 1e-9 {
		t.Errorf("best EP = %v", curve.EP())
	}
	manual, err := repro.NewStandardCurve(50,
		[]float64{80, 110, 140, 170, 200, 230, 260, 290, 320, 350},
		[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil {
		t.Fatal(err)
	}
	if manual.EP() <= 0 {
		t.Error("manual curve EP")
	}
	if got := len(repro.StandardUtilizations()); got != 11 {
		t.Errorf("standard grid = %d", got)
	}

	// Analyses.
	trend, err := repro.YearlyTrend(valid)
	if err != nil {
		t.Fatal(err)
	}
	if len(trend) != 13 {
		t.Errorf("trend years = %d", len(trend))
	}
	if reg, err := repro.FitIdleRegression(valid); err != nil || reg.Fit.A < 1 {
		t.Errorf("regression: %+v, %v", reg, err)
	}
	if corr, err := repro.ComputeCorrelations(valid); err != nil || corr.EPvsOverallEE < 0.5 {
		t.Errorf("correlations: %+v, %v", corr, err)
	}
	if env := repro.PowerEnvelope(valid); len(env.Lower) != 11 {
		t.Error("envelope")
	}
	// Table I's seven buckets are always present; off-table ratios can
	// add more when one crosses the count threshold.
	if buckets := repro.MemoryPerCore(valid, 10); len(buckets) < 7 {
		t.Errorf("MPC buckets = %d", len(buckets))
	}
	if async := repro.Asynchronization(valid); async.TopN != 47 {
		t.Errorf("async TopN = %d", async.TopN)
	}
	if groups := repro.ByNodes(valid, 3); len(groups) < 4 {
		t.Error("node groups")
	}
	if fams := repro.ByFamily(valid); len(fams) < 5 {
		t.Error("families")
	}

	// Hardware experiment through the facade.
	servers := repro.TableIIServers()
	if len(servers) != 4 {
		t.Fatal("Table II servers")
	}
	pts, err := repro.Sweep(servers[1],
		[]repro.MemoryConfig{{TotalGB: 16, DIMMSizeGB: 4}},
		[]repro.Governor{repro.PowerSave(), repro.Performance(), repro.OnDemand()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 || pts[0].OverallEE >= pts[1].OverallEE {
		t.Errorf("sweep: powersave should lose to performance: %+v", pts)
	}
	runner, err := repro.NewBenchRunner(repro.BenchConfig{
		Server:          servers[3],
		Governor:        repro.UserSpace(1.8),
		IntervalSeconds: 10,
		Fidelity:        repro.FidelityTransaction,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Levels[9].LatencyP99 <= 0 {
		t.Error("transaction fidelity latency missing")
	}

	// Placement and clusters.
	fleet := make([]*repro.PlacementProfile, 0, 20)
	var capacity float64
	for _, r := range valid.YearRange(2012, 2016).All()[:20] {
		p, err := repro.NewPlacementProfile(r.ID, r.MustCurve())
		if err != nil {
			t.Fatal(err)
		}
		fleet = append(fleet, p)
		capacity += p.MaxOps
	}
	plan, err := repro.PlaceProportional(fleet, 0.4*capacity, repro.PlacementOptions{})
	if err != nil || !plan.Satisfied {
		t.Fatalf("placement: %v", err)
	}
	if _, err := repro.BuildClusters(fleet, 0.1); err != nil {
		t.Fatal(err)
	}
	if cmp, err := repro.CompareClusterPolicies(fleet); err != nil || len(cmp.Rows) != 4 {
		t.Fatalf("cluster comparison: %v", err)
	}
	if sp, err := repro.ClusterScalingStudy(fleet[0], []int{1, 4}, repro.PolicyPackPowerOff); err != nil || len(sp) != 2 {
		t.Fatalf("scaling study: %v", err)
	}

	// Traces.
	tr, err := repro.DiurnalTrace(repro.DiurnalConfig{Seed: 1, Days: 1, BaseOps: 0.4 * capacity, DailySwing: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	members := repro.PackOrder(fleet)
	for _, policy := range []repro.ClusterPolicy{repro.PolicySpread, repro.PolicyPack, repro.PolicyPackPowerOff, repro.PolicyOptimalRegion} {
		res, err := repro.SimulateFleet(repro.FleetSimConfig{Members: members, Policy: policy, Trace: tr})
		if err != nil || res.EnergyKWh <= 0 {
			t.Fatalf("fleet simulation under %v: %v", policy, err)
		}
	}

	// Workload.
	m, err := repro.SimulateWorkload(repro.WorkloadConfig{
		Seed: 1, CapacityOpsPerSec: 1e5, TargetRate: 5e4, DurationSeconds: 20,
	})
	if err != nil || m.CompletedTx == 0 {
		t.Fatalf("workload: %v", err)
	}
	if len(repro.DefaultTxMix()) != 6 {
		t.Error("tx mix")
	}

	// The whole evaluation document renders.
	doc, err := repro.FullReport(valid, repro.ReportOptions{Sweeps: false})
	if err != nil || len(doc) < 10000 {
		t.Fatalf("full report: %v (%d bytes)", err, len(doc))
	}
}

func TestFacadeExtensions(t *testing.T) {
	corpus, err := repro.GenerateCorpus(repro.SynthConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	valid := corpus.Valid()

	// The invariant registry through the facade: the seed-1 corpus
	// passes, with one finding per registered invariant.
	rep, err := repro.Verify(1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("seed-1 corpus failed invariants %v", rep.FailureNames())
	}
	invs := repro.VerifyInvariants()
	if len(rep.Findings) != len(invs) {
		t.Fatalf("%d findings for %d registered invariants", len(rep.Findings), len(invs))
	}
	for i, f := range rep.Findings {
		if f.Name != invs[i].Name {
			t.Errorf("finding %d is %s, want %s", i, f.Name, invs[i].Name)
		}
	}

	// Fit + what-if through the facade.
	var model repro.ServerConfig
	fitted := false
	for _, r := range valid.SingleNode().YearRange(2012, 2016).All() {
		if m, err := repro.FitServer(r); err == nil {
			model, fitted = m, true
			break
		}
	}
	if !fitted {
		t.Fatal("no fittable server")
	}
	if model.TotalCores() == 0 {
		t.Error("fitted model empty")
	}

	// Projection and gap trend.
	proj, err := repro.ProjectTrends(valid, 2020)
	if err != nil || proj.Year != 2020 {
		t.Fatalf("projection: %v", err)
	}
	gaps, err := repro.ProportionalityGapByYear(valid)
	if err != nil || len(gaps) == 0 {
		t.Fatalf("gap trend: %v", err)
	}
	rates, err := repro.ImprovementRates(valid, [][2]int{{2007, 2012}})
	if err != nil || len(rates) != 1 {
		t.Fatalf("rates: %v", err)
	}

	// KnightShift through the facade.
	servers := valid.SortByEP()
	primary, err := repro.NewPlacementProfile("p", servers[50].MustCurve())
	if err != nil {
		t.Fatal(err)
	}
	knightCurve, err := repro.NewStandardCurve(3,
		[]float64{5, 7, 9, 11, 13, 15, 17, 19, 21, 23},
		[]float64{1e4, 2e4, 3e4, 4e4, 5e4, 6e4, 7e4, 8e4, 9e4, 1e5})
	if err != nil {
		t.Fatal(err)
	}
	knight, err := repro.NewPlacementProfile("k", knightCurve)
	if err != nil {
		t.Fatal(err)
	}
	combined, err := repro.KnightShift(primary, knight, true)
	if err != nil {
		t.Fatal(err)
	}
	if combined.EP() <= primary.EP {
		t.Errorf("KnightShift EP %.3f should beat the primary's %.3f", combined.EP(), primary.EP)
	}

	// Disclosure + cost round out the surface.
	if _, err := repro.Disclosure(servers[50]); err != nil {
		t.Fatal(err)
	}
	bill, err := repro.DefaultTariff().BillOf(10)
	if err != nil || bill.USD <= 0 {
		t.Fatalf("cost: %v", err)
	}

	// Time-varying intensity surface: shapes, CSV ingestion, alignment,
	// the 2-D fold, and the embodied-carbon default.
	prof, err := repro.DiurnalIntensity(repro.IntensityConfig{})
	if err != nil || len(prof.Rates) != 24 {
		t.Fatalf("DiurnalIntensity: %v (%d rates)", err, len(prof.Rates))
	}
	if duck, err := repro.DuckCurveIntensity(repro.IntensityConfig{}); err != nil || duck.Mean() >= prof.Mean() {
		t.Fatalf("DuckCurveIntensity: %v", err)
	}
	csvProf, err := repro.ReadIntensityCSV(strings.NewReader("0.2\n0.6\n"), 3600)
	if err != nil || csvProf.Mean() != 0.4 {
		t.Fatalf("ReadIntensityCSV: %v", err)
	}
	tr, err := repro.DiurnalTrace(repro.DiurnalConfig{Seed: 1, Days: 1, StepSeconds: 900, BaseOps: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	aligned, err := prof.Align(len(tr.DemandOps), tr.StepSeconds)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := repro.CompressTrace2D(tr, 32, 4, aligned)
	if err != nil || h2.Cells() == 0 {
		t.Fatalf("CompressTrace2D: %v", err)
	}
	if emb := repro.DefaultEmbodiedCarbon(); emb.KgCO2e <= 0 || emb.LifetimeHours <= 0 {
		t.Fatalf("DefaultEmbodiedCarbon: %+v", emb)
	}
}
