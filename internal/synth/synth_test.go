package synth

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/microarch"
	"repro/internal/stats"
	"repro/internal/verify/tol"
)

// corpus caches one generated corpus per seed for the whole test file.
var corpusCache = map[int64]*dataset.Repository{}

func corpus(t *testing.T, seed int64) *dataset.Repository {
	t.Helper()
	if rp, ok := corpusCache[seed]; ok {
		return rp
	}
	rp, err := NewRepository(Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	corpusCache[seed] = rp
	return rp
}

func TestCorpusCounts(t *testing.T) {
	rp := corpus(t, 1)
	if rp.Len() != TotalSubmissions {
		t.Errorf("total = %d, want %d", rp.Len(), TotalSubmissions)
	}
	if got := rp.Valid().Len(); got != ValidCount {
		t.Errorf("valid = %d, want %d", got, ValidCount)
	}
	if got := rp.NonCompliant().Len(); got != NonCompliantCount {
		t.Errorf("non-compliant = %d, want %d", got, NonCompliantCount)
	}
	if got := rp.Valid().YearMismatched().Len(); got != YearMismatchCount {
		t.Errorf("year mismatches = %d, want %d", got, YearMismatchCount)
	}
}

func TestYearPlanExact(t *testing.T) {
	byYear := groupBy(corpus(t, 1).Valid(), hwYear)
	for year, want := range yearPlan {
		if got := len(byYear[year]); got != want {
			t.Errorf("year %d: %d servers, want %d", year, got, want)
		}
	}
	if len(byYear) != len(yearPlan) {
		t.Errorf("years = %d, want %d", len(byYear), len(yearPlan))
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	a, err := Generate(Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var bufA, bufB bytes.Buffer
	if err := dataset.WriteCSV(&bufA, a); err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteCSV(&bufB, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Error("same seed produced different corpora")
	}
	c, err := Generate(Config{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	var bufC bytes.Buffer
	if err := dataset.WriteCSV(&bufC, c); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(bufA.Bytes(), bufC.Bytes()) {
		t.Error("different seeds produced identical corpora")
	}
}

func TestEPYearTrend(t *testing.T) {
	byYear := groupBy(corpus(t, 1).Valid(), hwYear)
	mean := func(year int) float64 {
		g := dataset.NewRepository(byYear[year])
		return stats.MustMean(g.EPs())
	}
	// Paper Fig. 3 headline values with a tolerance band.
	targets := map[int]float64{
		2005: 0.30, 2008: 0.37, 2009: 0.55, 2011: 0.66, 2012: 0.82, 2016: 0.84,
	}
	for year, want := range targets {
		if got := mean(year); math.Abs(got-want) > 0.06 {
			t.Errorf("year %d mean EP = %.3f, want %.2f ± 0.06", year, got, want)
		}
	}
	// The two tock steps (§III.A): 2008→2009 ≈ +48.65%, 2011→2012 ≈ +24.24%.
	step1 := mean(2009)/mean(2008) - 1
	step2 := mean(2012)/mean(2011) - 1
	if step1 < 0.35 || step1 > 0.68 {
		t.Errorf("2008→2009 EP step = %+.1f%%, want ≈ +48.65%%", 100*step1)
	}
	if step2 < 0.15 || step2 > 0.35 {
		t.Errorf("2011→2012 EP step = %+.1f%%, want ≈ +24.24%%", 100*step2)
	}
	// The 2013/2014 dip below 2012, recovering by 2016.
	if !(mean(2013) < mean(2012) && mean(2014) < mean(2012) && mean(2016) > mean(2014)) {
		t.Errorf("stagnation dip shape broken: 2012=%.3f 2013=%.3f 2014=%.3f 2016=%.3f",
			mean(2012), mean(2013), mean(2014), mean(2016))
	}
	// §III.A: despite the dip in averages, the 2014 median still rises
	// over 2013's.
	median := func(year int) float64 {
		g := dataset.NewRepository(byYear[year])
		m, err := stats.Median(g.EPs())
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if !(median(2014) > median(2013)) {
		t.Errorf("median EP 2014 (%.3f) should rise over 2013 (%.3f)", median(2014), median(2013))
	}
}

func TestEPExtremes(t *testing.T) {
	valid := corpus(t, 1).Valid()
	sorted := valid.SortByEP()
	lowest, highest := sorted[0], sorted[len(sorted)-1]
	if math.Abs(lowest.EP()-0.18) > 1e-9 || lowest.HWAvailYear != 2008 {
		t.Errorf("min EP = %.4f in %d, want exactly 0.18 in 2008", lowest.EP(), lowest.HWAvailYear)
	}
	if math.Abs(highest.EP()-1.05) > 1e-9 || highest.HWAvailYear != 2012 {
		t.Errorf("max EP = %.4f in %d, want exactly 1.05 in 2012", highest.EP(), highest.HWAvailYear)
	}
	// 99.58% below 1.0 — exactly two servers at or above (1.02 and 1.05).
	atLeastOne := 0
	for _, r := range valid.All() {
		if r.EP() >= 1.0 {
			atLeastOne++
		}
	}
	if atLeastOne != 2 {
		t.Errorf("%d servers with EP ≥ 1.0, want exactly 2", atLeastOne)
	}
	// 2016 floor (§III.A): minimum EP 0.73.
	for _, r := range groupBy(corpus(t, 1).Valid(), hwYear)[2016] {
		if r.EP() < 0.73-1e-9 {
			t.Errorf("2016 server %s EP %.3f below the 0.73 floor", r.ID, r.EP())
		}
	}
}

func TestEPCDFBuckets(t *testing.T) {
	eps := corpus(t, 1).Valid().EPs()
	e, err := stats.NewECDF(eps)
	if err != nil {
		t.Fatal(err)
	}
	band1 := e.Between(0.6, 0.7) // paper: 25.21%
	band2 := e.Between(0.8, 0.9) // paper: 17.44%
	if band1 < 0.15 || band1 > 0.30 {
		t.Errorf("EP mass in [0.6,0.7) = %.1f%%, want ≈ 25%%", 100*band1)
	}
	if band2 < 0.12 || band2 > 0.24 {
		t.Errorf("EP mass in [0.8,0.9) = %.1f%%, want ≈ 17%%", 100*band2)
	}
}

func TestIdlePowerRegression(t *testing.T) {
	valid := corpus(t, 1).Valid()
	eps := valid.EPs()
	idles := make([]float64, 0, valid.Len())
	for _, r := range valid.All() {
		idles = append(idles, r.MustCurve().IdleFraction())
	}
	r, err := stats.Pearson(eps, idles)
	if err != nil {
		t.Fatal(err)
	}
	if r > tol.CorrEPIdleMax || r < tol.CorrEPIdleMin {
		t.Errorf("corr(EP, idle) = %.3f, want ≈ %v", r, tol.CorrEPIdleTarget)
	}
	fit, err := stats.ExponentialRegression(idles, eps)
	if err != nil {
		t.Fatal(err)
	}
	if fit.A < tol.Eq2AMin || fit.A > tol.Eq2AMax {
		t.Errorf("Eq.2 A = %.4f, want ≈ %v", fit.A, tol.Eq2ATarget)
	}
	if fit.B > tol.Eq2BMax || fit.B < tol.Eq2BMin {
		t.Errorf("Eq.2 B = %.3f, want ≈ %v", fit.B, tol.Eq2BTarget)
	}
	if fit.R2 < tol.Eq2MinR2 || fit.R2 > tol.Eq2MaxR2 {
		t.Errorf("Eq.2 R² = %.3f, want ≈ %v", fit.R2, tol.Eq2R2Target)
	}
}

func TestEPEECorrelation(t *testing.T) {
	valid := corpus(t, 1).Valid()
	r, err := stats.Pearson(valid.EPs(), valid.OverallEEs())
	if err != nil {
		t.Fatal(err)
	}
	if r < tol.CorrEPEEMin || r > tol.CorrEPEEMax {
		t.Errorf("corr(EP, overall EE) = %.3f, want ≈ %v", r, tol.CorrEPEETarget)
	}
}

// peakSpots tallies every peak-efficiency utilization spot (ties count
// separately, matching the paper's 478 spots for 477 servers).
func peakSpots(t *testing.T, results []*dataset.Result) (map[float64]int, int) {
	t.Helper()
	count := make(map[float64]int)
	total := 0
	for _, r := range results {
		_, utils := r.MustCurve().PeakEE()
		for _, u := range utils {
			count[u]++
			total++
		}
	}
	return count, total
}

func TestPeakSpotDistribution(t *testing.T) {
	valid := corpus(t, 1).Valid()
	count, total := peakSpots(t, valid.All())
	if total != ValidCount+1 {
		t.Errorf("peak spots = %d, want %d (one server ties at two levels)", total, ValidCount+1)
	}
	share := func(u float64) float64 { return float64(count[u]) / float64(ValidCount) }
	// Paper §IV.A: 69.25% @100, 13.81% @70, 11.72% @80, 3.35% @90, 1.88% @60.
	if s := share(1.0); s < 0.66 || s > 0.75 {
		t.Errorf("share @100%% = %.1f%%, want ≈ 69%%", 100*s)
	}
	if s := share(0.8); s < 0.08 || s > 0.16 {
		t.Errorf("share @80%% = %.1f%%, want ≈ 12%%", 100*s)
	}
	if s := share(0.7); s < 0.08 || s > 0.17 {
		t.Errorf("share @70%% = %.1f%%, want ≈ 14%%", 100*s)
	}
	if s := share(0.9); s < 0.02 || s > 0.06 {
		t.Errorf("share @90%% = %.1f%%, want ≈ 3.4%%", 100*s)
	}
	if s := share(0.6); s < 0.005 || s > 0.035 {
		t.Errorf("share @60%% = %.1f%%, want ≈ 1.9%%", 100*s)
	}
}

func TestPeakSpotBeforeAndAfter2013(t *testing.T) {
	valid := corpus(t, 1).Valid()
	early := valid.YearRange(2004, 2012)
	late := valid.YearRange(2013, 2016)
	countE, totalE := peakSpots(t, early.All())
	countL, totalL := peakSpots(t, late.All())
	// Paper: 75.71% @100 in 2004-2012; 23.21% @100, 35.71% @80,
	// 26.79% @70 in 2013-2016.
	if s := float64(countE[1.0]) / float64(totalE); s < 0.76 || s > 0.90 {
		t.Errorf("2004-12 share @100%% = %.1f%%, want ≈ 76-85%% (the paper's 75.71%% is inconsistent with its own overall split)", 100*s)
	}
	if s := float64(countL[1.0]) / float64(totalL); s < 0.17 || s > 0.30 {
		t.Errorf("2013-16 share @100%% = %.1f%%, want ≈ 23%%", 100*s)
	}
	if s := float64(countL[0.8]) / float64(totalL); s < 0.28 || s > 0.44 {
		t.Errorf("2013-16 share @80%% = %.1f%%, want ≈ 36%%", 100*s)
	}
	if s := float64(countL[0.7]) / float64(totalL); s < 0.19 || s > 0.36 {
		t.Errorf("2013-16 share @70%% = %.1f%%, want ≈ 27%%", 100*s)
	}
	// Before 2010 every server peaks at full load.
	pre := valid.YearRange(2004, 2009)
	countP, totalP := peakSpots(t, pre.All())
	if countP[1.0] != totalP {
		t.Errorf("pre-2010: %d of %d spots at 100%%", countP[1.0], totalP)
	}
	// 2016 (§IV.A): 3 @100, 10 @80, 5 @70.
	c16, _ := peakSpots(t, dataset.NewRepository(groupBy(valid, hwYear)[2016]).All())
	if c16[1.0] < 2 || c16[1.0] > 5 || c16[0.8] < 8 || c16[0.8] > 12 || c16[0.7] < 3 || c16[0.7] > 7 {
		t.Errorf("2016 spots = %v, want ≈ 3 @100 / 10 @80 / 5 @70", c16)
	}
}

func TestTop10PercentAsymmetry(t *testing.T) {
	valid := corpus(t, 1).Valid()
	n := valid.Len() / 10
	byEP := valid.SortByEP()
	topEP := byEP[len(byEP)-n:]
	from2012 := 0
	topEPSet := make(map[string]bool, n)
	for _, r := range topEP {
		topEPSet[r.ID] = true
		if r.HWAvailYear == 2012 {
			from2012++
		}
	}
	// Paper §IV.B: 91.7% of the top EP decile is from 2012.
	if share := float64(from2012) / float64(n); share < 0.78 || share > 0.98 {
		t.Errorf("top-EP decile from 2012 = %.1f%%, want ≈ 92%%", 100*share)
	}
	byEE := valid.All()
	sort.Slice(byEE, func(i, j int) bool { return byEE[i].OverallEE() < byEE[j].OverallEE() })
	topEE := byEE[len(byEE)-n:]
	overlap, ee2012, ee1516 := 0, 0, 0
	for _, r := range topEE {
		if topEPSet[r.ID] {
			overlap++
		}
		if r.HWAvailYear == 2012 {
			ee2012++
		}
		if r.HWAvailYear >= 2015 {
			ee1516++
		}
	}
	// All 2015/2016 servers are in the top EE decile.
	want1516 := len(groupBy(valid, hwYear)[2015]) + len(groupBy(valid, hwYear)[2016])
	if ee1516 != want1516 {
		t.Errorf("2015+2016 servers in top-EE decile = %d, want all %d", ee1516, want1516)
	}
	// Only ~16.7% of the top EE decile is from 2012.
	if share := float64(ee2012) / float64(n); share > 0.30 {
		t.Errorf("top-EE decile from 2012 = %.1f%%, want ≈ 17%%", 100*share)
	}
	// Only ~14.6% of top-EP servers are also top-EE.
	if share := float64(overlap) / float64(n); share > 0.35 {
		t.Errorf("top-EP ∩ top-EE = %.1f%%, want ≈ 15%%", 100*share)
	}
}

func TestPopulationPlans(t *testing.T) {
	valid := corpus(t, 1).Valid()
	byNodes := groupBy(valid, func(r *dataset.Result) int { return r.Nodes })
	wantNodes := map[int]int{1: 403, 2: 38, 4: 20, 8: 6, 16: 10}
	for nodes, want := range wantNodes {
		if got := len(byNodes[nodes]); got != want {
			t.Errorf("nodes=%d: %d servers, want %d", nodes, got, want)
		}
	}
	single := valid.SingleNode()
	byChips := groupBy(single, func(r *dataset.Result) int { return r.Chips })
	for _, row := range singleNodeChipPlan {
		if got := len(byChips[row.Chips]); got != row.Count {
			t.Errorf("single-node chips=%d: %d servers, want %d", row.Chips, got, row.Count)
		}
	}
	for _, r := range valid.All() {
		if r.Nodes > 1 && r.FormFactor != dataset.FormMultiNode {
			t.Errorf("%s: multi-node result with form factor %v", r.ID, r.FormFactor)
		}
	}
}

func TestMemoryPerCoreHistogram(t *testing.T) {
	valid := corpus(t, 1).Valid()
	counts := make(map[float64]int)
	for _, r := range valid.All() {
		mpc := math.Round(r.MemoryPerCore()*100) / 100
		counts[mpc]++
	}
	for _, b := range mpcBuckets {
		if got := counts[b.GBPerCore]; got != b.Count {
			t.Errorf("MPC %.2f: %d servers, want %d (Table I)", b.GBPerCore, got, b.Count)
		}
	}
}

func TestMPCBucketCouplings(t *testing.T) {
	// Fig. 17: among the Table I buckets, 1.5 GB/core has the best mean
	// EP and 1.78 GB/core the best mean EE.
	valid := corpus(t, 1).Valid()
	groups := make(map[float64][]*dataset.Result)
	for _, r := range valid.All() {
		mpc := math.Round(r.MemoryPerCore()*100) / 100
		for _, b := range mpcBuckets {
			if mpc == b.GBPerCore {
				groups[mpc] = append(groups[mpc], r)
			}
		}
	}
	bestEP, bestEE := 0.0, 0.0
	var bestEPAt, bestEEAt float64
	for mpc, rs := range groups {
		g := dataset.NewRepository(rs)
		if m := stats.MustMean(g.EPs()); m > bestEP {
			bestEP, bestEPAt = m, mpc
		}
		if m := stats.MustMean(g.OverallEEs()); m > bestEE {
			bestEE, bestEEAt = m, mpc
		}
	}
	if bestEPAt != 1.5 {
		t.Errorf("best mean EP at %.2f GB/core, want 1.5", bestEPAt)
	}
	if bestEEAt != 1.78 {
		t.Errorf("best mean EE at %.2f GB/core, want 1.78", bestEEAt)
	}
}

func TestEconomiesOfScale(t *testing.T) {
	valid := corpus(t, 1).Valid()
	byNodes := groupBy(valid, func(r *dataset.Result) int { return r.Nodes })
	medEP := func(nodes int) float64 {
		g := dataset.NewRepository(byNodes[nodes])
		m, err := stats.Median(g.EPs())
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	// Fig. 13: median EP rises monotonically with node count (small
	// slack for the 6-server 8-node group).
	if !(medEP(2) > medEP(1)) {
		t.Errorf("median EP: 2 nodes %.3f should beat 1 node %.3f", medEP(2), medEP(1))
	}
	if !(medEP(16) > medEP(1)+0.03) {
		t.Errorf("median EP: 16 nodes %.3f should clearly beat 1 node %.3f", medEP(16), medEP(1))
	}
	if medEP(4) < medEP(2)-0.04 {
		t.Errorf("median EP: 4 nodes %.3f far below 2 nodes %.3f", medEP(4), medEP(2))
	}
	// Fig. 14: among single-node servers, 2 chips lead on mean EP and
	// EE; 4 and 8 chips fall off.
	byChips := groupBy(valid.SingleNode(), func(r *dataset.Result) int { return r.Chips })
	meanEP := func(chips int) float64 {
		return stats.MustMean(dataset.NewRepository(byChips[chips]).EPs())
	}
	meanEE := func(chips int) float64 {
		return stats.MustMean(dataset.NewRepository(byChips[chips]).OverallEEs())
	}
	if !(meanEP(2) > meanEP(4) && meanEP(2) > meanEP(8)) {
		t.Errorf("mean EP by chips: 2=%.3f should beat 4=%.3f and 8=%.3f",
			meanEP(2), meanEP(4), meanEP(8))
	}
	if !(meanEE(2) > meanEE(4) && meanEE(4) > meanEE(8)) {
		t.Errorf("mean EE by chips: want 2 > 4 > 8, got %.0f / %.0f / %.0f",
			meanEE(2), meanEE(4), meanEE(8))
	}
}

func TestAnchorsPresent(t *testing.T) {
	valid := corpus(t, 1).Valid()
	// Exact-EP anchors, located by EP value.
	findEP := func(ep float64, year int) *dataset.Result {
		for _, r := range valid.All() {
			if r.HWAvailYear == year && math.Abs(r.EP()-ep) < 1e-9 {
				return r
			}
		}
		return nil
	}
	// The Fig. 1 sample server: 2016, EP 1.02, overall score 12212.
	sample := findEP(1.02, 2016)
	if sample == nil {
		t.Fatal("sample 2016 server (EP 1.02) missing")
	}
	if math.Abs(sample.OverallEE()-12212) > 40 {
		t.Errorf("sample server score = %.0f, want ≈ 12212", sample.OverallEE())
	}
	c := sample.MustCurve()
	norm := c.NormalizedEE()
	// NormalizedEE index 0 is active idle; index i is the i·10%% level.
	if norm[4] < 1.0 { // 1.0× of full-load efficiency before 40%
		t.Errorf("sample server normalized EE at 40%% = %.3f, want ≥ 1", norm[4])
	}
	if norm[3] < 0.8 {
		t.Errorf("sample server normalized EE at 30%% = %.3f, want ≥ 0.8", norm[3])
	}
	// The double-crossing 2014 server.
	dc := findEP(0.86, 2014)
	if dc == nil {
		t.Fatal("double-cross 2014 server (EP 0.86) missing")
	}
	xs := dc.MustCurve().IdealIntersections()
	if len(xs) != 2 || !(xs[0] > 0.5 && xs[0] < 0.6 && xs[1] > 0.7 && xs[1] < 0.8) {
		t.Errorf("double-cross intersections = %v, want two in (0.5,0.6) and (0.7,0.8)", xs)
	}
	// Equal EP, different shape: 2011 crosses the ideal line, 2016 does
	// not (§III.C).
	cross := findEP(0.75, 2011)
	nocross := findEP(0.75, 2016)
	if cross == nil || nocross == nil {
		t.Fatal("EP 0.75 anchor pair missing")
	}
	if n := len(cross.MustCurve().IdealIntersections()); n < 1 {
		t.Errorf("2011 EP 0.75 server should cross the ideal line, got %d crossings", n)
	}
	if n := len(nocross.MustCurve().IdealIntersections()); n != 0 {
		t.Errorf("2016 EP 0.75 server should not cross the ideal line, got %d crossings", n)
	}
}

func TestTieServer(t *testing.T) {
	valid := corpus(t, 1).Valid()
	var ties []*dataset.Result
	for _, r := range valid.All() {
		if _, utils := r.MustCurve().PeakEE(); len(utils) == 2 {
			ties = append(ties, r)
		}
	}
	if len(ties) != 1 {
		t.Fatalf("%d servers with tied peak spots, want exactly 1", len(ties))
	}
	tie := ties[0]
	if tie.HWAvailYear != 2011 {
		t.Errorf("tie server year = %d, want 2011", tie.HWAvailYear)
	}
	_, utils := tie.MustCurve().PeakEE()
	if utils[0] != 0.8 || utils[1] != 0.9 {
		t.Errorf("tie spots = %v, want [0.8 0.9]", utils)
	}
}

func TestTowerOutlier(t *testing.T) {
	valid := corpus(t, 1).Valid()
	var tower *dataset.Result
	for _, r := range groupBy(valid, hwYear)[2014] {
		if r.CPUModel == "Intel Core i5-4570" {
			tower = r
			break
		}
	}
	if tower == nil {
		t.Fatal("2014 tower outlier missing")
	}
	if tower.FormFactor != dataset.FormTower {
		t.Errorf("outlier form factor = %v, want Tower", tower.FormFactor)
	}
	if math.Abs(tower.EP()-0.32) > 1e-9 {
		t.Errorf("outlier EP = %.4f, want 0.32", tower.EP())
	}
	if math.Abs(tower.OverallEE()-1469) > 20 {
		t.Errorf("outlier score = %.0f, want ≈ 1469", tower.OverallEE())
	}
	// It drags the 2014 minima below 2013's (Fig. 3/4).
	ee2013 := dataset.NewRepository(groupBy(valid, hwYear)[2013]).OverallEEs()
	min2013, _ := stats.Min(ee2013)
	if tower.OverallEE() >= min2013 {
		t.Errorf("outlier EE %.0f should undercut 2013's minimum %.0f", tower.OverallEE(), min2013)
	}
}

func TestNonCompliantVariety(t *testing.T) {
	bad := corpus(t, 1).NonCompliant().All()
	if len(bad) != NonCompliantCount {
		t.Fatalf("%d non-compliant results", len(bad))
	}
	reasons := make(map[string]bool)
	for _, r := range bad {
		err := dataset.Validate(r)
		if err == nil {
			t.Fatalf("non-compliant result %s passes validation", r.ID)
		}
		switch {
		case len(r.Levels) != 10:
			reasons["missing-levels"] = true
		case r.ActiveIdleWatts >= r.Levels[9].AvgPowerWatts:
			reasons["idle-above-peak"] = true
		default:
			for i, lv := range r.Levels {
				if lv.AvgPowerWatts <= 0 {
					reasons["zero-power"] = true
				}
				if math.Abs(lv.ActualLoad-lv.TargetLoad) > 0.02 {
					reasons["load-deviation"] = true
				}
				if i > 0 && lv.OpsPerSec <= r.Levels[i-1].OpsPerSec {
					reasons["ops-regression"] = true
				}
			}
		}
	}
	if len(reasons) < 4 {
		t.Errorf("only %d violation classes present: %v", len(reasons), reasons)
	}
}

func TestPublishedYearMismatches(t *testing.T) {
	valid := corpus(t, 1).Valid()
	var before int
	for _, r := range valid.All() {
		if r.PublishedYear < 2007 || r.PublishedYear > 2016 {
			t.Errorf("%s: published year %d outside benchmark era", r.ID, r.PublishedYear)
		}
		if r.HWAvailYear < 2007 && r.PublishedYear == r.HWAvailYear {
			t.Errorf("%s: pre-benchmark hardware cannot publish in its availability year", r.ID)
		}
		if r.PublishedYear < r.HWAvailYear {
			before++
		}
	}
	if before != 1 {
		t.Errorf("%d results published before hardware availability, want exactly 1", before)
	}
}

func TestCodenameYearsConsistent(t *testing.T) {
	for _, r := range corpus(t, 1).Valid().All() {
		info := r.Codename.Info()
		if r.HWAvailYear < info.FirstYear || r.HWAvailYear > info.LastYear {
			t.Errorf("%s: %v in %d outside its availability span %d-%d",
				r.ID, r.Codename, r.HWAvailYear, info.FirstYear, info.LastYear)
		}
	}
}

func TestCodenameEPOrdering(t *testing.T) {
	// Fig. 7's qualitative ordering: Sandy Bridge EN on top; Ivy Bridge
	// below Sandy Bridge EP despite the finer process; Nehalem EX the
	// laggard of its family.
	valid := corpus(t, 1).Valid()
	mean := make(map[string]float64)
	for code, rs := range groupBy(valid, func(r *dataset.Result) microarch.Codename { return r.Codename }) {
		mean[code.String()] = stats.MustMean(dataset.NewRepository(rs).EPs())
	}
	if !(mean["Sandy Bridge EN"] > mean["Sandy Bridge EP"]) {
		t.Errorf("Sandy Bridge EN (%.2f) should lead Sandy Bridge EP (%.2f)",
			mean["Sandy Bridge EN"], mean["Sandy Bridge EP"])
	}
	if mean["Sandy Bridge EN"] < 0.85 {
		t.Errorf("Sandy Bridge EN mean EP = %.2f, want ≈ 0.90", mean["Sandy Bridge EN"])
	}
	if !(mean["Ivy Bridge"] < mean["Sandy Bridge EP"]) {
		t.Errorf("Ivy Bridge (%.2f) should trail Sandy Bridge EP (%.2f)",
			mean["Ivy Bridge"], mean["Sandy Bridge EP"])
	}
	if !(mean["Nehalem EX"] < mean["Nehalem EP"]) {
		t.Errorf("Nehalem EX (%.2f) should trail Nehalem EP (%.2f)",
			mean["Nehalem EX"], mean["Nehalem EP"])
	}
}

func TestEEYearGrowthMonotone(t *testing.T) {
	// Fig. 4: mean/median/max EE grow with the years (only minima dip,
	// in 2014). Check the mean across the well-populated years.
	byYear := groupBy(corpus(t, 1).Valid(), hwYear)
	years := []int{2007, 2008, 2009, 2010, 2011, 2012, 2013, 2015, 2016}
	prev := 0.0
	for _, y := range years {
		m := stats.MustMean(dataset.NewRepository(byYear[y]).OverallEEs())
		if m <= prev {
			t.Errorf("mean EE not growing at %d: %.0f after %.0f", y, m, prev)
		}
		prev = m
	}
}

func TestCurveFamilyInvariants(t *testing.T) {
	// Every generated curve must hit its EP target exactly (the solver
	// guarantees it analytically) and stay monotone.
	for _, r := range corpus(t, 1).Valid().All() {
		c := r.MustCurve()
		pts := c.Points()
		prev := -1.0
		for _, p := range pts {
			if p.PowerWatts <= prev {
				t.Fatalf("%s: power not strictly increasing", r.ID)
			}
			prev = p.PowerWatts
		}
		if ep := c.EP(); ep < 0.1 || ep >= 1.2 {
			t.Fatalf("%s: EP %.3f outside plausible range", r.ID, ep)
		}
	}
}

// groupBy groups the repository's row views by key, each group in
// repository order.
func groupBy[K comparable](rp *dataset.Repository, key func(*dataset.Result) K) map[K][]*dataset.Result {
	out := make(map[K][]*dataset.Result)
	for _, r := range rp.All() {
		out[key(r)] = append(out[key(r)], r)
	}
	return out
}

func hwYear(r *dataset.Result) int { return r.HWAvailYear }
