package analysis

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/microarch"
	"repro/internal/synth"
	"repro/internal/verify/tol"
)

var testCorpus *dataset.Repository

// validCorpus generates the 477-server synthetic corpus once.
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

func TestYearlyTrend(t *testing.T) {
	trend, err := YearlyTrend(validCorpus(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(trend) != 13 {
		t.Fatalf("trend has %d years, want 13", len(trend))
	}
	if trend[0].Year != 2004 || trend[len(trend)-1].Year != 2016 {
		t.Errorf("trend spans %d-%d", trend[0].Year, trend[len(trend)-1].Year)
	}
	total := 0
	for _, ys := range trend {
		total += ys.N
		if ys.EP.Min > ys.EP.Median || ys.EP.Median > ys.EP.Max {
			t.Errorf("year %d: EP summary out of order", ys.Year)
		}
		if ys.PeakEE.Mean < ys.EE.Mean {
			t.Errorf("year %d: peak EE mean %.0f below overall EE mean %.0f",
				ys.Year, ys.PeakEE.Mean, ys.EE.Mean)
		}
	}
	if total != validCorpus(t).Len() {
		t.Errorf("trend covers %d servers, want %d", total, validCorpus(t).Len())
	}
}

func TestYearlyTrendEmptyRepo(t *testing.T) {
	trend, err := YearlyTrend(dataset.NewRepository(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(trend) != 0 {
		t.Errorf("empty repo trend = %v", trend)
	}
}

func TestYearlyTrendByPublishedDiffers(t *testing.T) {
	rp := validCorpus(t)
	hw, err := YearlyTrend(rp)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := YearlyTrendByPublished(rp)
	if err != nil {
		t.Fatal(err)
	}
	// Published years start at 2007 (the benchmark's launch); hardware
	// availability reaches back to 2004.
	if pub[0].Year < 2007 {
		t.Errorf("earliest published year = %d", pub[0].Year)
	}
	if hw[0].Year != 2004 {
		t.Errorf("earliest hw year = %d", hw[0].Year)
	}
}

func TestEPDistribution(t *testing.T) {
	cdf, hist, err := EPDistribution(validCorpus(t))
	if err != nil {
		t.Fatal(err)
	}
	if cdf.N() != validCorpus(t).Len() {
		t.Errorf("CDF over %d samples", cdf.N())
	}
	totalMass := 0
	for _, b := range hist.Bins {
		totalMass += b.Count
	}
	if totalMass != validCorpus(t).Len() {
		t.Errorf("histogram mass = %d", totalMass)
	}
	if _, _, err := EPDistribution(dataset.NewRepository(nil)); err == nil {
		t.Error("empty repo should error")
	}
}

func TestByFamilyCoversCorpus(t *testing.T) {
	fams := ByFamily(validCorpus(t))
	total := 0
	for _, f := range fams {
		total += f.Count
		if f.Count > 0 && (f.MeanEP <= 0 || f.MeanEP >= 1.2) {
			t.Errorf("family %v: mean EP %.3f implausible", f.Family, f.MeanEP)
		}
	}
	if total != validCorpus(t).Len() {
		t.Errorf("family counts sum to %d", total)
	}
	// Fig. 6's dominant families.
	counts := make(map[microarch.Family]int)
	for _, f := range fams {
		counts[f.Family] = f.Count
	}
	if counts[microarch.FamilySandyBridge] < counts[microarch.FamilyNetburst] {
		t.Error("Sandy Bridge should dwarf Netburst")
	}
	if counts[microarch.FamilyNehalem] < 90 || counts[microarch.FamilySandyBridge] < 130 {
		t.Errorf("family counts off: Nehalem=%d SandyBridge=%d",
			counts[microarch.FamilyNehalem], counts[microarch.FamilySandyBridge])
	}
}

func TestByCodenameOrderingMatchesFig7(t *testing.T) {
	codes := ByCodename(validCorpus(t))
	byName := make(map[string]CodenameStats)
	total := 0
	for _, c := range codes {
		byName[c.Codename.String()] = c
		total += c.Count
	}
	if total != validCorpus(t).Len() {
		t.Errorf("codename counts sum to %d", total)
	}
	en := byName["Sandy Bridge EN"]
	if en.MeanEP < 0.85 || en.MeanEP > 0.97 {
		t.Errorf("Sandy Bridge EN mean EP = %.3f, want ≈ 0.90", en.MeanEP)
	}
	if en.MedianEP < en.MeanEP-0.1 {
		t.Errorf("Sandy Bridge EN median %.3f implausibly below mean %.3f", en.MedianEP, en.MeanEP)
	}
	if nb := byName["Netburst"]; nb.MeanEP > 0.4 {
		t.Errorf("Netburst mean EP = %.3f, want ≈ 0.29", nb.MeanEP)
	}
}

func TestMarchMix(t *testing.T) {
	rows := MarchMix(validCorpus(t), 2012, 2016)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		sum := 0
		for _, c := range row.Counts {
			sum += c
		}
		if sum != row.Total {
			t.Errorf("year %d: mix sums to %d of %d", row.Year, sum, row.Total)
		}
	}
	// 2012 is Sandy Bridge country; 2016 is Haswell/Broadwell/Skylake.
	if rows[0].Counts[microarch.FamilySandyBridge] < rows[0].Total/2 {
		t.Error("2012 should be majority Sandy Bridge family")
	}
	if rows[4].Counts[microarch.FamilySandyBridge] != 0 {
		t.Error("2016 should have no Sandy Bridge family servers")
	}
}

func TestEnvelopes(t *testing.T) {
	rp := validCorpus(t)
	pow := PowerEnvelope(rp)
	if pow.N != rp.Len() {
		t.Errorf("envelope over %d servers", pow.N)
	}
	if len(pow.Lower) != 11 || len(pow.Upper) != 11 {
		t.Fatalf("envelope grid %d/%d", len(pow.Lower), len(pow.Upper))
	}
	for i := range pow.Lower {
		if pow.Lower[i] > pow.Upper[i] {
			t.Fatalf("inverted envelope at %v", pow.Utilizations[i])
		}
	}
	// The envelope edges belong to the EP extremes: 1.05 (lower) and
	// 0.18 (upper).
	if math.Abs(pow.LowerEP-1.05) > 1e-9 || math.Abs(pow.UpperEP-0.18) > 1e-9 {
		t.Errorf("envelope EPs = %.3f / %.3f, want 1.05 / 0.18", pow.LowerEP, pow.UpperEP)
	}
	// Both curves end at 1.0 at full load.
	if math.Abs(pow.Lower[10]-1) > 1e-9 || math.Abs(pow.Upper[10]-1) > 1e-9 {
		t.Errorf("power envelope at 100%% = %v / %v", pow.Lower[10], pow.Upper[10])
	}

	ee := EEEnvelope(rp)
	if ee.Lower[0] != 0 {
		t.Errorf("EE envelope idle lower = %v, want 0", ee.Lower[0])
	}
	if ee.Upper[10] < 1 || ee.Lower[10] > 1 {
		t.Errorf("EE envelope at 100%% should bracket 1: %v / %v", ee.Lower[10], ee.Upper[10])
	}
	// The almond: some servers exceed their full-load efficiency at
	// partial load (normalized EE above 1 before 100%).
	exceeded := false
	for i := 1; i < 10; i++ {
		if ee.Upper[i] > 1 {
			exceeded = true
		}
	}
	if !exceeded {
		t.Error("no server exceeds its full-load efficiency at partial load")
	}
}

func TestSelectRepresentatives(t *testing.T) {
	reps := SelectRepresentatives(validCorpus(t))
	if len(reps) != 11 {
		t.Fatalf("%d representatives, want 11", len(reps))
	}
	for i := 1; i < len(reps); i++ {
		if reps[i].EP < reps[i-1].EP {
			t.Fatal("representatives not sorted by EP")
		}
	}
	// On the synthetic corpus every representative is an exact anchor.
	wantEPs := []float64{0.18, 0.30, 0.61, 0.75, 0.75, 0.82, 0.86, 0.87, 0.96, 1.02, 1.05}
	for i, want := range wantEPs {
		if math.Abs(reps[i].EP-want) > 1e-9 {
			t.Errorf("representative %d EP = %.4f, want %.2f", i, reps[i].EP, want)
		}
	}
	if reps[0].Label != "2008 EP=0.18" {
		t.Errorf("label = %q", reps[0].Label)
	}
	// No duplicates.
	seen := make(map[string]bool)
	for _, rep := range reps {
		if seen[rep.Result.ID] {
			t.Errorf("representative %s selected twice", rep.Result.ID)
		}
		seen[rep.Result.ID] = true
	}
}

func TestByNodesAndChips(t *testing.T) {
	rp := validCorpus(t)
	nodes := ByNodes(rp, 3)
	if len(nodes) < 4 {
		t.Fatalf("node groups = %d", len(nodes))
	}
	if nodes[0].Key != 1 {
		t.Errorf("first node group = %d", nodes[0].Key)
	}
	// Fig. 13: median EP improves from single node to 16 nodes.
	last := nodes[len(nodes)-1]
	if last.Key != 16 || last.MedianEP <= nodes[0].MedianEP {
		t.Errorf("16-node median EP %.3f should beat single-node %.3f", last.MedianEP, nodes[0].MedianEP)
	}

	chips := ByChips(rp, 3)
	var two, four GroupStats
	for _, g := range chips {
		switch g.Key {
		case 2:
			two = g
		case 4:
			four = g
		}
	}
	if two.N != 284 || four.N != 36 {
		t.Errorf("chip group sizes = %d / %d, want 284 / 36", two.N, four.N)
	}
	// Fig. 14: the 2-chip group leads on mean EE.
	if two.MeanEE <= four.MeanEE {
		t.Errorf("2-chip mean EE %.0f should beat 4-chip %.0f", two.MeanEE, four.MeanEE)
	}
	// Dropping below minCount removes groups.
	if got := ByNodes(rp, 1000); len(got) != 0 {
		t.Errorf("minCount=1000 still returns %d groups", len(got))
	}
}

func TestTwoChipVsAll(t *testing.T) {
	cmp := TwoChipVsAll(validCorpus(t))
	if len(cmp.Years) == 0 {
		t.Fatal("no comparison years")
	}
	// Fig. 15: the 2-chip cohort beats the per-year average on both
	// metrics (paper: +2.94% EP, +4.13% EE on averages).
	if cmp.MeanEPAdvantagePct < 0 || cmp.MeanEPAdvantagePct > 12 {
		t.Errorf("2-chip mean EP advantage = %.2f%%, want small positive", cmp.MeanEPAdvantagePct)
	}
	if cmp.MeanEEAdvantagePct < 0 || cmp.MeanEEAdvantagePct > 15 {
		t.Errorf("2-chip mean EE advantage = %.2f%%, want small positive", cmp.MeanEEAdvantagePct)
	}
}

func TestPeakShift(t *testing.T) {
	rp := validCorpus(t)
	rows := PeakShift(rp)
	if len(rows) != 13 {
		t.Fatalf("%d rows", len(rows))
	}
	spots := 0
	for _, row := range rows {
		spots += row.Spots
		if row.Year < 2010 && row.Counts[1.0] != row.Spots {
			t.Errorf("year %d: sub-100%% peak before 2010", row.Year)
		}
	}
	if spots != rp.Len()+1 {
		t.Errorf("total spots = %d, want %d", spots, rp.Len()+1)
	}

	early := PeakShiftShares(rp, 2004, 2012)
	late := PeakShiftShares(rp, 2013, 2016)
	if early[1.0] < late[1.0] {
		t.Error("the 100% peak share should fall after 2012")
	}
	if late[0.8]+late[0.7] < 0.5 {
		t.Errorf("2013-16: 80%%+70%% shares = %.2f, want majority", late[0.8]+late[0.7])
	}
}

func TestMemoryPerCoreTable(t *testing.T) {
	buckets := MemoryPerCore(validCorpus(t), 10)
	if len(buckets) != 7 {
		t.Fatalf("%d buckets, want 7 (Table I)", len(buckets))
	}
	total := 0
	wantCounts := map[float64]int{0.67: 15, 1.00: 153, 1.33: 32, 1.50: 68, 1.78: 13, 2.00: 123, 4.00: 26}
	for _, b := range buckets {
		total += b.Count
		if want, ok := wantCounts[b.GBPerCore]; !ok || b.Count != want {
			t.Errorf("bucket %.2f: count %d, want %d", b.GBPerCore, b.Count, wantCounts[b.GBPerCore])
		}
	}
	if total != 430 {
		t.Errorf("Table I covers %d servers, want 430", total)
	}
	// Fig. 17: best EP at 1.5, best EE at 1.78.
	var bestEPAt, bestEEAt float64
	bestEP, bestEE := 0.0, 0.0
	for _, b := range buckets {
		if b.MeanEP > bestEP {
			bestEP, bestEPAt = b.MeanEP, b.GBPerCore
		}
		if b.MeanEE > bestEE {
			bestEE, bestEEAt = b.MeanEE, b.GBPerCore
		}
	}
	if bestEPAt != 1.5 {
		t.Errorf("best mean EP at %.2f GB/core, want 1.5", bestEPAt)
	}
	if bestEEAt != 1.78 {
		t.Errorf("best mean EE at %.2f GB/core, want 1.78", bestEEAt)
	}
}

func TestComputeCorrelations(t *testing.T) {
	corr, err := ComputeCorrelations(validCorpus(t))
	if err != nil {
		t.Fatal(err)
	}
	if corr.N != validCorpus(t).Len() {
		t.Errorf("N = %d", corr.N)
	}
	if corr.EPvsOverallEE < tol.CorrEPEEMin || corr.EPvsOverallEE > tol.CorrEPEEMax {
		t.Errorf("corr(EP, EE) = %.3f, want ≈ %v", corr.EPvsOverallEE, tol.CorrEPEETarget)
	}
	if corr.EPvsIdleFraction > tol.CorrEPIdleMax || corr.EPvsIdleFraction < tol.CorrEPIdleMin {
		t.Errorf("corr(EP, idle) = %.3f, want ≈ %v", corr.EPvsIdleFraction, tol.CorrEPIdleTarget)
	}
	// Dynamic range mirrors the idle fraction with opposite sign.
	if math.Abs(corr.EPvsDynamicRange+corr.EPvsIdleFraction) > 1e-9 {
		t.Errorf("corr(EP, DR) = %.3f should mirror corr(EP, idle) = %.3f",
			corr.EPvsDynamicRange, corr.EPvsIdleFraction)
	}
	// §IV.A: more proportional servers peak farther from full load.
	if corr.EPvsPeakOffset <= 0.2 {
		t.Errorf("corr(EP, peak offset) = %.3f, want clearly positive", corr.EPvsPeakOffset)
	}
	if corr.EPvsPeakOverFull <= 0.2 {
		t.Errorf("corr(EP, peak/full ratio) = %.3f, want clearly positive", corr.EPvsPeakOverFull)
	}
}

func TestFitIdleRegression(t *testing.T) {
	reg, err := FitIdleRegression(validCorpus(t))
	if err != nil {
		t.Fatal(err)
	}
	// Paper Eq. 2: EP = 1.2969·e^(−2.06·idle), R² 0.892, corr −0.92.
	if reg.Fit.A < tol.Eq2AMin || reg.Fit.A > tol.Eq2AMax {
		t.Errorf("A = %.4f", reg.Fit.A)
	}
	if reg.Fit.B > tol.Eq2BMax || reg.Fit.B < tol.Eq2BMin {
		t.Errorf("B = %.3f", reg.Fit.B)
	}
	if reg.Fit.R2 < tol.Eq2MinR2 {
		t.Errorf("R² = %.3f", reg.Fit.R2)
	}
	if reg.Correlation > tol.CorrEPIdleMax {
		t.Errorf("correlation = %.3f", reg.Correlation)
	}
	if reg.MaxTheoreticalEP != reg.Fit.A {
		t.Error("MaxTheoreticalEP should equal A")
	}
	// The paper's illustration: ~1.17 at 5% idle.
	if reg.EPAtFivePercentIdle < 1.0 || reg.EPAtFivePercentIdle > 1.3 {
		t.Errorf("EP at 5%% idle = %.3f, want ≈ 1.17", reg.EPAtFivePercentIdle)
	}
}

func TestAsynchronization(t *testing.T) {
	async := Asynchronization(validCorpus(t))
	if async.TopN != 47 {
		t.Errorf("TopN = %d, want 47", async.TopN)
	}
	if async.Share2012 < 0.25 || async.Share2012 > 0.30 {
		t.Errorf("2012 share = %.3f, want ≈ 0.274", async.Share2012)
	}
	// §IV.B: 2012 dominates the top-EP decile (~92%) but not the top-EE
	// decile (~17%).
	if async.TopEPFrom2012 < async.Share2012*2.5 {
		t.Errorf("top-EP from 2012 = %.3f, should dwarf the 2012 share %.3f",
			async.TopEPFrom2012, async.Share2012)
	}
	if async.TopEEFrom2012 > 0.35 {
		t.Errorf("top-EE from 2012 = %.3f, want small", async.TopEEFrom2012)
	}
	if async.Servers20152016InTopEE != async.Servers20152016 {
		t.Errorf("only %d of %d 2015-16 servers in top-EE decile",
			async.Servers20152016InTopEE, async.Servers20152016)
	}
	if async.Overlap > 0.4 {
		t.Errorf("top-EP ∩ top-EE overlap = %.3f, want small (paper 14.6%%)", async.Overlap)
	}
	// Degenerate repository.
	if small := Asynchronization(dataset.NewRepository(nil)); small.TopN != 0 {
		t.Errorf("empty repo TopN = %d", small.TopN)
	}
}

// TestTopRowsMatchesArgsort pins the decile selection to the stable
// argsort it replaces: the same set of rows as ArgsortStable's last
// topN, on keys with heavy ties, signed zeros and infinities, and on
// keys with a NaN, which keep the argsort.
func TestTopRowsMatchesArgsort(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pool := []float64{0, math.Copysign(0, -1), 1, 1, 2.5, -3, math.Inf(1), math.Inf(-1), 0.1}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(400)
		keys := make([]float64, n)
		for i := range keys {
			if rng.Intn(3) == 0 {
				keys[i] = rng.NormFloat64()
			} else {
				keys[i] = pool[rng.Intn(len(pool))]
			}
		}
		if trial%5 == 0 {
			keys[rng.Intn(n)] = math.NaN()
		}
		topN := 1 + rng.Intn(n)
		want := dataset.ArgsortStable(keys)[n-topN:]
		got := topRows(keys, topN)
		if len(got) != topN {
			t.Fatalf("trial %d: %d rows, want %d", trial, len(got), topN)
		}
		in := make(map[int32]bool, topN)
		for _, r := range want {
			in[r] = true
		}
		for _, r := range got {
			if !in[r] {
				t.Fatalf("trial %d (n %d, top %d): row %d (key %v) is not in the argsort's top",
					trial, n, topN, r, keys[r])
			}
			delete(in, r)
		}
		if len(in) != 0 {
			t.Fatalf("trial %d: %d rows repeated or missing", trial, len(in))
		}
	}
}

func TestYearReorgDeltas(t *testing.T) {
	deltas, err := YearReorgDeltas(validCorpus(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) == 0 {
		t.Fatal("no deltas")
	}
	nonZero := 0
	for _, d := range deltas {
		if math.Abs(d.AvgEPDeltaPct) > 0.01 || math.Abs(d.AvgEEDeltaPct) > 0.01 {
			nonZero++
		}
		// Paper range check (loose): deltas stay within ±30%.
		if math.Abs(d.AvgEPDeltaPct) > 30 || math.Abs(d.MedEPDeltaPct) > 35 {
			t.Errorf("year %d: EP deltas %.1f%%/%.1f%% outside plausible range",
				d.Year, d.AvgEPDeltaPct, d.MedEPDeltaPct)
		}
	}
	if nonZero == 0 {
		t.Error("reorganization changed nothing; the 74 mismatches should move the statistics")
	}
}

func TestProportionalityGapByYear(t *testing.T) {
	rows, err := ProportionalityGapByYear(validCorpus(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 13 {
		t.Fatalf("%d rows", len(rows))
	}
	total := 0
	for _, row := range rows {
		total += row.N
		if len(row.MeanGap) != 11 {
			t.Fatalf("year %d: grid %d", row.Year, len(row.MeanGap))
		}
		// The gap vanishes at 100% utilization by normalization.
		if math.Abs(row.MeanGap[10]) > 1e-12 {
			t.Errorf("year %d: gap at 100%% = %v", row.Year, row.MeanGap[10])
		}
		// Idle gap equals the mean idle fraction and is positive.
		if row.MeanGap[0] <= 0 {
			t.Errorf("year %d: idle gap %v", row.Year, row.MeanGap[0])
		}
		// The low-utilization gap exceeds the peak-region gap — the
		// related work's proportionality-gap observation.
		if row.LowUtilGap <= row.PeakRegionGap {
			t.Errorf("year %d: low gap %v not above peak gap %v",
				row.Year, row.LowUtilGap, row.PeakRegionGap)
		}
	}
	if total != validCorpus(t).Len() {
		t.Errorf("gap rows cover %d servers", total)
	}
	// The low-utilization gap shrinks over the decade.
	sum, err := SummarizeGap(rows, 30)
	if err != nil {
		t.Fatal(err)
	}
	if sum.LowGapLast >= sum.LowGapFirst {
		t.Errorf("low-utilization gap did not shrink: %v (%d) → %v (%d)",
			sum.LowGapFirst, sum.FirstYear, sum.LowGapLast, sum.LastYear)
	}
	if _, err := SummarizeGap(rows, 10000); err == nil {
		t.Error("impossible minCount accepted")
	}
}

func TestImprovementRates(t *testing.T) {
	rates, err := ImprovementRates(validCorpus(t), [][2]int{{2007, 2012}, {2012, 2016}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rates) != 2 {
		t.Fatalf("%d eras", len(rates))
	}
	early, late := rates[0], rates[1]
	// The ramp-up era improves EP much faster than the post-2012 era —
	// the quantitative core of the stagnation discussion.
	if early.EPPerYear <= 0 {
		t.Errorf("2007-2012 EP rate = %v, want positive", early.EPPerYear)
	}
	if late.EPPerYear >= early.EPPerYear {
		t.Errorf("post-2012 EP rate %v should fall below 2007-2012 rate %v",
			late.EPPerYear, early.EPPerYear)
	}
	// Efficiency keeps compounding in both eras.
	if early.EEGrowthPerYear < 0.2 || late.EEGrowthPerYear < 0.05 {
		t.Errorf("EE growth rates implausible: %v / %v", early.EEGrowthPerYear, late.EEGrowthPerYear)
	}
	if _, err := ImprovementRates(validCorpus(t), [][2]int{{1990, 1991}}); err == nil {
		t.Error("empty era accepted")
	}
}

// TestImprovementRatesMemoized: each era is fitted once per corpus.
// Concurrent first calls agree bit for bit with a corpus fitted
// serially, and a projection leaves its 2013-2016 fit, the year trend
// and the Eq. 2 fit in the memo for the summary's era rates and the
// other target years.
func TestImprovementRatesMemoized(t *testing.T) {
	fresh := func() *dataset.Repository {
		rp, err := synth.NewRepository(synth.Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return rp.Valid()
	}
	eras := [][2]int{{2007, 2012}, {2012, 2016}, {2013, 2016}}
	want, err := ImprovementRates(fresh(), eras)
	if err != nil {
		t.Fatal(err)
	}

	rp := fresh()
	if _, err := ProjectTrends(rp, 2020); err != nil {
		t.Fatal(err)
	}
	cs := rp.Columns()
	for _, key := range []string{"analysis.eraRate.2013-2016", "analysis.yearlyTrend.hw", "analysis.idleRegression"} {
		cs.Memoize(key, func() any {
			t.Errorf("ProjectTrends did not memoize %s", key)
			return nil
		})
	}

	const callers = 4
	got := make([][]EraRate, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], errs[g] = ImprovementRates(rp, eras)
		}(g)
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("caller %d: %v", g, errs[g])
		}
		for i, r := range got[g] {
			w := want[i]
			if r.FromYear != w.FromYear || r.ToYear != w.ToYear || r.N != w.N ||
				math.Float64bits(r.EPPerYear) != math.Float64bits(w.EPPerYear) ||
				math.Float64bits(r.EEGrowthPerYear) != math.Float64bits(w.EEGrowthPerYear) {
				t.Errorf("caller %d era %d-%d: %+v, want %+v", g, w.FromYear, w.ToYear, r, w)
			}
		}
	}
	for _, era := range eras {
		cs.Memoize(fmt.Sprintf("analysis.eraRate.%d-%d", era[0], era[1]), func() any {
			t.Errorf("era %d-%d not memoized", era[0], era[1])
			return memoResult[EraRate]{}
		})
	}
}

// TestTooFewServersErrors: the three corpus-too-small failures match
// ErrTooFewServers and keep their messages.
func TestTooFewServersErrors(t *testing.T) {
	rp := validCorpus(t)
	rows, err := ProportionalityGapByYear(rp)
	if err != nil {
		t.Fatal(err)
	}
	_, gapErr := SummarizeGap(rows, 10000)
	_, eraErr := ImprovementRates(rp, [][2]int{{1990, 1991}})
	_, projErr := ProjectTrends(rp.YearRange(2004, 2015), 2020)
	for _, c := range []struct {
		err error
		msg string
	}{
		{gapErr, "analysis: no year with ≥ 10000 servers"},
		{eraErr, "analysis: era 1990-1991 has only 0 servers"},
		{projErr, "analysis: no 2016 servers to project from"},
	} {
		if !errors.Is(c.err, ErrTooFewServers) || c.err.Error() != c.msg {
			t.Errorf("error %v (ErrTooFewServers: %v), want %q matching ErrTooFewServers",
				c.err, errors.Is(c.err, ErrTooFewServers), c.msg)
		}
	}
}

func TestProjectTrends(t *testing.T) {
	proj, err := ProjectTrends(validCorpus(t), 2020)
	if err != nil {
		t.Fatal(err)
	}
	if proj.Year != 2020 {
		t.Errorf("year = %d", proj.Year)
	}
	// The projection stays physical: EP within (0, Eq.2 asymptote],
	// efficiency keeps compounding, implied idle non-negative.
	if proj.MeanEP <= 0 || proj.MeanEP > 1.45 {
		t.Errorf("projected EP = %v", proj.MeanEP)
	}
	if proj.EEFactorOver2016 <= 1 {
		t.Errorf("projected EE factor = %v, want > 1", proj.EEFactorOver2016)
	}
	if proj.ImpliedIdleFraction < 0 || proj.ImpliedIdleFraction > 0.5 {
		t.Errorf("implied idle = %v", proj.ImpliedIdleFraction)
	}
	if _, err := ProjectTrends(validCorpus(t), 2016); err == nil {
		t.Error("target 2016 accepted")
	}
}
