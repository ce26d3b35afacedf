package synth

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/verify/tol"
)

// TestInvariantsAcrossSeeds verifies that the headline calibration
// targets are properties of the generator, not of one lucky seed. Exact
// invariants (counts, anchors, Table I) must hold for every seed; the
// statistical ones are held to verify/tol's any-seed Cal* bands, which
// are wider than the seed-1 bands specverify applies, and to the two
// default-corpus bands every seed also clears.
func TestInvariantsAcrossSeeds(t *testing.T) {
	for _, seed := range []int64{2, 5, 17, 101} {
		seed := seed
		t.Run(string(rune('a'+seed%26)), func(t *testing.T) {
			rp, err := NewRepository(Config{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			valid := rp.Valid()
			// Exact invariants.
			if rp.Len() != TotalSubmissions || valid.Len() != ValidCount {
				t.Fatalf("seed %d: counts %d/%d", seed, rp.Len(), valid.Len())
			}
			if got := valid.YearMismatched().Len(); got != YearMismatchCount {
				t.Errorf("seed %d: %d mismatches", seed, got)
			}
			sorted := valid.SortByEP()
			if math.Abs(sorted[0].EP()-0.18) > 1e-9 || math.Abs(sorted[len(sorted)-1].EP()-1.05) > 1e-9 {
				t.Errorf("seed %d: EP extremes %.3f / %.3f", seed, sorted[0].EP(), sorted[len(sorted)-1].EP())
			}
			over1 := 0
			for _, r := range valid.All() {
				if r.EP() >= 1.0 {
					over1++
				}
			}
			if over1 != 2 {
				t.Errorf("seed %d: %d servers with EP ≥ 1", seed, over1)
			}
			// Table I histogram is exact under every seed.
			counts := make(map[float64]int)
			for _, r := range valid.All() {
				counts[math.Round(r.MemoryPerCore()*100)/100]++
			}
			for _, b := range mpcBuckets {
				if counts[b.GBPerCore] != b.Count {
					t.Errorf("seed %d: MPC %.2f count %d, want %d", seed, b.GBPerCore, counts[b.GBPerCore], b.Count)
				}
			}
			// Statistical bands (wide).
			eps := valid.EPs()
			idles := make([]float64, 0, valid.Len())
			for _, r := range valid.All() {
				idles = append(idles, r.MustCurve().IdleFraction())
			}
			corrIdle, err := stats.Pearson(eps, idles)
			if err != nil {
				t.Fatal(err)
			}
			if corrIdle < tol.CalCorrEPIdleMin || corrIdle > tol.CalCorrEPIdleMax {
				t.Errorf("seed %d: corr(EP, idle) = %.3f outside [%.2f, %.2f]",
					seed, corrIdle, tol.CalCorrEPIdleMin, tol.CalCorrEPIdleMax)
			}
			corrEE, err := stats.Pearson(eps, valid.OverallEEs())
			if err != nil {
				t.Fatal(err)
			}
			if corrEE < tol.CalCorrEPEEMin || corrEE > tol.CalCorrEPEEMax {
				t.Errorf("seed %d: corr(EP, EE) = %.3f outside [%.2f, %.2f]",
					seed, corrEE, tol.CalCorrEPEEMin, tol.CalCorrEPEEMax)
			}
			fit, err := stats.ExponentialRegression(idles, eps)
			if err != nil {
				t.Fatal(err)
			}
			if fit.R2 < tol.CalEq2MinR2 {
				t.Errorf("seed %d: Eq. 2 R² = %.3f below %.2f", seed, fit.R2, tol.CalEq2MinR2)
			}
			if fit.A < tol.CalEq2AMin || fit.A > tol.CalEq2AMax {
				t.Errorf("seed %d: Eq. 2 A = %.3f outside [%.2f, %.2f]", seed, fit.A, tol.CalEq2AMin, tol.CalEq2AMax)
			}
			topN := valid.Len() / 10
			from2012 := 0
			for _, r := range sorted[len(sorted)-topN:] {
				if r.HWAvailYear == 2012 {
					from2012++
				}
			}
			if share := float64(from2012) / float64(topN); share < tol.TopDecile2012Min {
				t.Errorf("seed %d: %.1f%% of the top-EP decile from 2012, want over %.0f%%",
					seed, 100*share, 100*tol.TopDecile2012Min)
			}
			byYear := groupBy(valid, hwYear)
			mean2012 := stats.MustMean(dataset.NewRepository(byYear[2012]).EPs())
			mean2008 := stats.MustMean(dataset.NewRepository(byYear[2008]).EPs())
			if !(mean2012 > 0.75 && mean2012 < 0.90 && mean2008 > 0.28 && mean2008 < 0.46) {
				t.Errorf("seed %d: year means 2008=%.3f 2012=%.3f", seed, mean2008, mean2012)
			}
			// Peak spots: one tie server, the 100% share in band,
			// pre-2010 all at 100%.
			ties, atFull := 0, 0
			for _, r := range valid.All() {
				_, utils := r.MustCurve().PeakEE()
				if len(utils) == 2 {
					ties++
				}
				for _, u := range utils {
					if math.Round(u*10)/10 == 1.0 {
						atFull++
					}
				}
			}
			if ties != 1 {
				t.Errorf("seed %d: %d tie servers", seed, ties)
			}
			if share := float64(atFull) / float64(valid.Len()); share < tol.PeakAtFullShareMin || share > tol.PeakAtFullShareMax {
				t.Errorf("seed %d: %.2f%% peak at 100%% load, outside [%.0f%%, %.0f%%]",
					seed, 100*share, 100*tol.PeakAtFullShareMin, 100*tol.PeakAtFullShareMax)
			}
			for _, r := range valid.YearRange(2004, 2009).All() {
				if u := r.MustCurve().PeakEEUtilization(); u != 1.0 {
					t.Errorf("seed %d: pre-2010 server peaks at %.0f%%", seed, 100*u)
					break
				}
			}
		})
	}
}
