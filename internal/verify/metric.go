package verify

import (
	"math"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/verify/tol"
)

// recomputeEP rebuilds Eq. 1 from a result's raw disclosure fields —
// active idle watts plus the ten level powers — without going through
// core.Curve, so it is an independent implementation of the trapezoid
// quadrature the cached metric path must agree with.
func recomputeEP(r *dataset.Result) (float64, bool) {
	if len(r.Levels) == 0 {
		return 0, false
	}
	peak := r.Levels[len(r.Levels)-1].AvgPowerWatts
	if peak <= 0 {
		return 0, false
	}
	area := 0.0
	prevU, prevP := 0.0, r.ActiveIdleWatts/peak
	for _, lv := range r.Levels {
		u, p := lv.TargetLoad, lv.AvgPowerWatts/peak
		area += (u - prevU) * (p + prevP) / 2
		prevU, prevP = u, p
	}
	return 2 - 2*area, true
}

// recomputeOverallEE rebuilds the SPECpower score from the raw fields:
// Σ ssj_ops over the ten levels divided by Σ watts over all eleven
// intervals including active idle.
func recomputeOverallEE(r *dataset.Result) (float64, bool) {
	ops, watts := 0.0, r.ActiveIdleWatts
	for _, lv := range r.Levels {
		ops += lv.OpsPerSec
		watts += lv.AvgPowerWatts
	}
	if watts <= 0 {
		return 0, false
	}
	return ops / watts, true
}

// referencePearson is the engine's own two-pass Pearson correlation,
// kept deliberately independent of internal/stats so the two
// implementations cross-check each other.
func referencePearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// metricInvariants recomputes the paper's published numbers from raw
// curves and checks them against the cached metric paths and the
// tolerance table in verify/tol.
func metricInvariants() []Invariant {
	return []Invariant{
		{
			Name: "metric/ep-range", Category: Metric,
			Doc: "every valid EP lies in [0, 2] (Eq. 1 over a physical curve)",
			Check: func(ctx *Context) Finding {
				for i, ep := range ctx.Valid.EPs() {
					if ep < tol.MinEP || ep > tol.MaxEP || math.IsNaN(ep) {
						return fail("%s: EP %v outside [%v, %v]",
							ctx.Valid.All()[i].ID, ep, tol.MinEP, tol.MaxEP)
					}
				}
				return pass("%d EPs inside [%v, %v]", ctx.Valid.Len(), tol.MinEP, tol.MaxEP)
			},
		},
		{
			Name: "metric/ep-recomputed", Category: Metric,
			Doc: "cached EP matches Eq. 1 recomputed from the raw disclosure fields",
			Check: func(ctx *Context) Finding {
				worst := 0.0
				for _, r := range ctx.Valid.All() {
					want, ok := recomputeEP(r)
					if !ok {
						return fail("%s: cannot recompute EP from raw fields", r.ID)
					}
					if d := math.Abs(want - r.EP()); d > tol.EPRecomputeTolerance {
						return fail("%s: cached EP %.12f vs raw recompute %.12f (Δ %.3g > %.0g)",
							r.ID, r.EP(), want, d, tol.EPRecomputeTolerance)
					} else if d > worst {
						worst = d
					}
				}
				return pass("max |Δ| %.3g over %d results", worst, ctx.Valid.Len())
			},
		},
		{
			Name: "metric/overall-ee-recomputed", Category: Metric,
			Doc: "cached overall EE matches Σops/Σwatts recomputed from the raw fields",
			Check: func(ctx *Context) Finding {
				worst := 0.0
				for _, r := range ctx.Valid.All() {
					want, ok := recomputeOverallEE(r)
					if !ok {
						return fail("%s: cannot recompute overall EE", r.ID)
					}
					if rel := math.Abs(want-r.OverallEE()) / want; rel > tol.RelativeEETolerance {
						return fail("%s: cached EE %.6f vs raw recompute %.6f (rel Δ %.3g)",
							r.ID, r.OverallEE(), want, rel)
					} else if rel > worst {
						worst = rel
					}
				}
				return pass("max rel Δ %.3g over %d results", worst, ctx.Valid.Len())
			},
		},
		{
			Name: "metric/ep-extremes", Category: Metric,
			Doc: "the EP extremes are the paper's 0.18 (2008) and 1.05 (2012)",
			Check: func(ctx *Context) Finding {
				sorted := ctx.Valid.SortByEP()
				if len(sorted) == 0 {
					return fail("empty valid corpus")
				}
				lo, hi := sorted[0], sorted[len(sorted)-1]
				if math.Abs(lo.EP()-0.18) > tol.AnchorEPTolerance || lo.HWAvailYear != 2008 {
					return fail("min EP %.4f (%d), want 0.18 (2008)", lo.EP(), lo.HWAvailYear)
				}
				if math.Abs(hi.EP()-1.05) > tol.AnchorEPTolerance || hi.HWAvailYear != 2012 {
					return fail("max EP %.4f (%d), want 1.05 (2012)", hi.EP(), hi.HWAvailYear)
				}
				return pass("EP spans %.2f (2008) .. %.2f (2012)", lo.EP(), hi.EP())
			},
		},
		{
			Name: "metric/ep-below-one", Category: Metric,
			Doc: "all but two valid servers stay below EP 1.0 (the paper's 99.58%)",
			Check: func(ctx *Context) Finding {
				below := 0
				for _, ep := range ctx.Valid.EPs() {
					if ep < 1.0 {
						below++
					}
				}
				want := ctx.Valid.Len() - 2
				if below != want {
					return fail("%d/%d below EP 1.0, want %d", below, ctx.Valid.Len(), want)
				}
				return pass("%d/%d below EP 1.0", below, ctx.Valid.Len())
			},
		},
		{
			Name: "metric/corr-ep-idle", Category: Metric,
			Doc: "corr(EP, idle%) sits in the paper band around −0.92",
			Check: func(ctx *Context) Finding {
				corr, err := analysis.ComputeCorrelations(ctx.Valid)
				if err != nil {
					return fail("correlations: %v", err)
				}
				c := corr.EPvsIdleFraction
				if c < tol.CorrEPIdleMin || c > tol.CorrEPIdleMax {
					return fail("corr(EP, idle) %.4f outside [%.2f, %.2f] (paper %.2f)",
						c, tol.CorrEPIdleMin, tol.CorrEPIdleMax, tol.CorrEPIdleTarget)
				}
				return pass("corr(EP, idle) %.4f (paper %.2f)", c, tol.CorrEPIdleTarget)
			},
		},
		{
			Name: "metric/corr-ep-ee", Category: Metric,
			Doc: "corr(EP, overall EE) sits in the paper band around 0.741",
			Check: func(ctx *Context) Finding {
				corr, err := analysis.ComputeCorrelations(ctx.Valid)
				if err != nil {
					return fail("correlations: %v", err)
				}
				c := corr.EPvsOverallEE
				if c < tol.CorrEPEEMin || c > tol.CorrEPEEMax {
					return fail("corr(EP, EE) %.4f outside [%.2f, %.2f] (paper %.3f)",
						c, tol.CorrEPEEMin, tol.CorrEPEEMax, tol.CorrEPEETarget)
				}
				return pass("corr(EP, EE) %.4f (paper %.3f)", c, tol.CorrEPEETarget)
			},
		},
		{
			Name: "metric/corr-cross-impl", Category: Metric,
			Doc: "stats.Pearson agrees with the engine's reference Pearson within ±0.005",
			Check: func(ctx *Context) Finding {
				eps := ctx.Valid.EPs()
				pairs := []struct {
					name string
					ys   []float64
				}{
					{"idle", ctx.Valid.IdleFractions()},
					{"ee", ctx.Valid.OverallEEs()},
					{"dynamic-range", ctx.Valid.DynamicRanges()},
				}
				worst := 0.0
				for _, p := range pairs {
					got, err := stats.Pearson(eps, p.ys)
					if err != nil {
						return fail("stats.Pearson(%s): %v", p.name, err)
					}
					ref := referencePearson(eps, p.ys)
					if d := math.Abs(got - ref); d > tol.CorrTolerance {
						return fail("corr(EP, %s): stats %.6f vs reference %.6f (Δ %.3g > %v)",
							p.name, got, ref, d, tol.CorrTolerance)
					} else if d > worst {
						worst = d
					}
				}
				return pass("3 correlations agree, max |Δ| %.3g", worst)
			},
		},
		{
			Name: "metric/corr-sign-identity", Category: Metric,
			Doc: "corr(EP, dynamic range) mirrors corr(EP, idle) exactly (DR = 1 − idle)",
			Check: func(ctx *Context) Finding {
				corr, err := analysis.ComputeCorrelations(ctx.Valid)
				if err != nil {
					return fail("correlations: %v", err)
				}
				if d := math.Abs(corr.EPvsDynamicRange + corr.EPvsIdleFraction); d > 1e-9 {
					return fail("corr(EP, DR) %.6f does not mirror corr(EP, idle) %.6f (Δ %.3g)",
						corr.EPvsDynamicRange, corr.EPvsIdleFraction, d)
				}
				return pass("corr(EP, DR) = −corr(EP, idle) = %.4f", corr.EPvsDynamicRange)
			},
		},
		{
			Name: "metric/eq2-fit", Category: Metric,
			Doc: "the Eq. 2 exponential fit lands in the paper bands (A, B, R²)",
			Check: func(ctx *Context) Finding {
				reg, err := analysis.FitIdleRegression(ctx.Valid)
				if err != nil {
					return fail("idle regression: %v", err)
				}
				if reg.Fit.A < tol.Eq2AMin || reg.Fit.A > tol.Eq2AMax {
					return fail("A %.4f outside [%.2f, %.2f] (paper %.4f)",
						reg.Fit.A, tol.Eq2AMin, tol.Eq2AMax, tol.Eq2ATarget)
				}
				if reg.Fit.B < tol.Eq2BMin || reg.Fit.B > tol.Eq2BMax {
					return fail("B %.4f outside [%.1f, %.1f] (paper %.2f)",
						reg.Fit.B, tol.Eq2BMin, tol.Eq2BMax, tol.Eq2BTarget)
				}
				if reg.Fit.R2 < tol.Eq2MinR2 || reg.Fit.R2 > tol.Eq2MaxR2 {
					return fail("R² %.4f outside [%.2f, %.2f] (paper %.3f)",
						reg.Fit.R2, tol.Eq2MinR2, tol.Eq2MaxR2, tol.Eq2R2Target)
				}
				return pass("EP = %.4f·e^(%.3f·idle), R² %.3f", reg.Fit.A, reg.Fit.B, reg.Fit.R2)
			},
		},
		{
			Name: "metric/eq2-predict", Category: Metric,
			Doc: "the fit's zero-idle ceiling is A and EP(5% idle) lands near the paper's 1.17",
			Check: func(ctx *Context) Finding {
				reg, err := analysis.FitIdleRegression(ctx.Valid)
				if err != nil {
					return fail("idle regression: %v", err)
				}
				if reg.MaxTheoreticalEP != reg.Fit.A {
					return fail("MaxTheoreticalEP %.4f ≠ A %.4f", reg.MaxTheoreticalEP, reg.Fit.A)
				}
				if p := reg.EPAtFivePercentIdle; p < 1.0 || p > 1.3 {
					return fail("EP at 5%% idle %.3f outside [1.0, 1.3] (paper ≈1.17)", p)
				}
				return pass("EP(idle=5%%) = %.3f (paper ≈1.17)", reg.EPAtFivePercentIdle)
			},
		},
		{
			Name: "metric/dynamic-range-identity", Category: Metric,
			Doc: "DynamicRange equals 1 − IdleFraction on every valid result",
			Check: func(ctx *Context) Finding {
				idles := ctx.Valid.IdleFractions()
				drs := ctx.Valid.DynamicRanges()
				for i := range idles {
					if d := math.Abs(drs[i] - (1 - idles[i])); d > 1e-12 {
						return fail("%s: DR %v ≠ 1 − idle %v", ctx.Valid.All()[i].ID, drs[i], idles[i])
					}
				}
				return pass("identity holds on %d results", len(idles))
			},
		},
		{
			Name: "metric/peak-ee-consistency", Category: Metric,
			Doc: "cached peak EE equals the maximum per-level efficiency, and is ≥ full-load EE",
			Check: func(ctx *Context) Finding {
				for _, r := range ctx.Valid.All() {
					c := r.MustCurve()
					best := 0.0
					for _, ee := range c.EEValues()[1:] {
						best = math.Max(best, ee)
					}
					if d := math.Abs(best - r.PeakEEValue()); d > 1e-9*best {
						return fail("%s: cached peak EE %.6f vs recomputed max %.6f", r.ID, r.PeakEEValue(), best)
					}
					if r.PeakOverFullRatio() < 1-1e-12 {
						return fail("%s: peak/full ratio %.6f below 1", r.ID, r.PeakOverFullRatio())
					}
				}
				return pass("peak EE consistent on %d results", ctx.Valid.Len())
			},
		},
		{
			Name: "metric/peak-at-full-share", Category: Metric,
			Doc: "the share of servers peaking in efficiency at full load sits near the paper's 69.25%",
			Check: func(ctx *Context) Finding {
				share := analysis.PeakShiftShares(ctx.Valid, math.MinInt, math.MaxInt)[1.0]
				if share < tol.PeakAtFullShareMin || share > tol.PeakAtFullShareMax {
					return fail("%.2f%% peak at 100%% load, outside [%.0f%%, %.0f%%] (paper %.2f%%)",
						100*share, 100*tol.PeakAtFullShareMin, 100*tol.PeakAtFullShareMax, 100*tol.PeakAtFullShareTarget)
				}
				return pass("%.2f%% peak at 100%% load (paper %.2f%%)", 100*share, 100*tol.PeakAtFullShareTarget)
			},
		},
		{
			Name: "metric/top-decile-2012", Category: Metric,
			Doc: "most of the top-EP decile is 2012 hardware (the paper's 91.7%)",
			Check: func(ctx *Context) Finding {
				async := analysis.Asynchronization(ctx.Valid)
				if async.TopN == 0 || async.TopEPFrom2012 < tol.TopDecile2012Min {
					return fail("%.1f%% of the top-EP decile (%d servers) from 2012, want over %.0f%% (paper %.1f%%)",
						100*async.TopEPFrom2012, async.TopN, 100*tol.TopDecile2012Min, 100*tol.TopDecile2012Target)
				}
				return pass("%.1f%% of the top-EP decile (%d servers) from 2012 (paper %.1f%%)",
					100*async.TopEPFrom2012, async.TopN, 100*tol.TopDecile2012Target)
			},
		},
	}
}
