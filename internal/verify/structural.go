package verify

import (
	"errors"
	"math"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/synth"
)

// structuralInvariants checks the corpus counts and curve shape facts
// the paper publishes in §I and §III.
func structuralInvariants() []Invariant {
	return []Invariant{
		{
			Name: "structural/total-submissions", Category: Structural,
			Doc: "the corpus holds the paper's 517 submissions",
			Check: func(ctx *Context) Finding {
				if got := ctx.Repo.Len(); got != synth.TotalSubmissions {
					return fail("%d submissions, want %d", got, synth.TotalSubmissions)
				}
				return pass("%d submissions", ctx.Repo.Len())
			},
		},
		{
			Name: "structural/valid-count", Category: Structural,
			Doc: "exactly 477 submissions pass SPEC compliance",
			Check: func(ctx *Context) Finding {
				if got := ctx.Valid.Len(); got != synth.ValidCount {
					return fail("%d valid results, want %d", got, synth.ValidCount)
				}
				return pass("%d valid results", ctx.Valid.Len())
			},
		},
		{
			Name: "structural/noncompliant-count", Category: Structural,
			Doc: "exactly 40 submissions fail compliance, partitioning the corpus",
			Check: func(ctx *Context) Finding {
				bad := ctx.Repo.NonCompliant().Len()
				if bad != synth.NonCompliantCount {
					return fail("%d non-compliant results, want %d", bad, synth.NonCompliantCount)
				}
				if bad+ctx.Valid.Len() != ctx.Repo.Len() {
					return fail("valid %d + non-compliant %d ≠ corpus %d",
						ctx.Valid.Len(), bad, ctx.Repo.Len())
				}
				return pass("%d non-compliant results", bad)
			},
		},
		{
			Name: "structural/year-mismatch-count", Category: Structural,
			Doc: "74 valid results have published year ≠ hardware availability year",
			Check: func(ctx *Context) Finding {
				got := ctx.Valid.YearMismatched().Len()
				if got != synth.YearMismatchCount {
					return fail("%d reorganized results, want %d", got, synth.YearMismatchCount)
				}
				return pass("%d reorganized results", got)
			},
		},
		{
			Name: "structural/unique-ids", Category: Structural,
			Doc: "every submission carries a distinct non-empty ID",
			Check: func(ctx *Context) Finding {
				seen := make(map[string]bool, ctx.Repo.Len())
				for _, id := range ctx.Repo.IDs() {
					if id == "" {
						return fail("empty result ID")
					}
					if seen[id] {
						return fail("duplicate result ID %q", id)
					}
					seen[id] = true
				}
				return pass("%d distinct IDs", len(seen))
			},
		},
		{
			Name: "structural/compliance-flags", Category: Structural,
			Doc: "Validate accepts every valid result and rejects every non-compliant one",
			Check: func(ctx *Context) Finding {
				for _, r := range ctx.Valid.All() {
					if err := dataset.Validate(r); err != nil {
						return fail("valid result %s fails Validate: %v", r.ID, err)
					}
				}
				for _, r := range ctx.Repo.NonCompliant().All() {
					err := dataset.Validate(r)
					if err == nil {
						return fail("non-compliant result %s passes Validate", r.ID)
					}
					if !errors.Is(err, dataset.ErrNonCompliant) {
						return fail("result %s fails with a non-compliance error: %v", r.ID, err)
					}
				}
				return pass("compliance partition consistent over %d results", ctx.Repo.Len())
			},
		},
		{
			Name: "structural/standard-grid", Category: Structural,
			Doc: "every valid curve has the 11 SPECpower points at exact 10% steps",
			Check: func(ctx *Context) Finding {
				for _, r := range ctx.Valid.All() {
					c := r.MustCurve()
					if c.NumLevels() != len(core.StandardUtilizations) {
						return fail("%s: %d curve points, want %d", r.ID, c.NumLevels(), len(core.StandardUtilizations))
					}
					for i, p := range c.Points() {
						if math.Abs(p.Utilization-core.StandardUtilizations[i]) > 1e-9 {
							return fail("%s: point %d at utilization %v, want %v",
								r.ID, i, p.Utilization, core.StandardUtilizations[i])
						}
					}
				}
				return pass("%d curves on the standard grid", ctx.Valid.Len())
			},
		},
		{
			Name: "structural/monotone-power", Category: Structural,
			Doc: "power strictly increases with load on every valid curve",
			Check: func(ctx *Context) Finding {
				for _, r := range ctx.Valid.All() {
					points := r.MustCurve().Points()
					for i := 1; i < len(points); i++ {
						if points[i].PowerWatts <= points[i-1].PowerWatts {
							return fail("%s: power %0.1f W at %.0f%% not above %0.1f W at %.0f%%",
								r.ID, points[i].PowerWatts, 100*points[i].Utilization,
								points[i-1].PowerWatts, 100*points[i-1].Utilization)
						}
					}
				}
				return pass("power monotone on %d curves", ctx.Valid.Len())
			},
		},
		{
			Name: "structural/idle-fraction-band", Category: Structural,
			Doc: "every valid idle fraction lies strictly inside (0, 1)",
			Check: func(ctx *Context) Finding {
				lo, hi := math.Inf(1), math.Inf(-1)
				for i, f := range ctx.Valid.IdleFractions() {
					if f <= 0 || f >= 1 {
						return fail("%s: idle fraction %v outside (0, 1)", ctx.Valid.All()[i].ID, f)
					}
					lo, hi = math.Min(lo, f), math.Max(hi, f)
				}
				return pass("idle fractions span [%.3f, %.3f]", lo, hi)
			},
		},
		{
			Name: "structural/peak-spot-count", Category: Structural,
			Doc: "477 servers produce 478 peak-efficiency spots (exactly one tie)",
			Check: func(ctx *Context) Finding {
				spots := 0
				for _, r := range ctx.Valid.All() {
					_, utils := r.PeakEE()
					if len(utils) == 0 {
						return fail("%s: no peak-efficiency spot", r.ID)
					}
					spots += len(utils)
				}
				want := ctx.Valid.Len() + 1
				if spots != want {
					return fail("%d peak-EE spots, want %d", spots, want)
				}
				return pass("%d peak-EE spots", spots)
			},
		},
		{
			Name: "structural/year-span", Category: Structural,
			Doc: "hardware years span 2004-2016 and published years 2007-2016",
			Check: func(ctx *Context) Finding {
				for _, r := range ctx.Valid.All() {
					if r.HWAvailYear < 2004 || r.HWAvailYear > 2016 {
						return fail("%s: hardware year %d outside [2004, 2016]", r.ID, r.HWAvailYear)
					}
					if r.PublishedYear < 2007 || r.PublishedYear > 2016 {
						return fail("%s: published year %d outside [2007, 2016]", r.ID, r.PublishedYear)
					}
				}
				years := ctx.Valid.HWYears()
				if len(years) == 0 {
					return fail("no hardware years present")
				}
				return pass("hardware years %d..%d", years[0], years[len(years)-1])
			},
		},
		{
			Name: "structural/table-i-histogram", Category: Structural,
			Doc: "the valid servers fill the paper's Table I memory-per-core buckets exactly",
			Check: func(ctx *Context) Finding {
				counts := make(map[float64]int)
				for _, r := range ctx.Valid.All() {
					counts[math.Round(r.MemoryPerCore()*100)/100]++
				}
				onTable := 0
				for _, b := range synth.TableI() {
					if got := counts[b.GBPerCore]; got != b.Count {
						return fail("%.2f GB/core: %d servers, want %d", b.GBPerCore, got, b.Count)
					}
					onTable += b.Count
				}
				return pass("%d of %d servers on the Table I ratios", onTable, ctx.Valid.Len())
			},
		},
	}
}
