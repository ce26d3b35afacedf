// Package verify is the paper-invariant verification engine: a
// declarative registry of named checks that any corpus — synthetic or
// file-loaded — and the analysis pipeline built over it must satisfy.
//
// Three categories of invariant are registered:
//
//   - structural: counts and shape facts of the corpus itself (517
//     submissions, 477 valid, 74 reorganized, compliance partition,
//     standard 11-point curves, monotone power, 478 peak-EE spots, the
//     Table I memory-per-core histogram);
//   - metric: the paper's published numbers recomputed from raw
//     disclosure fields and compared against the cached metric paths
//     (Eq. 1 from the trapezoid area, the −0.92 idle correlation, the
//     Eq. 2 exponential fit, the EP extremes 0.18/1.05, the 69.25% of
//     servers peaking at full load, the 2012 share of the top-EP
//     decile);
//   - differential: two independent paths through the system must
//     agree exactly — cold recomputation versus memoized caches,
//     worker counts 1/2/8, the HTTP serving layer versus the library
//     render, clone independence, corpus regeneration determinism.
//
// The engine is the substrate performance work proves itself against:
// a caching or parallelism change that silently diverges from the
// reference path fails a differential invariant rather than shipping.
// It is exposed three ways: the cmd/specverify binary, Verify /
// VerifyCorpus in the public api package, and the -verify hook of
// cmd/specserved (which re-checks the live snapshot after a reload).
package verify

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/dataset"
	"repro/internal/par"
	"repro/internal/report"
)

// Category classifies an invariant.
type Category string

// The registered invariant categories.
const (
	Structural   Category = "structural"
	Metric       Category = "metric"
	Differential Category = "differential"
)

// Categories lists every category in registry order.
func Categories() []Category { return []Category{Structural, Metric, Differential} }

// Context is the material one verification run works over. Build it
// with NewContext (or api-level helpers) and hand it to Run.
type Context struct {
	// Repo is the full corpus under verification (valid plus
	// non-compliant submissions, the paper's 517).
	Repo *dataset.Repository
	// Valid is the compliant subset (the paper's 477), precomputed.
	Valid *dataset.Repository
	// Seed identifies the corpus generation; for synthetic corpora it
	// reproduces the corpus bit for bit.
	Seed int64
	// Synthetic reports whether Repo was generated from Seed, enabling
	// the regeneration-determinism invariant.
	Synthetic bool
	// Opts parameterize the report renders the differential invariants
	// compare (sweeps are normally off: they verify elsewhere and would
	// dominate the run time).
	Opts report.Options
}

// NewContext prepares a verification context over a repository. The
// valid subset is filtered and its metric columns precomputed so the
// invariants measure the same warm caches production reads.
func NewContext(rp *dataset.Repository, seed int64, synthetic bool) *Context {
	valid := rp.Valid()
	valid.Precompute()
	return &Context{
		Repo:      rp,
		Valid:     valid,
		Seed:      seed,
		Synthetic: synthetic,
		Opts:      report.Options{Seed: seed},
	}
}

// Finding is the outcome of one invariant over one context.
type Finding struct {
	// Name identifies the invariant (category/slug).
	Name string
	// Category is the invariant's registered category.
	Category Category
	// Detail is the human-readable measurement (got-versus-want).
	Detail string
	// OK reports whether the invariant held. Skipped findings are OK.
	OK bool
	// Skipped reports the invariant did not apply to this context
	// (e.g. regeneration determinism over a file-loaded corpus).
	Skipped bool
}

// pass, fail and skip build findings inside checks; the runner stamps
// Name and Category.
func pass(format string, args ...any) Finding {
	return Finding{OK: true, Detail: fmt.Sprintf(format, args...)}
}

func fail(format string, args ...any) Finding {
	return Finding{OK: false, Detail: fmt.Sprintf(format, args...)}
}

func skip(format string, args ...any) Finding {
	return Finding{OK: true, Skipped: true, Detail: fmt.Sprintf(format, args...)}
}

// Invariant is one registered check.
type Invariant struct {
	// Name is the stable identifier, category/slug.
	Name string
	// Category classifies the invariant.
	Category Category
	// Doc is the one-line statement of what must hold.
	Doc string
	// Check measures the context. A panic inside Check is captured by
	// the runner and reported as a failed finding, so a corrupted
	// corpus fails its checks instead of crashing the engine.
	Check func(*Context) Finding
}

// Registry returns every registered invariant: structural, then
// metric, then differential, each in declaration order.
func Registry() []Invariant {
	var out []Invariant
	out = append(out, structuralInvariants()...)
	out = append(out, metricInvariants()...)
	out = append(out, differentialInvariants()...)
	return out
}

// Report is the outcome of one verification run.
type Report struct {
	// Seed echoes the context's corpus seed.
	Seed int64
	// Findings holds one entry per executed invariant, registry order.
	Findings []Finding
}

// OK reports whether every finding passed.
func (r *Report) OK() bool {
	for _, f := range r.Findings {
		if !f.OK {
			return false
		}
	}
	return true
}

// Failures returns the findings that did not hold, registry order.
func (r *Report) Failures() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if !f.OK {
			out = append(out, f)
		}
	}
	return out
}

// FailureNames returns the sorted names of the failed invariants.
func (r *Report) FailureNames() []string {
	var out []string
	for _, f := range r.Failures() {
		out = append(out, f.Name)
	}
	sort.Strings(out)
	return out
}

// Counts tallies the report: checks run, passed, failed, skipped.
func (r *Report) Counts() (run, passed, failed, skipped int) {
	for _, f := range r.Findings {
		switch {
		case f.Skipped:
			skipped++
		case f.OK:
			passed++
		default:
			failed++
		}
		run++
	}
	return run, passed, failed, skipped
}

// String renders the per-check table cmd/specverify prints.
func (r *Report) String() string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "category\tinvariant\tstatus\tdetail")
	for _, f := range r.Findings {
		status := "ok"
		switch {
		case f.Skipped:
			status = "skip"
		case !f.OK:
			status = "FAIL"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", f.Category, f.Name, status, f.Detail)
	}
	tw.Flush()
	run, passed, failed, skipped := r.Counts()
	fmt.Fprintf(&sb, "%d invariants: %d ok, %d failed, %d skipped (seed %d)\n",
		run, passed, failed, skipped, r.Seed)
	return sb.String()
}

// Run executes the registered invariants over ctx and collects their
// findings in registry order. With no categories given every invariant
// runs; otherwise only those in the listed categories. Checks are
// independent, so they fan out over internal/par — the same bounded
// pool the analyses use — and land at their registry index regardless
// of scheduling.
func Run(ctx *Context, categories ...Category) *Report {
	all := Registry()
	selected := all[:0:0]
	if len(categories) == 0 {
		selected = all
	} else {
		want := make(map[Category]bool, len(categories))
		for _, c := range categories {
			want[c] = true
		}
		for _, inv := range all {
			if want[inv.Category] {
				selected = append(selected, inv)
			}
		}
	}
	findings := par.Map(len(selected), func(i int) Finding {
		return runOne(selected[i], ctx)
	})
	return &Report{Seed: ctx.Seed, Findings: findings}
}

// runOne executes a single invariant, converting a panic into a failed
// finding so one corrupted curve cannot take down the whole run.
func runOne(inv Invariant, ctx *Context) (f Finding) {
	defer func() {
		if rec := recover(); rec != nil {
			f = Finding{
				Name:     inv.Name,
				Category: inv.Category,
				OK:       false,
				Detail:   fmt.Sprintf("check panicked: %v", rec),
			}
		}
	}()
	f = inv.Check(ctx)
	f.Name = inv.Name
	f.Category = inv.Category
	return f
}

// Corpus verifies an already-loaded repository (synthetic == false, so
// generation-determinism checks are skipped).
func Corpus(rp *dataset.Repository, seed int64) *Report {
	return Run(NewContext(rp, seed, false))
}

// Synthetic generates the calibrated corpus at seed and verifies it
// with every invariant enabled.
func Synthetic(seed int64) (*Report, error) {
	ctx, err := SyntheticContext(seed)
	if err != nil {
		return nil, err
	}
	return Run(ctx), nil
}
