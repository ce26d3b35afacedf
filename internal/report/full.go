package report

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/dataset"
	"repro/internal/par"
	"repro/internal/placement"
)

// Options selects what the full report includes.
type Options struct {
	// Sweeps runs the hardware-experiment simulations (Fig. 18-21),
	// which take a few seconds at full interval length. SweepSeconds
	// shortens the simulated measurement intervals (0 = benchmark
	// default of 240 s per interval).
	Sweeps       bool
	SweepSeconds int
	// Seed drives the sweep simulations.
	Seed int64
}

// renderAll renders the sections keep selects across the internal/par
// worker pool and joins the form of each in table order; the first
// failing section in table order gives the error, and a section the
// corpus cannot supply is left out. Workers take sections from the end
// of the table, where the extensions and the sweeps do the longest work
// (the era fits, the Eq. 2 fit, the simulations), so it starts first and
// the short figure sections fill in behind it. Sections are independent
// (repository reads are lock-free and cached, shared inputs are computed
// once per render, sweep cells derive per-cell seeds), so the output is
// byte-identical at any worker count — the same contract the corpus
// analyses established in internal/par.
func renderAll(rp *dataset.Repository, opts Options, keep func(*section) bool,
	form func(s *section, ch chartForm, table string) string) (string, error) {
	var secs []*section
	for i := range sections {
		if keep(&sections[i]) {
			secs = append(secs, &sections[i])
		}
	}
	c := newRenderCtx(rp, opts)
	parts, errs := make([]string, len(secs)), make([]error, len(secs))
	par.ForEach(len(secs), func(k int) {
		i := len(secs) - 1 - k
		ch, table, err := secs[i].render(c)
		if errors.As(err, new(absentError)) {
			return
		}
		if errs[i] = err; err == nil {
			parts[i] = form(secs[i], ch, table)
		}
	})
	if err := cmp.Or(errs...); err != nil {
		return "", err
	}
	return strings.Join(parts, ""), nil
}

// inReport selects what a whole report includes: every corpus section,
// and the sweep figures when opts.Sweeps is set.
func inReport(opts Options) func(*section) bool {
	return func(s *section) bool { return s.corpus || opts.Sweeps }
}

// text is a section's terminal form: its chart, then its table.
func text(ch chartForm, table string) string {
	if ch == nil {
		return table
	}
	return ch.Render() + table
}

// textBlock is text followed by a blank line, the unit Full and Figures
// join.
func textBlock(_ *section, ch chartForm, table string) string {
	return text(ch, table+"\n")
}

// Full regenerates the paper's complete evaluation section: every
// figure and table plus the headline statistics, in paper order.
func Full(rp *dataset.Repository, opts Options) (string, error) {
	return renderAll(rp, opts, inReport(opts), textBlock)
}

// recentFleet profiles up to n recent servers for the cluster
// extension figure. The year column selects the members; only the
// chosen rows materialize.
func recentFleet(rp *dataset.Repository, n int) []*placement.Profile {
	cs := rp.Columns()
	hwYears := cs.HWYearCol()
	rows := make([]int, 0, n)
	for i, y := range hwYears {
		if y >= 2012 && y <= 2016 {
			rows = append(rows, i)
			if len(rows) == n {
				break
			}
		}
	}
	out := make([]*placement.Profile, 0, len(rows))
	for _, i := range rows {
		r := cs.Result(i)
		c, err := r.Curve()
		if err != nil {
			continue
		}
		p, err := placement.NewProfile(r.ID, c)
		if err != nil {
			continue
		}
		out = append(out, p)
	}
	return out
}

// findSample locates the Fig. 1 sample server: the 2016 row whose
// overall score is nearest the paper's 12212 (EP 1.02), found by scanning
// the EE column over the 2016 rows and materializing only the winner. It returns
// nil when the corpus has no 2016 server.
func findSample(rp *dataset.Repository) *dataset.Result {
	cs := rp.Columns()
	ees := cs.OverallEECol()
	best := -1
	bestGap := 1e18
	for _, r := range cs.HWYearGroups().Span(2016, 2016) {
		if gap := math.Abs(ees[r] - 12212); gap < bestGap {
			best, bestGap = int(r), gap
		}
	}
	if best < 0 {
		return nil
	}
	return cs.Result(best)
}

// Summary prints a one-paragraph corpus overview used by the CLIs.
func Summary(rp *dataset.Repository) string {
	valid := rp.Valid()
	return fmt.Sprintf(
		"corpus: %d submissions, %d valid, %d non-compliant, %d with published ≠ availability year\n",
		rp.Len(), valid.Len(), rp.NonCompliant().Len(), valid.YearMismatched().Len())
}
