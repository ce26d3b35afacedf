// Command specverify runs the paper-invariant verification engine over
// a corpus and exits non-zero if any invariant fails.
//
// By default it generates the calibrated synthetic corpus at -seed and
// runs every registered invariant: structural (the 517/477/74 counts
// and curve shape facts), metric (the paper's published numbers
// recomputed from the raw disclosure fields), and differential (cold
// recomputation versus caches, worker schedules, the serving layer
// versus the library render). With -in it verifies a corpus loaded
// from a CSV or JSON file instead; generation-dependent invariants are
// then skipped.
//
// The metric bands (internal/verify/tol) are calibrated for the default
// corpus, seed 1. Another seed may fall outside one — seed 2 fails
// metric/eq2-fit — so only seed 1 gets a calibration verdict here;
// internal/synth's TestInvariantsAcrossSeeds holds other seeds to the
// wider any-seed bands.
//
// Usage:
//
//	specverify [-seed N] [-in FILE] [-category LIST] [-workers N] [-list] [-q]
package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"repro/internal/cli"
	"repro/internal/dataset"
	"repro/internal/par"
	"repro/internal/verify"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "specverify:", err)
		os.Exit(1)
	}
}

// parseCategories maps a comma-separated -category value onto the
// registered categories, rejecting unknown names.
func parseCategories(s string) ([]verify.Category, error) {
	if s == "" {
		return nil, nil
	}
	known := make(map[verify.Category]bool)
	for _, c := range verify.Categories() {
		known[c] = true
	}
	var out []verify.Category
	for _, part := range strings.Split(s, ",") {
		c := verify.Category(strings.TrimSpace(part))
		if !known[c] {
			return nil, fmt.Errorf("unknown category %q (want structural, metric or differential)", part)
		}
		out = append(out, c)
	}
	return out, nil
}

// list prints the invariant registry without running anything.
func list(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "category\tinvariant\tchecks that")
	for _, inv := range verify.Registry() {
		fmt.Fprintf(tw, "%s\t%s\t%s\n", inv.Category, inv.Name, inv.Doc)
	}
	tw.Flush()
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := cli.New("specverify",
		"[-seed N] [-in FILE] [-category LIST] [-workers N] [-list] [-q]",
		"runs the paper-invariant verification engine (structural, metric and differential checks) over a synthetic or loaded corpus and exits non-zero on any failure", stderr)
	var (
		seed     = fs.Int64("seed", 1, "generator seed for the synthetic corpus (ignored with -in); the metric bands are calibrated for seed 1")
		in       = fs.String("in", "", "verify a CSV/JSON corpus file instead of generating one")
		category = fs.String("category", "", "comma-separated categories to run (default all): structural,metric,differential")
		workers  = fs.Int("workers", 0, "cap the worker pool (0 = GOMAXPROCS)")
		showList = fs.Bool("list", false, "list the registered invariants and exit")
		quiet    = fs.Bool("q", false, "print only failures and the summary line")
	)
	if done, err := cli.Parse(fs, args, stdout); done || err != nil {
		return err
	}
	if *showList {
		list(stdout)
		return nil
	}
	categories, err := parseCategories(*category)
	if err != nil {
		return err
	}
	if *workers > 0 {
		par.SetMaxWorkers(*workers)
	}

	var ctx *verify.Context
	if *in != "" {
		rp, err := dataset.ReadPath(*in)
		if err != nil {
			return fmt.Errorf("load %s: %w", *in, err)
		}
		ctx = verify.NewContext(rp, *seed, false)
	} else {
		ctx, err = verify.SyntheticContext(*seed)
		if err != nil {
			return err
		}
	}

	rep := verify.Run(ctx, categories...)
	if *quiet {
		for _, f := range rep.Failures() {
			fmt.Fprintf(stdout, "FAIL %s: %s\n", f.Name, f.Detail)
		}
		run, passed, failed, skipped := rep.Counts()
		fmt.Fprintf(stdout, "%d invariants: %d ok, %d failed, %d skipped (seed %d)\n",
			run, passed, failed, skipped, rep.Seed)
	} else {
		fmt.Fprint(stdout, rep.String())
	}
	if !rep.OK() {
		return fmt.Errorf("%d invariants failed: %s",
			len(rep.Failures()), strings.Join(rep.FailureNames(), ", "))
	}
	return nil
}
