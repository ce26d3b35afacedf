// Command specanalyze runs the paper's analyses over a SPECpower
// dataset (a CSV/JSON file produced by specgen, or a freshly generated
// synthetic corpus) and prints the requested figures and tables.
//
// Usage:
//
//	specanalyze [-in FILE] [-seed N] [-fig LIST] [-stats]
//
// -fig takes a comma-separated list of figure selectors — the paper's
// figures 1 to 17, its tables t1 and t2, the extensions e1 and e3 to e7
// — or "all". The figures print in report order; an unknown selector is
// an error that lists the valid ones.
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "specanalyze:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := cli.New("specanalyze",
		"[-in FILE] [-seed N] [-fig LIST] [-stats] [-json]",
		"runs the paper's analyses over a SPECpower dataset and prints the requested figures and tables", stderr)
	var (
		in        = fs.String("in", "", "dataset file (.csv or .json); empty generates the synthetic corpus")
		seed      = fs.Int64("seed", 1, "seed for the synthetic corpus when -in is empty")
		figs      = fs.String("fig", "all", "comma-separated figures to print ("+strings.Join(report.FigureIDs(), " ")+") or all")
		withStats = fs.Bool("stats", true, "print the headline statistics summary")
		show      = fs.String("show", "", "print one result as a SPEC-style disclosure and exit")
		asJSON    = fs.Bool("json", false, "emit every analysis as machine-readable JSON and exit")
	)
	if done, err := cli.Parse(fs, args, stdout); done || err != nil {
		return err
	}

	rp, err := cli.LoadCorpus(*in, *seed)
	if err != nil {
		return err
	}
	valid := rp.Valid()
	fmt.Fprint(stderr, report.Summary(rp))

	if *asJSON {
		data, err := report.MarshalJSONSummary(rp)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(data))
		return nil
	}

	if *show != "" {
		for _, r := range rp.All() {
			if r.ID == *show {
				out, err := report.Disclosure(r)
				if err != nil {
					return err
				}
				fmt.Fprintln(stdout, out)
				return nil
			}
		}
		return fmt.Errorf("result %q not found", *show)
	}

	ids := report.FigureIDs()
	if *figs != "all" {
		ids = strings.Split(*figs, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
		}
	}
	out, err := report.Figures(valid, ids)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, out)
	if *withStats {
		summary, err := report.StatsSummary(valid)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, summary)
	}
	return nil
}
