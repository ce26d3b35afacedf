// Command specreport regenerates the paper's complete evaluation
// section — every figure, table, and headline statistic — over the
// synthetic corpus (or a dataset file), including the simulated
// hardware experiments of Fig. 18-21.
//
// Usage:
//
//	specreport [-seed N] [-in FILE] [-no-sweeps] [-sweep-seconds S] [-workers N] [-out FILE]
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/par"
	"repro/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "specreport:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := cli.New("specreport",
		"[-seed N] [-in FILE] [-format text|html] [-no-sweeps] [-workers N] [-out FILE]",
		"regenerates the paper's complete evaluation section: every figure, table and headline statistic", stderr)
	var (
		seed     = fs.Int64("seed", 1, "seed for the synthetic corpus and sweeps")
		in       = fs.String("in", "", "dataset file (.csv or .json); empty generates the synthetic corpus")
		noSweeps = fs.Bool("no-sweeps", false, "skip the Fig. 18-21 hardware-experiment simulations")
		sweepSec = fs.Int("sweep-seconds", 30, "simulated measurement interval for sweeps (SPEC default 240)")
		format   = fs.String("format", "text", "output format: text or html (html embeds SVG figures)")
		out      = fs.String("out", "", "output file (default stdout)")
		workers  = fs.Int("workers", 0, "max parallel workers for sections and sweep cells (0 = all cores); output is identical at any count")
	)
	if done, err := cli.Parse(fs, args, stdout); done || err != nil {
		return err
	}
	if *sweepSec <= 0 {
		return fmt.Errorf("-sweep-seconds %d: want a positive interval", *sweepSec)
	}
	if *workers > 0 {
		defer par.SetMaxWorkers(par.SetMaxWorkers(*workers))
	}

	rp, err := cli.LoadCorpus(*in, *seed)
	if err != nil {
		return err
	}
	fmt.Fprint(stderr, report.Summary(rp))

	ropts := report.Options{
		Sweeps:       !*noSweeps,
		SweepSeconds: *sweepSec,
		Seed:         *seed,
	}
	var text string
	switch *format {
	case "text":
		text, err = report.Full(rp.Valid(), ropts)
	case "html":
		text, err = report.FullHTML(rp.Valid(), ropts)
	default:
		return fmt.Errorf("unknown format %q (want text or html)", *format)
	}
	if err != nil {
		return err
	}
	w := stdout
	if *out != "" {
		f, cerr := os.Create(*out)
		if cerr != nil {
			return cerr
		}
		// err is run's result, so a failed Close fails the run.
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		w = f
	}
	_, err = io.WriteString(w, text)
	return err
}
