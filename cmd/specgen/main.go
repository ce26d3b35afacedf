// Command specgen generates the calibrated synthetic SPECpower corpus
// (517 submissions, 477 valid) and writes it as CSV or JSON.
//
// Usage:
//
//	specgen [-seed N] [-format csv|json] [-valid-only] [-out FILE]
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/dataset"
	"repro/internal/report"
	"repro/internal/synth"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "specgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := cli.New("specgen",
		"[-seed N] [-servers N] [-format csv|json|epfb] [-valid-only] [-out FILE]",
		"generates the calibrated synthetic SPECpower corpus (517 submissions, 477 valid) — or, with -servers, a fleet-scale corpus — as CSV, JSON, or binary EPFB", stderr)
	var (
		seed      = fs.Int64("seed", 1, "generator seed; equal seeds reproduce the corpus bit for bit")
		servers   = fs.Int("servers", 0, "fleet mode: generate N servers from the calibrated plan tables and stream them shard by shard (0 = the paper's 517-submission corpus)")
		format    = fs.String("format", "csv", "output format: csv, json, or epfb (columnar binary)")
		validOnly = fs.Bool("valid-only", false, "emit only the 477 compliant results (corpus mode only)")
		out       = fs.String("out", "", "output file (default stdout)")
		quiet     = fs.Bool("q", false, "suppress the summary line on stderr")
	)
	if done, err := cli.Parse(fs, args, stdout); done || err != nil {
		return err
	}
	switch *format {
	case "csv", "json", "epfb":
	default:
		return fmt.Errorf("unknown format %q (want csv, json, or epfb)", *format)
	}
	if *servers < 0 {
		return fmt.Errorf("-servers %d: want a positive fleet size, or 0 for the paper corpus", *servers)
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

	if *servers > 0 {
		if *validOnly {
			return fmt.Errorf("-servers is incompatible with -valid-only")
		}
		if err := writeFleet(w, *seed, *servers, *format); err != nil {
			return fmt.Errorf("-servers %d: %w", *servers, err)
		}
		if !*quiet {
			fmt.Fprintf(stderr, "fleet: %d servers (seed %d, %s)\n", *servers, *seed, *format)
		}
		return nil
	}

	rp, err := synth.NewRepository(synth.Config{Seed: *seed})
	if err != nil {
		return err
	}
	results := rp.All()
	if *validOnly {
		results = rp.Valid().All()
	}

	switch *format {
	case "csv":
		err = dataset.WriteCSV(w, results)
	case "json":
		err = dataset.WriteJSON(w, results)
	case "epfb":
		err = dataset.WriteColumns(w, dataset.BuildColumns(results))
	}
	if err != nil {
		return err
	}
	if !*quiet {
		fmt.Fprint(stderr, report.Summary(rp))
	}
	return nil
}

// writeFleet streams a -servers fleet to w shard by shard: the fleet
// never exists in memory at once, so the output size is bounded only
// by disk. The bytes equal a one-shot encode of GenerateFleet's output
// in every format.
func writeFleet(w io.Writer, seed int64, servers int, format string) error {
	var (
		write  func(cs *dataset.ColumnStore) error
		finish func() error
	)
	switch format {
	case "epfb":
		cw, err := dataset.NewColumnWriter(w)
		if err != nil {
			return err
		}
		write, finish = cw.WriteChunk, cw.Flush
	case "csv":
		sw := dataset.NewCSVWriter(w)
		write = func(cs *dataset.ColumnStore) error { return sw.Append(cs.Materialize()) }
		finish = sw.Flush
	case "json":
		jw := dataset.NewJSONWriter(w)
		write = func(cs *dataset.ColumnStore) error { return jw.Append(cs.Materialize()) }
		finish = jw.Close
	default:
		return fmt.Errorf("unknown format %q", format)
	}
	cfg := synth.FleetConfig{Seed: seed, Servers: servers}
	if err := synth.GenerateFleetShards(cfg, func(_ int, cs *dataset.ColumnStore) error { return write(cs) }); err != nil {
		return err
	}
	return finish()
}
