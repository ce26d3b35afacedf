// Package cli centralizes the conventions shared by every cmd binary:
// one usage layout, a uniform -version flag, exit-0 -h handling, and
// the -in/-seed corpus loading of the analysis binaries, and the
// -intensity profile argument of specsim and specplace.
// Before this helper each binary hand-rolled its flag set and their
// usage output diverged; now `specX -h` and `specX -version` look and
// behave the same across the suite.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/dataset"
	"repro/internal/synth"
	"repro/internal/trace"
)

// Version is the repository-wide version string every binary reports.
// Bump it when the serving API or the CLI surface changes shape.
const Version = "0.9.0"

// New returns a flag set with the shared conventions: ContinueOnError
// parsing, usage on stderr with a one-line summary above the flag list,
// and the synopsis line. Register flags on it, then hand it to Parse.
func New(name, synopsis, summary string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: %s %s\n\n%s\n\nflags:\n", name, synopsis, summary)
		fs.PrintDefaults()
	}
	return fs
}

// Parse parses args, providing the shared -version flag and normalizing
// -h: both print to their stream and report done=true with a nil error,
// so callers exit 0 via `if done || err != nil { return err }`.
func Parse(fs *flag.FlagSet, args []string, stdout io.Writer) (done bool, err error) {
	showVersion := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return true, nil
		}
		return false, err
	}
	if *showVersion {
		fmt.Fprintf(stdout, "%s %s (%s %s/%s)\n", fs.Name(), Version, runtime.Version(), runtime.GOOS, runtime.GOARCH)
		return true, nil
	}
	return false, nil
}

// LoadCorpus reads the dataset file at path (CSV, JSON or EPFB), or
// generates the calibrated synthetic corpus at seed when path is empty.
func LoadCorpus(path string, seed int64) (*dataset.Repository, error) {
	if path == "" {
		return synth.NewRepository(synth.Config{Seed: seed})
	}
	return dataset.ReadPath(path)
}

// Intensity resolves an -intensity argument: a generator name (diurnal,
// duck) whose profile averages mean, or the path of a CSV profile that
// carries its own levels. stepSec is the profile's step in seconds.
func Intensity(arg string, stepSec, mean float64) (*trace.IntensityProfile, error) {
	switch arg {
	case "diurnal":
		return trace.DiurnalIntensity(trace.IntensityConfig{StepSeconds: stepSec, BaseKgPerKWh: mean})
	case "duck":
		return trace.DuckCurveIntensity(trace.IntensityConfig{StepSeconds: stepSec, BaseKgPerKWh: mean})
	default:
		f, err := os.Open(arg)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.ReadIntensityCSV(f, stepSec)
	}
}
