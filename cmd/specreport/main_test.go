package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/synth"
)

func TestRunNoSweeps(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-no-sweeps"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Fig.1", "Fig.17", "Table II", "Eq.2", "Fig.E5"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Contains(s, "Fig.18") {
		t.Error("-no-sweeps still ran sweeps")
	}
}

func TestRunWithSweepsToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.txt")
	var out, errBuf bytes.Buffer
	if err := run([]string{"-sweep-seconds", "5", "-out", path}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fig.18", "Fig.19", "Fig.20", "Fig.21"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("report file missing %q", want)
		}
	}
}

func TestRunMissingInput(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-in", "/nope.csv"}, &out, &errBuf); err == nil {
		t.Error("missing input accepted")
	}
}

// A non-positive sweep interval is an error naming the flag, not a
// silent fall-back to SPEC's 240 s.
func TestRunRejectsBadSweepSeconds(t *testing.T) {
	for _, args := range [][]string{
		{"-sweep-seconds", "0"},
		{"-sweep-seconds", "-5"},
		{"-no-sweeps", "-sweep-seconds", "-5"},
	} {
		var out, errBuf bytes.Buffer
		err := run(args, &out, &errBuf)
		if err == nil || !strings.Contains(err.Error(), "-sweep-seconds") {
			t.Errorf("args %v: error %v does not name -sweep-seconds", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("args %v: rejected run wrote %d bytes", args, out.Len())
		}
	}
}

func TestRunHTMLFormat(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-no-sweeps", "-format", "html"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "<!DOCTYPE html>") {
		t.Error("html format did not produce HTML")
	}
	if err := run([]string{"-format", "pdf"}, &out, &errBuf); err == nil {
		t.Error("unknown format accepted")
	}
}

// fleetFileDigest pins `specreport -in F -no-sweeps` on the 5,000-server
// seed-3 fleet. The CSV, JSON and EPFB v2 forms of the fleet carry the
// same rows, so all three files must produce these exact bytes.
const fleetFileDigest = "814ceeb9c30c32b2cfdb0c9c520816d36c69de0978ad887da76b3d575595308b"

func TestReportFromFileGolden(t *testing.T) {
	results, err := synth.GenerateFleet(synth.FleetConfig{Seed: 3, Servers: 5000})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	encoders := []struct {
		name string
		enc  func(*os.File) error
	}{
		{"fleet.csv", func(f *os.File) error { return dataset.WriteCSV(f, results) }},
		{"fleet.json", func(f *os.File) error { return dataset.WriteJSON(f, results) }},
		{"fleet.epfb", func(f *os.File) error { return dataset.WriteColumns(f, dataset.BuildColumns(results)) }},
	}
	for _, e := range encoders {
		path := filepath.Join(dir, e.name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.enc(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		var out, errBuf bytes.Buffer
		if err := run([]string{"-in", path, "-no-sweeps"}, &out, &errBuf); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(out.Bytes())); got != fleetFileDigest {
			t.Errorf("%s: report digest = %s, want %s (output drifted)", e.name, got, fleetFileDigest)
		}
	}
}

// TestNonFiniteCellIsNonCompliant: one NaN power cell in an input file
// makes its row non-compliant, and the report finishes. NaN passes
// every ordered comparison, so without the finiteness check the row
// would count as valid with a NaN EP for the charts to plot. The CSV
// and EPFB v2 forms of the file must give the same report.
func TestNonFiniteCellIsNonCompliant(t *testing.T) {
	results, err := synth.Generate(synth.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	poisoned := false
	for _, r := range results {
		if r.ID == "power_ssj2008-0001" {
			r.Levels[4].AvgPowerWatts = math.NaN()
			poisoned = true
		}
	}
	if !poisoned {
		t.Fatal("power_ssj2008-0001 not in the corpus")
	}
	dir := t.TempDir()
	var reports []string
	for _, e := range []struct {
		name string
		enc  func(*os.File) error
	}{
		{"corpus.csv", func(f *os.File) error { return dataset.WriteCSV(f, results) }},
		{"corpus.epfb", func(f *os.File) error { return dataset.WriteColumns(f, dataset.BuildColumns(results)) }},
	} {
		path := filepath.Join(dir, e.name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.enc(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		var out, errBuf bytes.Buffer
		done := make(chan error, 1)
		go func() { done <- run([]string{"-in", path, "-no-sweeps"}, &out, &errBuf) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
		case <-time.After(2 * time.Minute):
			t.Fatalf("%s: specreport did not finish", e.name)
		}
		if !strings.Contains(errBuf.String(), "476 valid, 41 non-compliant") {
			t.Errorf("%s: summary %q, want 476 valid and 41 non-compliant", e.name, errBuf.String())
		}
		reports = append(reports, out.String())
	}
	if reports[0] != reports[1] {
		t.Error("the CSV and EPFB inputs gave different reports")
	}
}
