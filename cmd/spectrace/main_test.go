package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func TestRunWeekSimulation(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-fleet", "15", "-days", "2"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"spread", "pack", "pack+off", "optimal-region", "kg CO2", "annualized", "/yr"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

// TestRunPowerOff checks that powering idle servers off saves energy:
// the pack+off row uses less than the pack row.
func TestRunPowerOff(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-fleet", "10", "-days", "1", "-seed", "4"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	rows := parseRows(out.String())
	kWh := func(policy string) float64 {
		f := strings.Fields(rows[policy].fields)
		if len(f) == 0 {
			t.Fatalf("no %s row:\n%s", policy, out.String())
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if on, off := kWh("pack"), kWh("pack+off"); off >= on {
		t.Errorf("pack+off %v kWh should undercut pack %v kWh", off, on)
	}
}

func TestRunErrors(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-from", "1999", "-to", "2000"}, &out, &errBuf); err == nil {
		t.Error("empty year range accepted")
	}
	if err := run([]string{"-swing", "2"}, &out, &errBuf); err == nil {
		t.Error("invalid swing accepted")
	}
	if err := run([]string{"-in", "/nope.csv"}, &out, &errBuf); err == nil {
		t.Error("missing file accepted")
	}
	for _, n := range []string{"0", "-3"} {
		err := run([]string{"-fleet", n}, &out, &errBuf)
		if err == nil || !strings.Contains(err.Error(), "-fleet") {
			t.Errorf("-fleet %s: error %v does not name the flag", n, err)
		}
	}
	// A non-finite demand shape is an error, not a panic.
	for _, args := range [][]string{{"-load", "NaN"}, {"-swing", "NaN"}} {
		if err := run(args, &out, &errBuf); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
