package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

func TestRunDefaultPlan(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-fleet", "20", "-demand", "0.4"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"logical clusters", "proportional", "pack-to-full", "spread-evenly", "satisfied"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunWithPowerCap(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-fleet", "15", "-demand", "0", "-cap-watts", "3000", "-power-off"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "under a 3000 W cap") {
		t.Errorf("cap plan missing:\n%s", out.String())
	}
}

func TestRunEmptyYearRange(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-from", "1999", "-to", "2000"}, &out, &errBuf); err == nil {
		t.Error("empty range accepted")
	}
}

// TestSampleSeed pins the fleet-selection fix: the default seeded
// sample is deterministic but differs from the legacy take-first-n
// prefix, which stays reachable at -sample-seed 0.
func TestSampleSeed(t *testing.T) {
	runOut := func(args ...string) string {
		t.Helper()
		var out, errBuf bytes.Buffer
		if err := run(append([]string{"-fleet", "10", "-demand", "0.4"}, args...), &out, &errBuf); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	def := runOut()
	if def != runOut() {
		t.Error("default sample not deterministic")
	}
	if def != runOut("-sample-seed", "1") {
		t.Error("default differs from -sample-seed 1")
	}
	legacy := runOut("-sample-seed", "0")
	if legacy == def {
		t.Error("seeded sample identical to legacy prefix — sampling is not happening")
	}
	if legacy != runOut("-sample-seed", "0") {
		t.Error("legacy prefix not deterministic")
	}
	if runOut("-sample-seed", "7") == def {
		t.Error("different sample seeds selected the same fleet")
	}
}

// TestOptimizeDigestWorkerInvariant is the golden smoke test for the
// composition search: the full report must be byte-identical at 1, 2,
// and 8 workers.
func TestOptimizeDigestWorkerInvariant(t *testing.T) {
	var first string
	for _, workers := range []string{"1", "2", "8"} {
		var out, errBuf bytes.Buffer
		err := run([]string{
			"-optimize", "-models", "4", "-max-per-model", "5",
			"-opt-days", "2", "-opt-step", "300", "-objective", "cost",
			"-workers", workers,
		}, &out, &errBuf)
		if err != nil {
			t.Fatalf("workers=%s: %v", workers, err)
		}
		sum := sha256.Sum256(out.Bytes())
		digest := hex.EncodeToString(sum[:])
		if first == "" {
			first = digest
			for _, want := range []string{"composition search", "exhaustive", "pack+off", "optimum:", "USD"} {
				if !strings.Contains(out.String(), want) {
					t.Errorf("report missing %q:\n%s", want, out.String())
				}
			}
		} else if digest != first {
			t.Fatalf("workers=%s digest %s != workers=1 digest %s", workers, digest, first)
		}
	}
}

// TestOptimizeCarbonAware covers the time-varying flags: intensity
// shapes, the region list, and embodied amortization, all worker-
// invariant on the report digest.
func TestOptimizeCarbonAware(t *testing.T) {
	base := []string{
		"-optimize", "-models", "4", "-max-per-model", "4",
		"-opt-days", "2", "-opt-step", "300", "-objective", "carbon",
	}
	runOut := func(args ...string) string {
		t.Helper()
		var out, errBuf bytes.Buffer
		if err := run(append(append([]string{}, base...), args...), &out, &errBuf); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}

	var first string
	for _, workers := range []string{"1", "2", "8"} {
		s := runOut("-intensity", "duck", "-rate-bins", "6", "-embodied", "1300", "-workers", workers)
		sum := sha256.Sum256([]byte(s))
		digest := hex.EncodeToString(sum[:])
		if first == "" {
			first = digest
			for _, want := range []string{"rates: time-varying (duck)", "demand×rate cells", "optimum:", "kgCO2"} {
				if !strings.Contains(s, want) {
					t.Errorf("report missing %q:\n%s", want, s)
				}
			}
		} else if digest != first {
			t.Fatalf("workers=%s digest differs", workers)
		}
	}

	// A constant rate must keep the static 1-D path: no fold line.
	if s := runOut(); strings.Contains(s, "rates: time-varying") {
		t.Errorf("static run reports a fold:\n%s", s)
	}

	// Regions: the report gains a region column and sites the optimum.
	s := runOut("-intensity", "diurnal",
		"-regions", "dirty:0.10:0.45:1.5, clean:0.12:0.15:1.2")
	for _, want := range []string{"region", "clean", "optimum:", " in clean"} {
		if !strings.Contains(s, want) {
			t.Errorf("region report missing %q:\n%s", want, s)
		}
	}
}

// TestOptimizeGoldenStdout pins the optimize report byte-for-byte: the
// two CI smoke commands and the duck-curve run each hash to a committed
// sha256, so a change that moves any printed figure fails here.
func TestOptimizeGoldenStdout(t *testing.T) {
	base := []string{"-optimize", "-opt-days", "2", "-opt-step", "300", "-models", "4"}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"cost smoke", []string{"-max-per-model", "5", "-objective", "cost"},
			"17db5d09fece1a0dc1c57275ff9786aad81af2b5a42ab6fdaae3de2636a85b21"},
		{"region smoke", []string{"-max-per-model", "5", "-objective", "carbon", "-intensity", "diurnal",
			"-embodied", "1300", "-regions", "dirty:0.10:0.45:1.5,clean:0.12:0.15:1.2"},
			"8252860760b9bdd7a5c8986d3f5c0aa62b190a95858eeb7461fc4fc7c01dd837"},
		{"duck curve", []string{"-max-per-model", "4", "-objective", "carbon", "-intensity", "duck",
			"-rate-bins", "6", "-embodied", "1300"},
			"50ed1b57da0c3084f0a229feb4bc719f91d21d1149f665d659983564015610a6"},
	}
	for _, tc := range cases {
		var out, errBuf bytes.Buffer
		if err := run(append(append([]string{}, base...), tc.args...), &out, &errBuf); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sum := sha256.Sum256(out.Bytes())
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: stdout digest %s, want %s\n%s", tc.name, got, tc.want, out.String())
		}
	}
}

// TestOptimizeBadArgs covers optimize-mode flag validation.
func TestOptimizeBadArgs(t *testing.T) {
	cases := [][]string{
		{"-optimize", "-objective", "joules"},
		{"-optimize", "-demand", "0"},
		{"-optimize", "-demand", "1.5"},
		{"-optimize", "-models", "0"},
		{"-optimize", "-top", "-1"},
		{"-optimize", "-intensity", "diurnal"},
		{"-optimize", "-objective", "carbon", "-intensity", "/nope/missing.csv"},
		{"-optimize", "-objective", "carbon", "-intensity", "diurnal", "-intensity-step", "700"},
		{"-optimize", "-objective", "carbon", "-regions", "a:0.1:0.45"},
		{"-optimize", "-objective", "carbon", "-regions", "a:0.1:zz:1.5"},
		{"-optimize", "-objective", "carbon", "-regions", " , "},
		{"-optimize", "-objective", "carbon", "-embodied", "1300", "-lifetime-years", "0"},
		{"-optimize", "-objective", "cost", "-embodied", "1300"},
		{"-optimize", "-objective", "cost", "-rate-bins", "-1"},
		{"-optimize", "-opt-step", "0"},
		{"-optimize", "-opt-step", "-60"},
	}
	for _, args := range cases {
		var out, errBuf bytes.Buffer
		if err := run(args, &out, &errBuf); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// A fleet of fewer than one server is an error naming the flag, in
// the plan and the optimize mode alike, not a slice-bounds panic.
func TestRunRejectsBadFleetSize(t *testing.T) {
	for _, args := range [][]string{
		{"-fleet", "-3"},
		{"-fleet", "0"},
		{"-optimize", "-fleet", "-3"},
	} {
		var out, errBuf bytes.Buffer
		err := run(args, &out, &errBuf)
		if err == nil || !strings.Contains(err.Error(), "-fleet") {
			t.Errorf("args %v: error %v does not name -fleet", args, err)
		}
	}
}
