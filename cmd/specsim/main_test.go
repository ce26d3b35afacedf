package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCSVDigestWorkerInvariant is the golden worker-invariance check:
// the full per-step CSV stream must be byte-identical at workers 1, 2,
// and 8 — the trace segments stitch deterministically no matter how
// they were scheduled. Latency sampling stays off here (its worker
// invariance is pinned by fleetsim's stitching test on small servers);
// at synthetic-fleet capacities the transaction-level sampler would
// dominate the test's runtime.
func TestCSVDigestWorkerInvariant(t *testing.T) {
	var first string
	for _, workers := range []string{"1", "2", "8"} {
		var out, errBuf bytes.Buffer
		err := run([]string{
			"-servers", "64", "-duration", "2", "-step", "300",
			"-format", "csv", "-workers", workers,
		}, &out, &errBuf)
		if err != nil {
			t.Fatalf("workers=%s: %v", workers, err)
		}
		sum := sha256.Sum256(out.Bytes())
		digest := hex.EncodeToString(sum[:])
		if first == "" {
			first = digest
			if lines := strings.Count(out.String(), "\n"); lines != 1+576 {
				t.Fatalf("csv lines = %d, want header + 576 steps", lines)
			}
		} else if digest != first {
			t.Fatalf("workers=%s digest %s != workers=1 digest %s", workers, digest, first)
		}
	}
}

// csvDigests pins the per-step CSV of specsim's default seed-3 week
// under every policy, and of two high-load runs that drive the
// optimal-region fill past every engage target into its top-up phase
// (on 1,474 of 2,880 and on all 1,440 steps), beside the same runs
// under spread.
var csvDigests = []struct {
	args []string
	want string
}{
	{[]string{"-policy", "spread", "-seed", "3"}, "a902de09ed3f30213cac0e7f68d8f109768395c0044d6d3f1a256536dce2781f"},
	{[]string{"-policy", "optimal-region", "-seed", "3"}, "799f89f4e9d2bd94d060f580c5eb48169076834ade195e54afe42319ccd708af"},
	{[]string{"-policy", "pack", "-seed", "3"}, "b432eef723a49ad12f36fb0cbfe741af31debb09e2208df7aba8707c6c3da310"},
	{[]string{"-policy", "pack+off", "-seed", "3"}, "4655e7a564b3b1f23612cc26504b82ee1441ab8aac73c21b7529646e4b9d4f1d"},
	{[]string{"-policy", "spread", "-seed", "2", "-servers", "300", "-duration", "2", "-load", "0.9"}, "6cf710e9519c8ea17c18a5c0f75f5dd86be0d3ff7a51f46c7135a50717205b72"},
	{[]string{"-policy", "optimal-region", "-seed", "2", "-servers", "300", "-duration", "2", "-load", "0.9"}, "f7f3caf48d426e267fa15cd2add3e55f0b337729a0727f31642d99db24686d38"},
	{[]string{"-policy", "spread", "-seed", "5", "-servers", "200", "-trace", "bursty", "-duration", "1", "-load", "1.1"}, "fe04d655158270085ec7b8bb67e124dd31e363209bba99d29eec36501aa1cefa"},
	{[]string{"-policy", "optimal-region", "-seed", "5", "-servers", "200", "-trace", "bursty", "-duration", "1", "-load", "1.1"}, "8332bd15bb7b52b11aeb777e1d2d80e6da516b6ed5b3bfca17c1ff818a30d5e1"},
}

func TestCSVGoldenDigests(t *testing.T) {
	for _, c := range csvDigests {
		var out, errBuf bytes.Buffer
		if err := run(append(c.args, "-format", "csv"), &out, &errBuf); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		sum := sha256.Sum256(out.Bytes())
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%v: csv digest %s, want %s", c.args, got, c.want)
		}
	}
}

func TestTextSummary(t *testing.T) {
	var out, errBuf bytes.Buffer
	err := run([]string{"-servers", "100", "-duration", "1", "-step", "300"}, &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"policy", "pack+off", "energy", "active", "transitions"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestJSONSummary(t *testing.T) {
	var out, errBuf bytes.Buffer
	err := run([]string{
		"-servers", "100", "-duration", "1", "-step", "300",
		"-trace", "bursty", "-policy", "pack", "-format", "json",
	}, &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Policy    string  `json:"Policy"`
		Servers   int     `json:"Servers"`
		Steps     int     `json:"Steps"`
		EnergyKWh float64 `json:"EnergyKWh"`
	}
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("bad json: %v\n%s", err, out.String())
	}
	if res.Policy != "pack" || res.Servers != 100 || res.Steps != 288 || res.EnergyKWh <= 0 {
		t.Fatalf("unexpected summary %+v", res)
	}
}

func TestCSVTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "demand.csv")
	data := "time_s,demand_ops\n0,1e6\n300,2e6\n600,0\n900,5e7\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errBuf bytes.Buffer
	err := run([]string{"-servers", "50", "-trace", path, "-step", "300", "-format", "csv"}, &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(out.String(), "\n"); lines != 1+4 {
		t.Fatalf("csv lines = %d, want header + 4 steps", lines)
	}
}

// TestPricedSummary covers the -price/-carbon lines in text and JSON;
// they only appear when a rate is set.
func TestPricedSummary(t *testing.T) {
	base := []string{"-servers", "50", "-duration", "1", "-step", "300"}
	var plain, priced, errBuf bytes.Buffer
	if err := run(base, &plain, &errBuf); err != nil {
		t.Fatal(err)
	}
	for _, stray := range []string{"cost", "carbon", "facility"} {
		if strings.Contains(plain.String(), stray) {
			t.Errorf("unpriced summary contains %q:\n%s", stray, plain.String())
		}
	}
	err := run(append(base, "-price", "0.10", "-carbon", "0.45", "-pue", "1.5"), &priced, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"facility", "PUE 1.50", "cost", "$", "carbon", "kgCO2"} {
		if !strings.Contains(priced.String(), want) {
			t.Errorf("priced summary missing %q:\n%s", want, priced.String())
		}
	}

	var jsonOut bytes.Buffer
	err = run(append(base, "-format", "json", "-price", "0.10", "-pue", "1.5"), &jsonOut, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		EnergyKWh float64 `json:"EnergyKWh"`
		Bill      *struct {
			FacilityKWh, USD, KgCO2 float64
		} `json:"Bill"`
	}
	if err := json.Unmarshal(jsonOut.Bytes(), &res); err != nil {
		t.Fatalf("bad json: %v\n%s", err, jsonOut.String())
	}
	if res.Bill == nil {
		t.Fatalf("priced JSON missing Bill:\n%s", jsonOut.String())
	}
	wantFacility := 1.5 * res.EnergyKWh
	if diff := res.Bill.FacilityKWh - wantFacility; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("facility %v, want %v", res.Bill.FacilityKWh, wantFacility)
	}
	if res.Bill.USD <= 0 || res.Bill.KgCO2 != 0 {
		t.Errorf("bill %+v", res.Bill)
	}

	var plainJSON bytes.Buffer
	if err := run(append(base, "-format", "json"), &plainJSON, &errBuf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plainJSON.String(), "Bill") {
		t.Errorf("unpriced JSON carries Bill:\n%s", plainJSON.String())
	}
}

// TestIntensityCSVDigestWorkerInvariant extends the golden
// worker-invariance check to time-varying carbon billing: with an
// intensity profile attached the per-step CSV gains a carbon_kg column
// and must stay byte-identical at workers 1, 2, and 8.
func TestIntensityCSVDigestWorkerInvariant(t *testing.T) {
	var first string
	for _, workers := range []string{"1", "2", "8"} {
		var out, errBuf bytes.Buffer
		err := run([]string{
			"-servers", "64", "-duration", "2", "-step", "300",
			"-format", "csv", "-workers", workers,
			"-intensity", "diurnal", "-pue", "1.5",
		}, &out, &errBuf)
		if err != nil {
			t.Fatalf("workers=%s: %v", workers, err)
		}
		sum := sha256.Sum256(out.Bytes())
		digest := hex.EncodeToString(sum[:])
		if first == "" {
			first = digest
			s := out.String()
			header := s[:strings.IndexByte(s, '\n')]
			if !strings.HasSuffix(header, ",carbon_kg") {
				t.Fatalf("header missing carbon column: %q", header)
			}
			rows := strings.Split(strings.TrimSpace(s), "\n")[1:]
			if len(rows) != 576 {
				t.Fatalf("csv rows = %d, want 576", len(rows))
			}
			for i, row := range rows {
				cols := strings.Split(row, ",")
				if v := cols[len(cols)-1]; v == "" || v == "0" {
					t.Fatalf("row %d carbon_kg = %q, want positive", i, v)
				}
			}
		} else if digest != first {
			t.Fatalf("workers=%s digest %s != workers=1 digest %s", workers, digest, first)
		}
	}
}

// TestIntensitySummaries covers the time-varying carbon lines in text
// and JSON, including a CSV profile file and duck-curve generator.
func TestIntensitySummaries(t *testing.T) {
	base := []string{"-servers", "50", "-duration", "1", "-step", "300"}
	var text, errBuf bytes.Buffer
	err := run(append(base, "-intensity", "duck", "-carbon", "0.5", "-pue", "1.5"), &text, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	// The duck curve's solar trough pulls its mean below the 0.5 base.
	for _, want := range []string{"intensity", "duck", "mean 0.45", "kg/kWh", "kgCO2 time-varying", "PUE 1.50"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, text.String())
		}
	}

	path := filepath.Join(t.TempDir(), "grid.csv")
	data := "time_s,kg_per_kwh\n0,0.2\n3600,0.6\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	var jsonOut bytes.Buffer
	err = run(append(base, "-format", "json", "-intensity", path), &jsonOut, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		CarbonKg  float64 `json:"CarbonKg"`
		Intensity *struct {
			Name         string
			Steps        int
			MeanKgPerKWh float64
		} `json:"Intensity"`
	}
	if err := json.Unmarshal(jsonOut.Bytes(), &res); err != nil {
		t.Fatalf("bad json: %v\n%s", err, jsonOut.String())
	}
	if res.CarbonKg <= 0 || res.Intensity == nil {
		t.Fatalf("json missing carbon accounting:\n%s", jsonOut.String())
	}
	if res.Intensity.Name != "csv" || res.Intensity.Steps != 2 || res.Intensity.MeanKgPerKWh != 0.4 {
		t.Errorf("intensity block %+v", res.Intensity)
	}

	var plain bytes.Buffer
	if err := run(append(base, "-format", "json"), &plain, &errBuf); err != nil {
		t.Fatal(err)
	}
	for _, stray := range []string{"Intensity", "CarbonKg"} {
		if strings.Contains(plain.String(), stray) {
			t.Errorf("default JSON carries %q:\n%s", stray, plain.String())
		}
	}
}

func TestBadArgs(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "demand.csv")
	if err := os.WriteFile(csv, []byte("1e6\n2e6\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{"-policy", "nonsense"},
		{"-format", "pdf"},
		{"-trace", "/nope/missing.csv"},
		{"-duration", "0"},
		{"-servers", "0"},
		{"-price", "-1"},
		{"-price", "0.1", "-pue", "0.5"},
		{"-intensity", "/nope/missing.csv"},
		{"-intensity", "diurnal", "-carbon", "-0.4"},
		{"-intensity", "diurnal", "-intensity-step", "-60"},
		{"-intensity", "diurnal", "-intensity-step", "700"},
		{"-intensity", "diurnal", "-pue", "0.5"},
		// A non-finite step is an error for every trace source, not a
		// panic in the generator or a NaN energy total.
		{"-step", "NaN"},
		{"-step", "+Inf"},
		{"-trace", "bursty", "-step", "NaN"},
		{"-trace", csv, "-step", "NaN"},
		{"-trace", csv, "-step", "+Inf"},
		// A fleet beyond what a column store can address is an error,
		// not an out-of-range allocation.
		{"-servers", "9223372036854775807"},
		// Non-finite power settings would otherwise print NaN or +Inf
		// energy and exit 0.
		{"-on", "NaN"},
		{"-off", "+Inf"},
		{"-headroom", "NaN"},
	}
	for _, args := range cases {
		var out, errBuf bytes.Buffer
		if err := run(args, &out, &errBuf); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	// A non-finite demand shape is reported against its flag, not as
	// NaN demand deep in the simulator, and a non-positive step is
	// rejected rather than replaced by a default.
	for _, args := range [][]string{
		{"-load", "NaN"},
		{"-load", "+Inf"},
		{"-swing", "NaN"},
		{"-trace", "bursty", "-load", "NaN"},
		{"-step", "0"},
		{"-step", "-60"},
		{"-trace", "bursty", "-step", "0"},
	} {
		var out, errBuf bytes.Buffer
		err := run(args, &out, &errBuf)
		if err == nil || !strings.Contains(err.Error(), args[len(args)-2]) {
			t.Errorf("args %v: error %v does not name %s", args, err, args[len(args)-2])
		}
	}
}

func TestVersionFlag(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-version"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "specsim") {
		t.Errorf("version output %q", out.String())
	}
}
