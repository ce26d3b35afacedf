package dataset

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadCSV hardens the CSV reader against arbitrary input: it must
// either return an error or a well-formed result slice — never panic —
// and everything it accepts must survive a write/read round trip.
func FuzzReadCSV(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteCSV(&seed, []*Result{fuzzSeedResult()}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("")
	f.Add("id,vendor\nx,y\n")
	f.Add(strings.Repeat(",", 47) + "\n")
	f.Add(seed.String() + "garbage line without enough commas\n")
	f.Fuzz(func(t *testing.T, input string) {
		results, err := ReadCSV(strings.NewReader(input))
		if err != nil {
			return
		}
		for _, r := range results {
			if r == nil {
				t.Fatal("nil result from successful parse")
			}
			if len(r.Levels) != 10 {
				t.Fatalf("parsed result with %d levels", len(r.Levels))
			}
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, results); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if len(back) != len(results) {
			t.Fatalf("round trip lost results: %d vs %d", len(back), len(results))
		}
	})
}

// FuzzReadJSON hardens the JSON reader the same way.
func FuzzReadJSON(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteJSON(&seed, []*Result{fuzzSeedResult()}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("[]")
	f.Add("null")
	f.Add(`[{"id":"x"}]`)
	f.Add("{")
	f.Fuzz(func(t *testing.T, input string) {
		results, err := ReadJSON(strings.NewReader(input))
		if err != nil {
			return
		}
		for _, r := range results {
			if r == nil {
				continue // JSON null elements decode to nil pointers
			}
			// Derived metrics must never panic on decoded data.
			_ = r.EP()
			_ = r.OverallEE()
			_ = r.MemoryPerCore()
			_ = IsCompliant(r)
		}
	})
}

func fuzzSeedResult() *Result {
	r := &Result{
		ID:               "fuzz-seed",
		Vendor:           "V",
		System:           "S",
		FormFactor:       FormRack,
		PublishedYear:    2015,
		PublishedQuarter: 1,
		HWAvailYear:      2015,
		HWAvailQuarter:   1,
		Nodes:            1,
		Chips:            2,
		CoresPerChip:     8,
		CPUModel:         "Intel Xeon E5-2640 v3",
		NominalGHz:       2.6,
		MemoryGB:         32,
		JVM:              "J",
		OS:               "O",
		ActiveIdleWatts:  45,
	}
	r.Levels = make([]LoadLevel, 10)
	for i := range r.Levels {
		u := float64(i+1) / 10
		r.Levels[i] = LoadLevel{TargetLoad: u, ActualLoad: u, OpsPerSec: u * 1e6, AvgPowerWatts: 45 + 255*u}
	}
	return r
}
