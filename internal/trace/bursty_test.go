package trace

import (
	"math"
	"strings"
	"testing"
)

func TestBursty(t *testing.T) {
	tr, err := Bursty(BurstyConfig{Seed: 3, Steps: 2000, StepSeconds: 60, BaseOps: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.DemandOps) != 2000 || tr.StepSeconds != 60 {
		t.Fatalf("shape %d×%v", len(tr.DemandOps), tr.StepSeconds)
	}
	s := tr.Stats()
	if s.MinOps < 0 {
		t.Fatalf("negative demand %v", s.MinOps)
	}
	// Bursts must actually fire: the peak should sit well above base,
	// and the mean above base but far below the peak.
	if s.PeakOps < 1.5e6 {
		t.Fatalf("no bursts: peak %v", s.PeakOps)
	}
	if s.LoadFactor > 0.95 {
		t.Fatalf("trace is flat: load factor %v", s.LoadFactor)
	}
	// Determinism: same seed, same trace.
	tr2, err := Bursty(BurstyConfig{Seed: 3, Steps: 2000, StepSeconds: 60, BaseOps: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.DemandOps {
		if tr.DemandOps[i] != tr2.DemandOps[i] {
			t.Fatalf("step %d: %v != %v", i, tr.DemandOps[i], tr2.DemandOps[i])
		}
	}
}

func TestBurstyRejects(t *testing.T) {
	cases := []BurstyConfig{
		{Steps: 0, BaseOps: 1},
		{Steps: 10, BaseOps: 0},
		{Steps: 10, BaseOps: 1, BurstsPerDay: -1},
		{Steps: 10, BaseOps: 1, DecaySeconds: -5},
		{Steps: 10, BaseOps: 1, StepSeconds: math.NaN()},
		{Steps: 10, BaseOps: 1, StepSeconds: math.Inf(1)},
	}
	for _, cfg := range cases {
		if _, err := Bursty(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestReadCSV(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want []float64
	}{
		{"one column", "100\n200.5\n0\n", []float64{100, 200.5, 0}},
		{"two columns", "0,100\n60,200\n", []float64{100, 200}},
		{"header", "time_s,demand_ops\n0,100\n60,200\n", []float64{100, 200}},
		{"blank lines and comments", "# demand\n100\n\n200\n", []float64{100, 200}},
		{"scientific", "1e6\n2.5e5\n", []float64{1e6, 2.5e5}},
	}
	for _, tc := range cases {
		tr, err := ReadCSV(strings.NewReader(tc.in), 60)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if tr.StepSeconds != 60 || len(tr.DemandOps) != len(tc.want) {
			t.Errorf("%s: shape %d×%v", tc.name, len(tr.DemandOps), tr.StepSeconds)
			continue
		}
		for i, want := range tc.want {
			if tr.DemandOps[i] != want {
				t.Errorf("%s: step %d = %v, want %v", tc.name, i, tr.DemandOps[i], want)
			}
		}
	}
}

func TestReadCSVRejects(t *testing.T) {
	cases := map[string]string{
		"empty":            "",
		"header only":      "demand\n",
		"two headers":      "a\nb\n100\n",
		"negative":         "100\n-5\n",
		"nan":              "100\nNaN\n",
		"inf":              "100\n+Inf\n",
		"three columns":    "1,2,3\n",
		"text mid-file":    "100\noops\n",
		"non-numeric late": "100\n200\nxyz\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in), 60); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	for _, step := range []float64{0, math.NaN(), math.Inf(1)} {
		if _, err := ReadCSV(strings.NewReader("100\n"), step); err == nil {
			t.Errorf("step %v accepted", step)
		}
	}
}

func FuzzReadTraceCSV(f *testing.F) {
	for _, in := range []string{
		"100\n200.5\n0\n", "0,100\n60,200\n", "time_s,demand_ops\n0,100\n60,200\n",
		"# demand\n100\n\n200\n", "1e6\n2.5e5\n",
		"", "demand\n", "a\nb\n100\n", "100\n-5\n", "100\nNaN\n", "100\n+Inf\n",
		"1,2,3\n", "100\noops\n", "100\n200\nxyz\n",
	} {
		f.Add(in, 60.0)
	}
	f.Add("100\n", 0.0)
	f.Add("100\n", math.NaN())
	f.Fuzz(func(t *testing.T, in string, step float64) {
		tr, err := ReadCSV(strings.NewReader(in), step)
		if err != nil {
			return
		}
		if !validStep(tr.StepSeconds) {
			t.Fatalf("accepted step %v", tr.StepSeconds)
		}
		for i, d := range tr.DemandOps {
			if math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
				t.Fatalf("accepted demand[%d] = %v", i, d)
			}
		}
		// Any accepted trace must fold; with no rate sets every step
		// lands in exactly one cell.
		h, err := tr.Compress2D(16, 4)
		if err != nil {
			t.Fatalf("accepted trace fails to fold: %v", err)
		}
		var steps float64
		for _, w := range h.Weight {
			steps += w
		}
		if steps != float64(len(tr.DemandOps)) {
			t.Fatalf("fold weights sum to %v, want %d steps", steps, len(tr.DemandOps))
		}
	})
}
