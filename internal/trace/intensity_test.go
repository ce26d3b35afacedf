package trace

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestIntensityValidateTypedErrors(t *testing.T) {
	cases := []struct {
		name string
		p    IntensityProfile
	}{
		{"negative", IntensityProfile{StepSeconds: 3600, Rates: []float64{0.4, -0.1}}},
		{"nan", IntensityProfile{StepSeconds: 3600, Rates: []float64{math.NaN()}}},
		{"inf", IntensityProfile{StepSeconds: 3600, Rates: []float64{math.Inf(1)}}},
	}
	for _, c := range cases {
		err := c.p.Validate()
		var re *RateError
		if !errors.As(err, &re) {
			t.Errorf("%s: got %v, want *RateError", c.name, err)
			continue
		}
		if re.Index != len(c.p.Rates)-1 {
			t.Errorf("%s: index %d, want %d", c.name, re.Index, len(c.p.Rates)-1)
		}
	}
	var ae *AlignError
	if err := (&IntensityProfile{}).Validate(); !errors.As(err, &ae) {
		t.Errorf("empty profile: got %v, want *AlignError", err)
	}
	if err := (&IntensityProfile{StepSeconds: -1, Rates: []float64{1}}).Validate(); !errors.As(err, &ae) {
		t.Errorf("bad step: got %v, want *AlignError", err)
	}
}

func TestTariffValidateRejectsNonFinite(t *testing.T) {
	bad := []Tariff{
		{USDPerKWh: math.NaN()},
		{KgCO2PerKWh: math.Inf(1)},
		{PUE: math.NaN()},
		{USDPerKWh: -0.1},
		{PUE: 0.5},
	}
	for i, tf := range bad {
		_, err := tf.BillOf(1)
		var re *RateError
		if !errors.As(err, &re) {
			t.Errorf("tariff %d (%+v): got %v, want *RateError", i, tf, err)
		}
	}
	if _, err := DefaultTariff().BillOf(1); err != nil {
		t.Fatalf("default tariff rejected: %v", err)
	}
}

func TestIntensityAlign(t *testing.T) {
	p := &IntensityProfile{StepSeconds: 3600, Rates: []float64{1, 2, 3, 4}}

	// Finer trace: 900 s steps, 60 of them — each hour covers 4 steps,
	// tiling wraps after 16 steps.
	got, err := p.Align(60, 900)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 1} {
		if got[i] != want {
			t.Fatalf("align[%d] = %v, want %v", i, got[i], want)
		}
	}

	// Coarser trace: 7200 s steps sample every other profile rate.
	got, err = p.Align(4, 7200)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{1, 3, 1, 3} {
		if got[i] != want {
			t.Fatalf("coarse align[%d] = %v, want %v", i, got[i], want)
		}
	}

	// Non-integer ratio is a typed error.
	var ae *AlignError
	if _, err := p.Align(10, 1000); !errors.As(err, &ae) {
		t.Fatalf("misaligned steps: got %v, want *AlignError", err)
	}
	if _, err := p.Align(0, 60); !errors.As(err, &ae) {
		t.Fatalf("zero steps: got %v, want *AlignError", err)
	}
}

func TestIntensityGenerators(t *testing.T) {
	diurnal, err := DiurnalIntensity(IntensityConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(diurnal.Rates) != 24 {
		t.Fatalf("diurnal samples %d, want 24", len(diurnal.Rates))
	}
	if m := diurnal.Mean(); math.Abs(m-0.45) > 1e-12 {
		t.Fatalf("diurnal mean %v, want 0.45", m)
	}
	// Peak at the default 19:00, trough 12 h away.
	peak := 0
	for i, r := range diurnal.Rates {
		if r > diurnal.Rates[peak] {
			peak = i
		}
	}
	if peak != 19 {
		t.Fatalf("diurnal peak hour %d, want 19", peak)
	}

	duck, err := DuckCurveIntensity(IntensityConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Solar trough: midday duck is well below midday diurnal.
	if duck.Rates[12] >= diurnal.Rates[12]-0.1 {
		t.Fatalf("duck midday %v not dipped below diurnal %v", duck.Rates[12], diurnal.Rates[12])
	}
	// Evening peak survives the dip.
	if duck.Rates[19] < duck.Rates[12] {
		t.Fatal("duck evening peak below midday trough")
	}

	// Deterministic: regeneration is bit-identical.
	again, err := DuckCurveIntensity(IntensityConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range duck.Rates {
		if math.Float64bits(duck.Rates[i]) != math.Float64bits(again.Rates[i]) {
			t.Fatalf("duck regeneration differs at %d", i)
		}
	}

	if _, err := DiurnalIntensity(IntensityConfig{Swing: 1.5}); err == nil {
		t.Fatal("swing ≥ 1 accepted")
	}
	if _, err := DiurnalIntensity(IntensityConfig{BaseKgPerKWh: math.NaN()}); err == nil {
		t.Fatal("NaN base accepted")
	}
}

func TestIntensityScaled(t *testing.T) {
	p, err := DiurnalIntensity(IntensityConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.Scaled(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if m := s.Mean(); math.Abs(m-0.9) > 1e-12 {
		t.Fatalf("scaled mean %v, want 0.9", m)
	}
	// Shape preserved: ratios to mean match.
	for i := range p.Rates {
		if math.Abs(s.Rates[i]/s.Mean()-p.Rates[i]/p.Mean()) > 1e-12 {
			t.Fatalf("scaled shape differs at %d", i)
		}
	}
	var re *RateError
	if _, err := p.Scaled(math.Inf(1)); !errors.As(err, &re) {
		t.Fatalf("infinite target mean: got %v, want *RateError", err)
	}
}

func TestIntensityConstant(t *testing.T) {
	p := &IntensityProfile{StepSeconds: 60, Rates: []float64{0.45, 0.45, 0.45}}
	if v, ok := p.Constant(); !ok || v != 0.45 {
		t.Fatalf("Constant() = %v, %v", v, ok)
	}
	p.Rates[2] = math.Nextafter(0.45, 1)
	if _, ok := p.Constant(); ok {
		t.Fatal("near-constant profile reported constant")
	}
}

func TestReadIntensityCSV(t *testing.T) {
	in := "time_s,kg_per_kwh\n# comment\n0,0.40\n3600,0.50\n\n7200,0.35\n"
	p, err := ReadIntensityCSV(strings.NewReader(in), 3600)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.40, 0.50, 0.35}
	if len(p.Rates) != len(want) {
		t.Fatalf("rates %v, want %v", p.Rates, want)
	}
	for i := range want {
		if p.Rates[i] != want[i] {
			t.Fatalf("rates %v, want %v", p.Rates, want)
		}
	}

	// Single column, no header.
	p, err = ReadIntensityCSV(strings.NewReader("0.1\n0.2\n"), 60)
	if err != nil || len(p.Rates) != 2 {
		t.Fatalf("single column: %v %v", p, err)
	}

	var re *RateError
	if _, err := ReadIntensityCSV(strings.NewReader("0.1\n-0.2\n"), 60); !errors.As(err, &re) {
		t.Fatalf("negative rate: got %v, want *RateError", err)
	}
	if _, err := ReadIntensityCSV(strings.NewReader("0.1\nNaN\n"), 60); !errors.As(err, &re) {
		t.Fatalf("NaN rate: got %v, want *RateError", err)
	}
	if _, err := ReadIntensityCSV(strings.NewReader("header\n"), 60); err == nil {
		t.Fatal("empty profile accepted")
	}
	if _, err := ReadIntensityCSV(strings.NewReader("1,2,3\n"), 60); err == nil {
		t.Fatal("3-column row accepted")
	}
	if _, err := ReadIntensityCSV(strings.NewReader("0.1\n"), 0); err == nil {
		t.Fatal("zero step accepted")
	}
	if _, err := ReadIntensityCSV(strings.NewReader("0.1\nbogus\n"), 60); err == nil {
		t.Fatal("non-numeric data row accepted")
	}
}

// testTrace2D builds a deterministic bursty-ish trace for fold tests.
func testTrace2D(t *testing.T, steps int) *Trace {
	t.Helper()
	tr, err := Diurnal(DiurnalConfig{
		Days: 1 + (steps*60)/86400, StepSeconds: 60,
		BaseOps: 5000, DailySwing: 0.5, SpikeProb: 0.01, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.DemandOps = tr.DemandOps[:steps]
	return tr
}

// TestCompress2DConstantProfileBitwise pins the determinism contract:
// with a constant rate profile the fold's demand cells are
// Float64bits-identical to the fold of the same trace with no rate
// sets.
func TestCompress2DConstantProfileBitwise(t *testing.T) {
	tr := testTrace2D(t, 1440)
	rates := make([]float64, len(tr.DemandOps))
	for i := range rates {
		rates[i] = 0.45
	}
	h1, err := tr.Compress2D(128, 8)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := tr.Compress2D(128, 8, rates)
	if err != nil {
		t.Fatal(err)
	}
	if len(h2.BinOps) != len(h1.BinOps) || h2.Bins != h1.Bins {
		t.Fatalf("cells %d (%d bins), want %d demand bins", len(h2.BinOps), h2.Bins, len(h1.BinOps))
	}
	for i := range h1.BinOps {
		if math.Float64bits(h2.BinOps[i]) != math.Float64bits(h1.BinOps[i]) {
			t.Fatalf("BinOps[%d] = %x, want %x", i,
				math.Float64bits(h2.BinOps[i]), math.Float64bits(h1.BinOps[i]))
		}
		if math.Float64bits(h2.Weight[i]) != math.Float64bits(h1.Weight[i]) {
			t.Fatalf("Weight[%d] differs", i)
		}
		// The per-cell mean of n identical non-dyadic rates rounds, so
		// this is a tolerance check; the optimizer's constant-profile
		// fallback detects constancy BEFORE folding (Constant()) and
		// never relies on cell-rate exactness.
		if math.Abs(h2.Rates[0][i]-0.45) > 1e-12 {
			t.Fatalf("cell %d rate %v, want 0.45", i, h2.Rates[0][i])
		}
	}
	for _, pair := range [][2]float64{
		{h2.PeakOps, h1.PeakOps}, {h2.MinOps, h1.MinOps}, {h2.MeanOps, h1.MeanOps},
	} {
		if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
			t.Fatalf("extreme %v != %v", pair[0], pair[1])
		}
	}
}

// TestCompress2DBinConstantExact: when the profile is piecewise
// constant on rate-bin boundaries (dyadic values, so per-cell means
// are exact), the fold bills a linear power curve exactly — the double
// sum equals the per-step integral to fp round-off.
func TestCompress2DBinConstantExact(t *testing.T) {
	tr := testTrace2D(t, 2880)
	// Equally spaced so each level owns one equi-width rate bin, and
	// dyadic so per-cell rate means are exact.
	levels := []float64{0.25, 0.5, 0.75, 1.0}
	rates := make([]float64, len(tr.DemandOps))
	for i := range rates {
		rates[i] = levels[(i/360)%len(levels)]
	}
	h, err := tr.Compress2D(64, len(levels), rates)
	if err != nil {
		t.Fatal(err)
	}
	// Each cell's mean rate must be exactly one of the dyadic levels.
	for c, r := range h.Rates[0] {
		ok := false
		for _, v := range levels {
			if math.Float64bits(r) == math.Float64bits(v) {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("cell %d rate %v not one of %v", c, r, levels)
		}
	}
	// Linear power: P(d) = 120 + 0.004 d. Fold vs per-step integral.
	p := func(d float64) float64 { return 120 + 0.004*d }
	var exact float64
	for i, d := range tr.DemandOps {
		exact += rates[i] * p(d) * tr.StepSeconds
	}
	var fold float64
	for c := range h.BinOps {
		fold += h.Weight[c] * h.Rates[0][c] * p(h.BinOps[c]) * h.StepSeconds
	}
	if rel := math.Abs(fold-exact) / exact; rel > 1e-12 {
		t.Fatalf("bin-constant fold off by %v relative (fold %v, exact %v)", rel, fold, exact)
	}
}

// TestCompress2DFoldTolerance documents the fold's approximation
// bound on a non-aligned profile: relative error shrinks with cell
// resolution and stays within 0.5 % at 128×8 for a smooth profile.
func TestCompress2DFoldTolerance(t *testing.T) {
	tr := testTrace2D(t, 4320)
	prof, err := DuckCurveIntensity(IntensityConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rates, err := prof.Align(len(tr.DemandOps), tr.StepSeconds)
	if err != nil {
		t.Fatal(err)
	}
	p := func(d float64) float64 { return 95 + 0.003*d + 1e-9*d*d }
	var exact float64
	for i, d := range tr.DemandOps {
		exact += rates[i] * p(d) * tr.StepSeconds
	}
	relAt := func(bins, rateBins int) float64 {
		h, err := tr.Compress2D(bins, rateBins, rates)
		if err != nil {
			t.Fatal(err)
		}
		var fold float64
		for c := range h.BinOps {
			fold += h.Weight[c] * h.Rates[0][c] * p(h.BinOps[c]) * h.StepSeconds
		}
		return math.Abs(fold-exact) / exact
	}
	if rel := relAt(128, 8); rel > 0.005 {
		t.Fatalf("128×8 fold error %v > 0.5%%", rel)
	}
	if coarse, fine := relAt(16, 2), relAt(256, 16); fine > coarse+1e-12 {
		t.Fatalf("fold error did not shrink with resolution: %v → %v", coarse, fine)
	}
}

func TestCompress2DSecondRateSetRidesAlong(t *testing.T) {
	tr := testTrace2D(t, 1440)
	carbon := make([]float64, len(tr.DemandOps))
	price := make([]float64, len(tr.DemandOps))
	for i := range carbon {
		carbon[i] = 0.4 + 0.1*float64(i%24)/24
		price[i] = 2 * carbon[i] // same shape, different level
	}
	h, err := tr.Compress2D(64, 8, carbon, price)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Rates) != 2 {
		t.Fatalf("rate sets %d, want 2", len(h.Rates))
	}
	// Mass conservation per signal: Σ w·r̄ equals the per-step sum.
	for s, rates := range [][]float64{carbon, price} {
		var exact, fold float64
		for _, r := range rates {
			exact += r
		}
		for c := range h.BinOps {
			fold += h.Weight[c] * h.Rates[s][c]
		}
		if math.Abs(fold-exact)/exact > 1e-12 {
			t.Fatalf("rate set %d mass: fold %v, exact %v", s, fold, exact)
		}
	}
}

func TestCompress2DValidation(t *testing.T) {
	tr := testTrace2D(t, 100)
	good := make([]float64, 100)
	var ae *AlignError
	if _, err := tr.Compress2D(8, 4, good[:99]); !errors.As(err, &ae) {
		t.Fatalf("short rate set: got %v, want *AlignError", err)
	}
	bad := make([]float64, 100)
	bad[7] = math.NaN()
	var re *RateError
	if _, err := tr.Compress2D(8, 4, good, bad); !errors.As(err, &re) {
		t.Fatalf("NaN rate: got %v, want *RateError", err)
	} else if re.Index != 7 {
		t.Fatalf("rate error index %d, want 7", re.Index)
	}
	// No rate sets is the plain demand histogram: one cell per
	// occupied demand bin.
	if h, err := tr.Compress2D(8, 4); err != nil {
		t.Fatalf("no rate sets: %v", err)
	} else if len(h.Rates) != 0 || h.Cells() != h.Bins {
		t.Fatalf("no rate sets: %d rate sets, %d cells for %d bins", len(h.Rates), h.Cells(), h.Bins)
	}
	if _, err := tr.Compress2D(8, 0); err == nil {
		t.Fatal("zero rate bins accepted without rate sets")
	}
	if _, err := tr.Compress2D(0, 4, good); err == nil {
		t.Fatal("zero bins accepted")
	}
	if _, err := tr.Compress2D(8, 0, good); err == nil {
		t.Fatal("zero rate bins accepted")
	}
}

func FuzzReadIntensityCSV(f *testing.F) {
	f.Add("0.45\n0.50\n", 3600.0)
	f.Add("time,rate\n0,0.4\n60,0.5\n", 60.0)
	f.Add("# comment\n\n1e3\n", 1.0)
	f.Add("-1\n", 60.0)
	f.Add("NaN\n", 60.0)
	f.Fuzz(func(t *testing.T, in string, step float64) {
		p, err := ReadIntensityCSV(strings.NewReader(in), step)
		if err != nil {
			return
		}
		// Any accepted profile must validate and align to itself.
		if verr := p.Validate(); verr != nil {
			t.Fatalf("accepted profile fails Validate: %v", verr)
		}
		aligned, aerr := p.Align(len(p.Rates), p.StepSeconds)
		if aerr != nil {
			t.Fatalf("accepted profile fails self-align: %v", aerr)
		}
		for i := range aligned {
			if math.Float64bits(aligned[i]) != math.Float64bits(p.Rates[i]) {
				t.Fatalf("self-align not identity at %d", i)
			}
		}
	})
}
