package trace

import (
	"math"
	"testing"
)

func diurnalForHist(t *testing.T, days int) *Trace {
	t.Helper()
	tr, err := Diurnal(DiurnalConfig{Seed: 11, Days: days, BaseOps: 5e6, DailySwing: 0.4, SpikeProb: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestCompressPreservesMassAndExtremes(t *testing.T) {
	tr := diurnalForHist(t, 3)
	h, err := tr.Compress2D(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if h.Steps != len(tr.DemandOps) || h.StepSeconds != tr.StepSeconds {
		t.Fatalf("shape: %d steps @ %v s", h.Steps, h.StepSeconds)
	}
	if len(h.Rates) != 0 || h.Bins != h.Cells() {
		t.Fatalf("demand-only fold: %d rate sets, %d bins for %d cells", len(h.Rates), h.Bins, h.Cells())
	}
	var wsum, wdemand float64
	for i, w := range h.Weight {
		wsum += w
		wdemand += w * h.BinOps[i]
		if i > 0 && h.BinOps[i] <= h.BinOps[i-1] {
			t.Fatalf("bins not ascending at %d", i)
		}
	}
	if wsum != float64(h.Steps) {
		t.Fatalf("weights sum %v, want %d", wsum, h.Steps)
	}
	st := tr.Stats()
	if h.PeakOps != st.PeakOps || h.MinOps != st.MinOps {
		t.Fatalf("extremes %v/%v, want %v/%v", h.MinOps, h.PeakOps, st.MinOps, st.PeakOps)
	}
	// Bin means preserve the trace's total offered load to rounding.
	total := st.MeanOps * float64(h.Steps)
	if math.Abs(wdemand-total) > 1e-6*total {
		t.Fatalf("mass %v, want %v", wdemand, total)
	}
	if h.Duration() != tr.Duration() {
		t.Fatalf("duration %v, want %v", h.Duration(), tr.Duration())
	}
}

func TestCompressDegenerateAndErrors(t *testing.T) {
	// A constant trace collapses to one bin regardless of bin count.
	flat := &Trace{StepSeconds: 60, DemandOps: []float64{7, 7, 7, 7}}
	h, err := flat.Compress2D(32, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.BinOps) != 1 || h.BinOps[0] != 7 || h.Weight[0] != 4 || h.Bins != 1 {
		t.Fatalf("flat trace: %+v", h)
	}
	if _, err := flat.Compress2D(0, 1); err == nil {
		t.Error("bins=0 accepted")
	}
	empty := &Trace{StepSeconds: 60}
	if _, err := empty.Compress2D(8, 1); err == nil {
		t.Error("empty trace accepted")
	}
	for _, step := range []float64{0, math.NaN(), math.Inf(1)} {
		bad := &Trace{StepSeconds: step, DemandOps: []float64{1}}
		if _, err := bad.Compress2D(8, 1); err == nil {
			t.Errorf("step %v accepted", step)
		}
	}
	nan := &Trace{StepSeconds: 60, DemandOps: []float64{1, math.NaN()}}
	if _, err := nan.Compress2D(8, 1); err == nil {
		t.Error("NaN demand accepted")
	}
}

func TestBillOfMatchesCost(t *testing.T) {
	tariff := DefaultTariff()
	const kWh = 123.4
	facility := kWh * tariff.PUE
	want := Bill{FacilityKWh: facility, USD: facility * tariff.USDPerKWh, KgCO2: facility * tariff.KgCO2PerKWh}
	got, err := tariff.BillOf(kWh)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("BillOf %+v, want %+v", got, want)
	}
	if _, err := (Tariff{USDPerKWh: -1}).BillOf(1); err == nil {
		t.Error("negative tariff accepted")
	}
	if _, err := (Tariff{PUE: 0.5}).BillOf(1); err == nil {
		t.Error("PUE below 1 accepted")
	}
	// Zero PUE means 1.0: IT energy is the facility energy.
	b, err := (Tariff{USDPerKWh: 0.2}).BillOf(10)
	if err != nil || b.FacilityKWh != 10 || b.USD != 2 {
		t.Fatalf("zero-PUE bill %+v (%v)", b, err)
	}
}
