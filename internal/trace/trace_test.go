package trace

import (
	"math"
	"testing"
)

func diurnalFixture(t *testing.T, days int, seed int64) *Trace {
	t.Helper()
	tr, err := Diurnal(DiurnalConfig{
		Seed:       seed,
		Days:       days,
		BaseOps:    1e6,
		DailySwing: 0.5,
		NoiseFrac:  0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestDiurnalValidation(t *testing.T) {
	if _, err := Diurnal(DiurnalConfig{Days: 0, BaseOps: 1}); err == nil {
		t.Error("zero days accepted")
	}
	if _, err := Diurnal(DiurnalConfig{Days: 1, BaseOps: 0}); err == nil {
		t.Error("zero base accepted")
	}
	if _, err := Diurnal(DiurnalConfig{Days: 1, BaseOps: 1, DailySwing: 1.5}); err == nil {
		t.Error("swing ≥ 1 accepted")
	}
	for _, step := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := Diurnal(DiurnalConfig{Days: 1, BaseOps: 1, StepSeconds: step}); err == nil {
			t.Errorf("step %v accepted", step)
		}
	}
	// A NaN slips past every range check written as a comparison; each
	// non-finite parameter must be an error, not NaN demand.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, cfg := range []DiurnalConfig{
			{Days: 1, BaseOps: v},
			{Days: 1, BaseOps: 1, DailySwing: v},
			{Days: 1, BaseOps: 1, PeakHour: v},
			{Days: 1, BaseOps: 1, NoiseFrac: v},
			{Days: 1, BaseOps: 1, SpikeProb: v},
			{Days: 1, BaseOps: 1, WeekendFactor: v},
		} {
			if _, err := Diurnal(cfg); err == nil {
				t.Errorf("config %+v accepted", cfg)
			}
		}
	}
}

func TestDiurnalShape(t *testing.T) {
	tr := diurnalFixture(t, 1, 3)
	if len(tr.DemandOps) != 288 { // 86400 / 300
		t.Fatalf("steps = %d, want 288", len(tr.DemandOps))
	}
	if tr.Duration() != 86400 {
		t.Errorf("duration = %v", tr.Duration())
	}
	s := tr.Stats()
	// Swing 0.5 around 1e6: peak ≈ 1.5e6, min ≈ 0.5e6.
	if s.PeakOps < 1.35e6 || s.PeakOps > 1.7e6 {
		t.Errorf("peak = %v", s.PeakOps)
	}
	if s.MinOps > 0.65e6 || s.MinOps < 0.3e6 {
		t.Errorf("min = %v", s.MinOps)
	}
	if math.Abs(s.MeanOps-1e6) > 0.05e6 {
		t.Errorf("mean = %v", s.MeanOps)
	}
	if s.LoadFactor < 0.5 || s.LoadFactor > 0.8 {
		t.Errorf("load factor = %v", s.LoadFactor)
	}
	// The daily maximum lands near the configured peak hour (14:00).
	argmax := 0
	for i, d := range tr.DemandOps {
		if d > tr.DemandOps[argmax] {
			argmax = i
		}
	}
	hour := float64(argmax) * tr.StepSeconds / 3600
	if hour < 11 || hour > 17 {
		t.Errorf("peak at hour %.1f, want ≈ 14", hour)
	}
}

func TestDiurnalWeekendDip(t *testing.T) {
	tr, err := Diurnal(DiurnalConfig{
		Seed: 1, Days: 7, BaseOps: 1e6, DailySwing: 0.3, WeekendFactor: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	stepsPerDay := 288
	dayMean := func(d int) float64 {
		var sum float64
		for _, v := range tr.DemandOps[d*stepsPerDay : (d+1)*stepsPerDay] {
			sum += v
		}
		return sum / float64(stepsPerDay)
	}
	weekday := dayMean(2)
	weekend := dayMean(5)
	if weekend > 0.7*weekday {
		t.Errorf("weekend %v not dipping below weekday %v", weekend, weekday)
	}
}

func TestDiurnalSpikes(t *testing.T) {
	base, err := Diurnal(DiurnalConfig{Seed: 2, Days: 2, BaseOps: 1e6, DailySwing: 0.2, NoiseFrac: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	spiky, err := Diurnal(DiurnalConfig{Seed: 2, Days: 2, BaseOps: 1e6, DailySwing: 0.2, NoiseFrac: 0.001, SpikeProb: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if spiky.Stats().PeakOps <= base.Stats().PeakOps*1.2 {
		t.Error("spikes did not raise the peak")
	}
}

func TestDiurnalDeterministic(t *testing.T) {
	a := diurnalFixture(t, 2, 9)
	b := diurnalFixture(t, 2, 9)
	for i := range a.DemandOps {
		if a.DemandOps[i] != b.DemandOps[i] {
			t.Fatal("same seed produced different traces")
		}
	}
	c := diurnalFixture(t, 2, 10)
	same := true
	for i := range a.DemandOps {
		if a.DemandOps[i] != c.DemandOps[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestCostAccounting(t *testing.T) {
	bill, err := Tariff{USDPerKWh: 0.10, KgCO2PerKWh: 0.45, PUE: 1.5}.BillOf(100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bill.FacilityKWh-150) > 1e-9 {
		t.Errorf("facility kWh = %v", bill.FacilityKWh)
	}
	if math.Abs(bill.USD-15) > 1e-9 {
		t.Errorf("USD = %v", bill.USD)
	}
	if math.Abs(bill.KgCO2-67.5) > 1e-9 {
		t.Errorf("kgCO2 = %v", bill.KgCO2)
	}
	// Zero PUE means 1.0: IT energy is the facility energy.
	noPUE, err := Tariff{USDPerKWh: 0.10}.BillOf(100)
	if err != nil {
		t.Fatal(err)
	}
	if noPUE.FacilityKWh != 100 {
		t.Errorf("facility kWh = %v without PUE", noPUE.FacilityKWh)
	}
	if _, err := (Tariff{USDPerKWh: -1}).BillOf(100); err == nil {
		t.Error("negative tariff accepted")
	}
	if _, err := (Tariff{PUE: 0.5}).BillOf(100); err == nil {
		t.Error("PUE < 1 accepted")
	}
}

func TestAnnualizedBill(t *testing.T) {
	weekly := Bill{FacilityKWh: 700, USD: 70, KgCO2: 315}
	annual, err := AnnualizedBill(weekly, 7)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(annual.FacilityKWh-36500) > 1e-9 || math.Abs(annual.USD-3650) > 1e-9 {
		t.Errorf("annualized = %+v", annual)
	}
	if _, err := AnnualizedBill(weekly, 0); err == nil {
		t.Error("zero days accepted")
	}
}

func TestDefaultTariffSane(t *testing.T) {
	tf := DefaultTariff()
	if tf.USDPerKWh <= 0 || tf.KgCO2PerKWh <= 0 || tf.PUE < 1 {
		t.Errorf("default tariff %+v", tf)
	}
}
