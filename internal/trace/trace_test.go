package trace

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/placement"
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

// fleetFixture builds a mixed fleet: modern curves peaking at 80% and
// legacy high-idle machines.
func fleetFixture(t *testing.T) []*placement.Profile {
	t.Helper()
	modern := []float64{0.20, 0.267, 0.333, 0.40, 0.49, 0.577, 0.66, 0.734, 0.849, 1.0}
	legacy := make([]float64, 10)
	for i := range legacy {
		u := float64(i+1) / 10
		legacy[i] = 0.6 + 0.4*u
	}
	build := func(idle float64, norm []float64, peakW, maxOps float64, id string) *placement.Profile {
		watts := make([]float64, 10)
		ops := make([]float64, 10)
		for i := range norm {
			watts[i] = peakW * norm[i]
			ops[i] = maxOps * float64(i+1) / 10
		}
		c, err := core.NewStandardCurve(peakW*idle, watts, ops)
		if err != nil {
			t.Fatal(err)
		}
		p, err := placement.NewProfile(id, c)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	var fleet []*placement.Profile
	for i := 0; i < 4; i++ {
		fleet = append(fleet, build(0.055, modern, 300, 1e6, "modern"))
	}
	for i := 0; i < 4; i++ {
		fleet = append(fleet, build(0.6, legacy, 400, 8e5, "legacy"))
	}
	return fleet
}

func TestReplayAccountsEnergy(t *testing.T) {
	tr := diurnalFixture(t, 1, 4)
	fleet := fleetFixture(t)
	res, err := Replay(tr, fleet, StrategyProportional, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.EnergyKWh <= 0 || res.AvgPowerWatts <= 0 {
		t.Fatalf("no energy accounted: %+v", res)
	}
	// Energy consistency: kWh = avg W × duration.
	wantKWh := res.AvgPowerWatts * tr.Duration() / 3.6e6
	if math.Abs(res.EnergyKWh-wantKWh) > wantKWh*1e-9 {
		t.Errorf("energy %v inconsistent with average power (%v kWh)", res.EnergyKWh, wantKWh)
	}
	if res.PeakPowerWatts < res.AvgPowerWatts {
		t.Error("peak below average")
	}
	// The fleet covers this trace: demand peak 1.5e6 < capacity 7.2e6.
	if res.UnservedOps > 1 {
		t.Errorf("unserved demand %v on an over-provisioned fleet", res.UnservedOps)
	}
}

func TestReplayStrategyOrdering(t *testing.T) {
	tr := diurnalFixture(t, 1, 8)
	fleet := fleetFixture(t)
	results, err := CompareStrategies(tr, fleet, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("%d results", len(results))
	}
	byStrategy := make(map[Strategy]ReplayResult, len(results))
	for _, r := range results {
		byStrategy[r.Strategy] = r
	}
	prop := byStrategy[StrategyProportional]
	spread := byStrategy[StrategySpreadEvenly]
	if prop.EnergyKWh >= spread.EnergyKWh {
		t.Errorf("proportional energy %v should undercut spread %v",
			prop.EnergyKWh, spread.EnergyKWh)
	}
	if prop.AvgEE <= spread.AvgEE {
		t.Errorf("proportional EE %v should beat spread %v", prop.AvgEE, spread.AvgEE)
	}
}

func TestReplayPowerOffSavesEnergy(t *testing.T) {
	tr := diurnalFixture(t, 1, 12)
	fleet := fleetFixture(t)
	on, err := Replay(tr, fleet, StrategyProportional, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	off, err := Replay(tr, fleet, StrategyProportional, placement.Options{IdleServersOff: true})
	if err != nil {
		t.Fatal(err)
	}
	if off.EnergyKWh >= on.EnergyKWh {
		t.Errorf("power-off energy %v should undercut always-on %v", off.EnergyKWh, on.EnergyKWh)
	}
}

func TestReplayErrors(t *testing.T) {
	fleet := fleetFixture(t)
	if _, err := Replay(nil, fleet, StrategyProportional, placement.Options{}); err == nil {
		t.Error("nil trace accepted")
	}
	tr := diurnalFixture(t, 1, 1)
	if _, err := Replay(tr, nil, StrategyProportional, placement.Options{}); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := Replay(tr, fleet, Strategy(99), placement.Options{}); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestStrategyStrings(t *testing.T) {
	if StrategyProportional.String() != "proportional" ||
		StrategyPackToFull.String() != "pack-to-full" ||
		StrategySpreadEvenly.String() != "spread-evenly" ||
		Strategy(99).String() != "unknown" {
		t.Error("strategy names wrong")
	}
}

func TestCostAccounting(t *testing.T) {
	res := ReplayResult{EnergyKWh: 100}
	bill, err := Cost(res, Tariff{USDPerKWh: 0.10, KgCO2PerKWh: 0.45, PUE: 1.5})
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
	// Zero PUE means 1.0.
	noPUE, err := Cost(res, Tariff{USDPerKWh: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if noPUE.FacilityKWh != 100 {
		t.Errorf("facility kWh = %v without PUE", noPUE.FacilityKWh)
	}
	if _, err := Cost(res, Tariff{USDPerKWh: -1}); err == nil {
		t.Error("negative tariff accepted")
	}
	if _, err := Cost(res, Tariff{PUE: 0.5}); err == nil {
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

func TestCostOrderingTracksEnergy(t *testing.T) {
	// End-to-end: the cheaper strategy has the cheaper bill.
	tr := diurnalFixture(t, 1, 20)
	fleet := fleetFixture(t)
	results, err := CompareStrategies(tr, fleet, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tf := DefaultTariff()
	var propUSD, spreadUSD float64
	for _, r := range results {
		bill, err := Cost(r, tf)
		if err != nil {
			t.Fatal(err)
		}
		switch r.Strategy {
		case StrategyProportional:
			propUSD = bill.USD
		case StrategySpreadEvenly:
			spreadUSD = bill.USD
		}
	}
	if propUSD >= spreadUSD {
		t.Errorf("proportional bill $%.2f should undercut spread $%.2f", propUSD, spreadUSD)
	}
}
