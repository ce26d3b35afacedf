package bench

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/power"
)

// fastConfig shortens intervals so tests stay quick while keeping the
// methodology intact.
func fastConfig(srv power.ServerConfig, gov power.Governor, seed int64) Config {
	return Config{
		Server:               srv,
		Governor:             gov,
		Seed:                 seed,
		IntervalSeconds:      30,
		CalibrationIntervals: 2,
	}
}

func TestNewRunnerValidation(t *testing.T) {
	srv := power.Server4ThinkServerRD450()
	if _, err := NewRunner(fastConfig(srv, power.Performance(), 1)); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := srv
	bad.CPUCount = 0
	if _, err := NewRunner(fastConfig(bad, power.Performance(), 1)); err == nil {
		t.Error("invalid server accepted")
	}
	if _, err := NewRunner(fastConfig(srv, power.UserSpace(9.9), 1)); err == nil {
		t.Error("invalid governor frequency accepted")
	}
	// A negative interval is an error; zero keeps the SPEC default.
	neg := fastConfig(srv, power.Performance(), 1)
	neg.IntervalSeconds = -5
	if _, err := NewRunner(neg); err == nil {
		t.Error("negative interval accepted")
	}
	neg.IntervalSeconds = 0
	if _, err := NewRunner(neg); err != nil {
		t.Errorf("zero (default) interval rejected: %v", err)
	}
}

func TestRunProducesCompliantDisclosure(t *testing.T) {
	srv := power.Server4ThinkServerRD450()
	runner, err := NewRunner(fastConfig(srv, power.Performance(), 42))
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) != 10 {
		t.Fatalf("levels = %d", len(res.Levels))
	}
	for i, lv := range res.Levels {
		wantTarget := float64(i+1) / 10
		if lv.TargetLoad != wantTarget {
			t.Errorf("level %d target = %v, want %v", i, lv.TargetLoad, wantTarget)
		}
		if math.Abs(lv.ActualLoad-wantTarget) > 0.02 {
			t.Errorf("level %d actual load %v strays from target %v", i, lv.ActualLoad, wantTarget)
		}
	}
	if res.ActiveIdle.OpsPerSec != 0 {
		t.Errorf("active idle ops = %v", res.ActiveIdle.OpsPerSec)
	}
	if res.ActiveIdle.AvgPowerWatts <= 0 {
		t.Error("active idle power must be positive")
	}
	// Converted disclosure must pass the dataset compliance rules.
	dr := res.ToDatasetResult("sim-rd450", srv)
	if err := dataset.Validate(dr); err != nil {
		t.Errorf("simulated disclosure non-compliant: %v", err)
	}
	if dr.MemoryGB != 192 || dr.Chips != 2 || dr.CoresPerChip != 6 {
		t.Errorf("disclosure config wrong: %+v", dr)
	}
}

func TestRunDeterministicUnderSeed(t *testing.T) {
	srv := power.Server2SugonI620G10()
	run := func(seed int64) *Result {
		rn, err := NewRunner(fastConfig(srv, power.Performance(), seed))
		if err != nil {
			t.Fatal(err)
		}
		res, err := rn.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(7), run(7)
	if a.CalibratedOps != b.CalibratedOps {
		t.Error("calibration differs under equal seeds")
	}
	for i := range a.Levels {
		if a.Levels[i] != b.Levels[i] {
			t.Fatalf("level %d differs under equal seeds", i)
		}
	}
	c := run(8)
	same := true
	for i := range a.Levels {
		if a.Levels[i] != c.Levels[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical noise")
	}
}

func TestPowerMonotoneWithLoad(t *testing.T) {
	srv := power.Server4ThinkServerRD450()
	rn, err := NewRunner(fastConfig(srv, power.Performance(), 3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := rn.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ActiveIdle.AvgPowerWatts >= res.Levels[0].AvgPowerWatts {
		t.Error("idle power should sit below the 10% level")
	}
	for i := 1; i < len(res.Levels); i++ {
		if res.Levels[i].AvgPowerWatts <= res.Levels[i-1].AvgPowerWatts {
			t.Errorf("power not increasing between levels %d and %d", i-1, i)
		}
	}
}

func TestPeakEEAtFullLoadOnTableIIServers(t *testing.T) {
	// The paper's §V.A observation: all four tested servers reach peak
	// EE at 100% utilization.
	for _, srv := range power.TableIIServers() {
		rn, err := NewRunner(fastConfig(srv, power.Performance(), 11))
		if err != nil {
			t.Fatal(err)
		}
		res, err := rn.Run()
		if err != nil {
			t.Fatal(err)
		}
		if _, at := res.PeakEE(); at != 1.0 {
			t.Errorf("%s: peak EE at %v%% load, want 100%%", srv.Name, at*100)
		}
	}
}

func TestResultAggregates(t *testing.T) {
	srv := power.Server2SugonI620G10()
	rn, err := NewRunner(fastConfig(srv, power.Performance(), 5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := rn.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.OverallEE() <= 0 {
		t.Error("overall EE must be positive")
	}
	peak, _ := res.PeakEE()
	if peak < res.OverallEE() {
		t.Error("peak per-level EE cannot be below the overall score")
	}
	if res.PeakPowerWatts() < res.Levels[9].AvgPowerWatts {
		t.Error("peak power below full-load power")
	}
	if (Interval{}).EE() != 0 {
		t.Error("zero interval EE should be 0")
	}
	empty := &Result{}
	if empty.OverallEE() != 0 {
		t.Error("empty result overall EE should be 0")
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	if c.intervalSeconds() != DefaultIntervalSeconds {
		t.Error("interval default")
	}
	if c.calibrationIntervals() != DefaultCalibrationIntervals {
		t.Error("calibration default")
	}
	if c.powerNoise() != DefaultPowerNoiseFrac || c.loadNoise() != DefaultLoadNoiseFrac {
		t.Error("noise defaults")
	}
	c.PowerNoiseFrac = -1
	c.LoadNoiseFrac = -1
	if c.powerNoise() != 0 || c.loadNoise() != 0 {
		t.Error("negative should disable noise")
	}
	c.PowerNoiseFrac = 0.01
	c.LoadNoiseFrac = 0.02
	if c.powerNoise() != 0.01 || c.loadNoise() != 0.02 {
		t.Error("explicit noise ignored")
	}
}

func TestSweepReproducesPaperMemoryFindings(t *testing.T) {
	// §V.A: best memory per core is 1.75 GB on #1, 4 GB on #2, and
	// 2.67 GB on #4, with EE dropping significantly past the best point.
	cases := []struct {
		srv     power.ServerConfig
		bestMPC float64
	}{
		{power.Server1SugonA620rG(), 1.75},
		{power.Server2SugonI620G10(), 4},
		{power.Server4ThinkServerRD450(), 8.0 / 3.0},
	}
	for _, tc := range cases {
		mems := PaperMemoryConfigs(tc.srv)
		pts, err := Sweep(tc.srv, mems, []power.Governor{power.Performance()}, 99)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != len(mems) {
			t.Fatalf("%s: %d points", tc.srv.Name, len(pts))
		}
		best := pts[0]
		for _, p := range pts[1:] {
			if p.OverallEE > best.OverallEE {
				best = p
			}
		}
		if math.Abs(best.MemoryPerCore-tc.bestMPC) > 1e-9 {
			t.Errorf("%s: best MPC = %v GB/core, want %v", tc.srv.Name, best.MemoryPerCore, tc.bestMPC)
		}
	}
}

func TestSweepFrequencyOrderingAndOnDemand(t *testing.T) {
	// §V.B: EE rises with pinned frequency, and ondemand lands near the
	// top frequency.
	srv := power.Server4ThinkServerRD450()
	govs := AllFrequencyGovernors(srv)
	pts, err := Sweep(srv, []MemoryConfig{{TotalGB: 32, DIMMSizeGB: 16}}, govs, 1)
	if err != nil {
		t.Fatal(err)
	}
	var fixed []SweepPoint
	var ondemand SweepPoint
	for _, p := range pts {
		if p.Governor == "ondemand" {
			ondemand = p
		} else {
			fixed = append(fixed, p)
		}
	}
	for i := 1; i < len(fixed); i++ {
		if fixed[i].OverallEE <= fixed[i-1].OverallEE {
			t.Errorf("EE not increasing from %v to %v GHz", fixed[i-1].BusyFreqGHz, fixed[i].BusyFreqGHz)
		}
		if fixed[i].PeakPowerWatts <= fixed[i-1].PeakPowerWatts {
			t.Errorf("peak power not increasing from %v to %v GHz", fixed[i-1].BusyFreqGHz, fixed[i].BusyFreqGHz)
		}
	}
	top := fixed[len(fixed)-1]
	if ondemand.OverallEE > top.OverallEE*1.005 || ondemand.OverallEE < top.OverallEE*0.96 {
		t.Errorf("ondemand EE %v should track top-frequency EE %v", ondemand.OverallEE, top.OverallEE)
	}
}

func TestSweepErrors(t *testing.T) {
	srv := power.Server4ThinkServerRD450()
	if _, err := Sweep(srv, []MemoryConfig{{TotalGB: 31, DIMMSizeGB: 16}},
		[]power.Governor{power.Performance()}, 1); err == nil {
		t.Error("impossible memory config accepted")
	}
	if _, err := Sweep(srv, []MemoryConfig{{TotalGB: 32, DIMMSizeGB: 16}},
		[]power.Governor{power.UserSpace(9.9)}, 1); err == nil {
		t.Error("impossible governor accepted")
	}
}

func TestPaperMemoryConfigsCoverTableII(t *testing.T) {
	for _, srv := range power.TableIIServers() {
		mems := PaperMemoryConfigs(srv)
		if len(mems) < 3 {
			t.Errorf("%s: only %d memory configs", srv.Name, len(mems))
		}
		for _, m := range mems {
			if _, err := srv.WithMemory(m.TotalGB, m.DIMMSizeGB); err != nil {
				t.Errorf("%s: config %+v invalid: %v", srv.Name, m, err)
			}
		}
	}
	other := power.ServerConfig{Name: "custom"}
	other.DIMMs = []power.DIMMSpec{{SizeGB: 8, Type: power.DDR4}}
	if got := PaperMemoryConfigs(other); len(got) != 1 || got[0].TotalGB != 8 {
		t.Errorf("fallback configs = %v", got)
	}
}

func TestRepeatSummarizesRuns(t *testing.T) {
	srv := power.Server2SugonI620G10()
	rep, err := Repeat(fastConfig(srv, power.Performance(), 1), 6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 6 || rep.OverallEE.N != 6 {
		t.Fatalf("runs = %d / %d", rep.Runs, rep.OverallEE.N)
	}
	if rep.CILow >= rep.CIHigh {
		t.Errorf("degenerate CI [%v, %v]", rep.CILow, rep.CIHigh)
	}
	if rep.OverallEE.Mean < rep.CILow || rep.OverallEE.Mean > rep.CIHigh {
		t.Error("mean outside its own CI")
	}
	// SPEC-grade repeatability: sub-percent spread across runs.
	if rep.SpreadFrac > 0.02 {
		t.Errorf("run-to-run spread %.3f too large", rep.SpreadFrac)
	}
	if _, err := Repeat(fastConfig(srv, power.Performance(), 1), 1); err == nil {
		t.Error("n=1 accepted")
	}
}

func TestMultiNodeRun(t *testing.T) {
	srv := power.Server2SugonI620G10()
	single := fastConfig(srv, power.Performance(), 9)
	multi := single
	multi.Nodes = 4
	rs, err := NewRunner(single)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := NewRunner(multi)
	if err != nil {
		t.Fatal(err)
	}
	one, err := rs.Run()
	if err != nil {
		t.Fatal(err)
	}
	four, err := rm.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Four nodes calibrate to ~4× the throughput and draw ~4× the power
	// plus enclosure overhead.
	if rel := four.CalibratedOps / one.CalibratedOps; rel < 3.9 || rel > 4.1 {
		t.Errorf("calibrated ratio = %.3f, want ≈ 4", rel)
	}
	pRel := four.Levels[9].AvgPowerWatts / one.Levels[9].AvgPowerWatts
	if pRel < 4.0 || pRel > 4.5 {
		t.Errorf("full-load power ratio = %.3f, want slightly above 4", pRel)
	}
	// The disclosure carries the multi-node configuration and stays
	// compliant.
	dr := four.ToDatasetResult("sim-4node", srv)
	if dr.Nodes != 4 || dr.Chips != 4*srv.CPUCount || dr.FormFactor != dataset.FormMultiNode {
		t.Errorf("multi-node disclosure config: %+v", dr)
	}
	if err := dataset.Validate(dr); err != nil {
		t.Errorf("multi-node disclosure non-compliant: %v", err)
	}
	// Per-node efficiency dips slightly from the shared enclosure.
	if four.OverallEE() >= one.OverallEE() {
		t.Error("enclosure overhead should cost a little efficiency")
	}
}
