package power

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/synth"
)

func TestFitServerReproducesEndpoints(t *testing.T) {
	rp, err := synth.NewRepository(synth.Config{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	fitted, tried := 0, 0
	for _, r := range rp.Valid().SingleNode().YearRange(2009, 2016).All() {
		if tried >= 40 {
			break
		}
		tried++
		cfg, err := FitServer(r)
		if err != nil {
			continue // some extreme curves are not fittable; counted below
		}
		fitted++
		c := r.MustCurve()
		nominal := cfg.CPU.NominalGHz
		// Full-load wall power within 12%.
		if rel := cfg.WallPower(1, nominal) / c.PeakPower(); rel < 0.88 || rel > 1.12 {
			t.Errorf("%s: full-load power ratio %.3f", r.ID, rel)
		}
		// Idle wall power within 20% (platform/CPU split is degenerate).
		if rel := cfg.WallPower(0, nominal) / c.IdlePower(); rel < 0.80 || rel > 1.25 {
			t.Errorf("%s: idle power ratio %.3f", r.ID, rel)
		}
		// Throughput matches exactly by calibration.
		measured := r.Levels[len(r.Levels)-1].OpsPerSec
		if rel := cfg.MaxThroughput(nominal) / measured; math.Abs(rel-1) > 1e-9 {
			t.Errorf("%s: throughput ratio %.6f", r.ID, rel)
		}
	}
	if fitted < tried*3/4 {
		t.Errorf("only %d of %d servers fittable", fitted, tried)
	}
}

func TestFitServerRejectsMultiNode(t *testing.T) {
	rp, err := synth.NewRepository(synth.Config{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	var multi *dataset.Result
	for _, r := range rp.Valid().All() {
		if r.Nodes > 1 {
			multi = r
			break
		}
	}
	if multi == nil {
		t.Fatal("no multi-node servers")
	}
	if _, err := FitServer(multi); err == nil {
		t.Error("multi-node result accepted")
	}
}

func TestFitServerWhatIfSweep(t *testing.T) {
	// The point of the fit: run a what-if the disclosure never tested.
	rp, err := synth.NewRepository(synth.Config{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	var cfg ServerConfig
	found := false
	for _, r := range rp.Valid().SingleNode().YearRange(2013, 2016).All() {
		if c, err := FitServer(r); err == nil && c.MemoryGB() >= 32 {
			cfg, found = c, true
			break
		}
	}
	if !found {
		t.Fatal("no fittable server")
	}
	// Doubling memory past the workload demand must cost efficiency at
	// full load — the §V.A effect, now predicted for a corpus server.
	bigger, err := cfg.WithMemory(int(cfg.MemoryGB())*2, cfg.DIMMs[0].SizeGB)
	if err != nil {
		t.Fatal(err)
	}
	eeBase := cfg.MaxThroughput(cfg.CPU.NominalGHz) / cfg.WallPower(1, cfg.CPU.NominalGHz)
	eeBig := bigger.MaxThroughput(cfg.CPU.NominalGHz) / bigger.WallPower(1, cfg.CPU.NominalGHz)
	if eeBig >= eeBase {
		t.Errorf("doubling memory should cost efficiency: %.1f vs %.1f", eeBig, eeBase)
	}
	// Halving frequency must cost efficiency too (§V.B).
	half := cfg.CPU.MinGHz
	eeLow := cfg.MaxThroughput(half) / cfg.WallPower(1, half)
	if eeLow >= eeBase {
		t.Errorf("lower frequency should cost efficiency: %.1f vs %.1f", eeLow, eeBase)
	}
}

func TestSolveDCInvertsPSU(t *testing.T) {
	psu := DefaultPSU(800)
	for _, dc := range []float64{50, 200, 500, 780} {
		wall := psu.WallPower(dc)
		back := solveDC(psu, wall)
		if math.Abs(back-dc) > 0.01 {
			t.Errorf("solveDC(%v W wall) = %v, want %v", wall, back, dc)
		}
	}
}
