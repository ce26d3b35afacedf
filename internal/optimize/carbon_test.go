package optimize

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fleetsim"
	"repro/internal/par"
	"repro/internal/trace"
)

// testIntensity builds the default diurnal intensity profile.
func testIntensity(t testing.TB) *trace.IntensityProfile {
	t.Helper()
	p, err := trace.DiurnalIntensity(trace.IntensityConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// carbonSmallConfig is smallConfig on the carbon objective with a
// diurnal intensity profile — the brute-forceable 2-D search space.
func carbonSmallConfig(t testing.TB) Config {
	cfg := smallConfig(t)
	cfg.Objective = Objective{
		Metric: MetricCarbon,
		Tariff: trace.Tariff{USDPerKWh: 0.10, KgCO2PerKWh: 0.45, PUE: 1.5},
		Carbon: testIntensity(t),
	}
	cfg.RateBins = 8
	return cfg
}

// TestConstantProfileBitwiseStatic pins the fallback contract: a
// constant intensity profile routes through the legacy static
// arithmetic and the whole Result is digest-identical to the static
// tariff run.
func TestConstantProfileBitwiseStatic(t *testing.T) {
	static := smallConfig(t)
	static.Objective = Objective{
		Metric: MetricCarbon,
		Tariff: trace.Tariff{KgCO2PerKWh: 0.45, PUE: 1.5},
	}
	resStatic, err := OptimizeComposition(static)
	if err != nil {
		t.Fatal(err)
	}

	flat := static
	flat.Objective.Carbon = &trace.IntensityProfile{
		StepSeconds: 3600,
		Rates:       []float64{0.45, 0.45, 0.45, 0.45},
	}
	resFlat, err := OptimizeComposition(flat)
	if err != nil {
		t.Fatal(err)
	}
	if resFlat.Cells != 0 {
		t.Fatalf("constant profile built a 2-D histogram (%d cells)", resFlat.Cells)
	}
	if digest(t, resFlat) != digest(t, resStatic) {
		t.Fatalf("constant-profile result diverges from static:\n got %+v\nwant %+v", resFlat, resStatic)
	}
}

// TestCarbonPruningSound is the seeded pruning cross-check on the 2-D
// fold: the pruned search must return exactly the exhaustive top-k.
func TestCarbonPruningSound(t *testing.T) {
	cfg := carbonSmallConfig(t)
	pruned, err := OptimizeComposition(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DisablePruning = true
	brute, err := OptimizeComposition(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Cells == 0 || pruned.Cells <= pruned.Bins {
		t.Fatalf("expected a genuine 2-D fold, got %d cells for %d bins", pruned.Cells, pruned.Bins)
	}
	if pruned.Pruned == 0 {
		t.Fatal("pruning never engaged")
	}
	if !reflect.DeepEqual(pruned.Best, brute.Best) {
		t.Fatalf("pruned optimum diverges:\n got %+v\nwant %+v", pruned.Best, brute.Best)
	}
	if !reflect.DeepEqual(pruned.TopK, brute.TopK) {
		t.Fatalf("pruned top-k diverges:\n got %+v\nwant %+v", pruned.TopK, brute.TopK)
	}
}

// TestCarbonLowerBoundAdmissible extends the admissibility property to
// the 2-D bound: never above the scored objective, for random
// candidates, with embodied carbon in play.
func TestCarbonLowerBoundAdmissible(t *testing.T) {
	cfg := carbonSmallConfig(t)
	cfg.Embodied = []Embodied{DefaultEmbodied(), {KgCO2e: 800}, {KgCO2e: 2500, LifetimeHours: 6 * 8766}}
	sp, err := newSpace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sp.varying() {
		t.Fatal("expected a varying space")
	}
	rng := rand.New(rand.NewSource(7))
	counts := make([]int, len(sp.models))
	s := sp.newScorer()
	checked := 0
	for trial := 0; trial < 400; trial++ {
		id := int64(rng.Intn(int(sp.size)))
		policy := sp.decode(id, counts)
		c, ok := sp.score(id)
		if !ok {
			continue
		}
		checked++
		if lb := s.lowerBound(s.load(id)); lb > c.Objective {
			t.Fatalf("2-D bound %v above objective %v for counts %v policy %v",
				lb, c.Objective, counts, policy)
		}
	}
	if checked < 50 {
		t.Fatalf("only %d feasible candidates checked", checked)
	}
}

// TestCarbonWorkerInvariance: byte-identical results at 1/2/8 workers
// on the 2-D fold, exhaustive and beam.
func TestCarbonWorkerInvariance(t *testing.T) {
	defer par.SetMaxWorkers(0)
	for _, mode := range []string{"exhaustive", "beam"} {
		cfg := carbonSmallConfig(t)
		cfg.Embodied = []Embodied{DefaultEmbodied(), DefaultEmbodied(), DefaultEmbodied()}
		if mode == "beam" {
			cfg.ExhaustiveLimit = 1
			cfg.BeamWidth = 8
			cfg.BeamRounds = 10
			cfg.Restarts = 3
		}
		var first Result
		var firstDigest [32]byte
		for wi, workers := range []int{1, 2, 8} {
			par.SetMaxWorkers(workers)
			res, err := OptimizeComposition(cfg)
			if err != nil {
				t.Fatal(err)
			}
			d := digest(t, res)
			if wi == 0 {
				first, firstDigest = res, d
				continue
			}
			if d != firstDigest {
				t.Fatalf("%s: digest diverges at %d workers:\n got %+v\nwant %+v",
					mode, workers, res, first)
			}
		}
	}
}

// TestFold2DMatchesExactReplay documents the 2-D fold's approximation
// bound: with no transition pricing, the fold objective lands within
// 1 % of the exact per-step billed replay at 128×8 production
// resolution, and the error shrinks with resolution.
func TestFold2DMatchesExactReplay(t *testing.T) {
	relAt := func(bins, rateBins int) float64 {
		cfg := carbonSmallConfig(t)
		cfg.Bins, cfg.RateBins = bins, rateBins
		cfg.Power = fleetsim.PowerConfig{}
		sp, err := newSpace(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var worst float64
		for _, counts := range [][]int{{2, 1, 3}, {4, 0, 2}, {3, 3, 3}} {
			for _, policy := range []cluster.Policy{cluster.PolicyPack, cluster.PolicySpread} {
				c, ok := sp.score(sp.encode(counts, policy))
				if !ok {
					t.Fatalf("counts %v infeasible", counts)
				}
				exact, err := sp.replay(c)
				if err != nil {
					t.Fatal(err)
				}
				rel := math.Abs(c.Objective-exact.ExactObjective) / exact.ExactObjective
				worst = math.Max(worst, rel)
			}
		}
		return worst
	}
	if rel := relAt(128, 8); rel > 0.01 {
		t.Fatalf("128×8 fold vs exact replay off by %v > 1%%", rel)
	}
	if coarse, fine := relAt(16, 2), relAt(256, 16); fine > coarse+1e-12 {
		t.Fatalf("fold error did not shrink with resolution: %v → %v", coarse, fine)
	}
}

// TestMultiRegion covers the one-pass multi-region evaluation: the
// optimizer reports the cheapest region per candidate, and a region
// with uniformly lower rates wins.
func TestMultiRegion(t *testing.T) {
	prof := testIntensity(t)
	clean, err := prof.Scaled(0.15)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(t)
	cfg.Objective = Objective{
		Metric: MetricCarbon,
		Regions: []Region{
			{Name: "dirty", Tariff: trace.Tariff{KgCO2PerKWh: 0.45, PUE: 1.5}, Carbon: prof},
			{Name: "clean", Tariff: trace.Tariff{KgCO2PerKWh: 0.15, PUE: 1.2}, Carbon: clean},
		},
	}
	res, err := OptimizeComposition(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Region != "clean" {
		t.Fatalf("best region %q, want clean: %+v", res.Best.Region, res.Best)
	}

	// All-static regions collapse to the cheapest static rate.
	cfg.Objective = Objective{
		Metric: MetricCarbon,
		Regions: []Region{
			{Name: "dirty", Tariff: trace.Tariff{KgCO2PerKWh: 0.45, PUE: 1.5}},
			{Name: "clean", Tariff: trace.Tariff{KgCO2PerKWh: 0.15, PUE: 1.2}},
		},
	}
	res, err = OptimizeComposition(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells != 0 {
		t.Fatalf("all-static regions built a 2-D histogram (%d cells)", res.Cells)
	}
	if res.Best.Region != "clean" {
		t.Fatalf("static best region %q, want clean", res.Best.Region)
	}

	// Mixed: one static, one varying region.
	cfg.Objective.Regions[0].Carbon = prof
	res, err = OptimizeComposition(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells == 0 {
		t.Fatal("mixed regions did not build the 2-D fold")
	}
	if res.Best.Region != "clean" {
		t.Fatalf("mixed best region %q, want clean", res.Best.Region)
	}
}

// TestEmbodiedCarbon checks the amortization arithmetic — the charge
// is exactly linear in the counts — and that it penalizes fleet size.
func TestEmbodiedCarbon(t *testing.T) {
	base := carbonSmallConfig(t)
	spNo, err := newSpace(base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Embodied = []Embodied{{KgCO2e: 1000}, {KgCO2e: 2000}, {KgCO2e: 500, LifetimeHours: 10000}}
	spEm, err := newSpace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	traceHours := cfg.Trace.StepSeconds * float64(len(cfg.Trace.DemandOps)) / 3600
	counts := []int{2, 1, 3}
	id := spEm.encode(counts, cluster.PolicyPack)
	with, ok1 := spEm.score(id)
	without, ok2 := spNo.score(id)
	if !ok1 || !ok2 {
		t.Fatal("candidate infeasible")
	}
	charge := 2*1000*traceHours/35064 + 1*2000*traceHours/35064 + 3*500*traceHours/10000
	if diff := with.Objective - without.Objective; math.Abs(diff-charge)/charge > 1e-12 {
		t.Fatalf("embodied charge %v, want %v", diff, charge)
	}
	// The exact replay carries the same charge.
	exact, err := spEm.replay(with)
	if err != nil {
		t.Fatal(err)
	}
	exactNo, err := spNo.replay(without)
	if err != nil {
		t.Fatal(err)
	}
	if diff := exact.ExactObjective - exactNo.ExactObjective; math.Abs(diff-charge)/charge > 1e-9 {
		t.Fatalf("exact embodied charge %v, want %v", diff, charge)
	}
}

// TestCarbonValidation covers the new config edges.
func TestCarbonValidation(t *testing.T) {
	prof := func() *trace.IntensityProfile { return testIntensity(t) }
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"embodied on cost", func(c *Config) {
			c.Objective = Objective{Metric: MetricCost, Tariff: trace.Tariff{USDPerKWh: 0.1}}
			c.Embodied = []Embodied{{}, {}, {}}
		}, "carbon objective"},
		{"embodied length", func(c *Config) {
			c.Objective = Objective{Metric: MetricCarbon, Tariff: trace.Tariff{KgCO2PerKWh: 0.45}}
			c.Embodied = []Embodied{{}}
		}, "embodied entries"},
		{"embodied negative", func(c *Config) {
			c.Objective = Objective{Metric: MetricCarbon, Tariff: trace.Tariff{KgCO2PerKWh: 0.45}}
			c.Embodied = []Embodied{{KgCO2e: -5}, {}, {}}
		}, "KgCO2e"},
		{"profile and regions", func(c *Config) {
			c.Objective = Objective{Metric: MetricCarbon, Carbon: prof(),
				Regions: []Region{{Tariff: trace.Tariff{KgCO2PerKWh: 0.45}}}}
		}, "per region"},
		{"zero profile", func(c *Config) {
			c.Objective = Objective{Metric: MetricCarbon,
				Carbon: &trace.IntensityProfile{StepSeconds: 3600, Rates: []float64{0, 0}}}
		}, "uniformly zero"},
		{"bad region tariff", func(c *Config) {
			c.Objective = Objective{Metric: MetricCarbon,
				Regions: []Region{{Name: "x", Tariff: trace.Tariff{KgCO2PerKWh: math.NaN()}}}}
		}, "KgCO2PerKWh"},
		{"misaligned profile", func(c *Config) {
			c.Objective = Objective{Metric: MetricCarbon,
				Carbon: &trace.IntensityProfile{StepSeconds: 1234, Rates: []float64{0.3, 0.6}}}
		}, "align"},
		{"bad rate bins", func(c *Config) {
			c.Objective = Objective{Metric: MetricCarbon, Carbon: prof()}
			c.RateBins = -2
		}, "RateBins"},
		{"bad rate bins on a static objective", func(c *Config) {
			c.Objective = Objective{Metric: MetricCost, Tariff: trace.Tariff{USDPerKWh: 0.1}}
			c.RateBins = -1
		}, "RateBins"},
	}
	for _, tc := range cases {
		cfg := smallConfig(t)
		tc.mut(&cfg)
		_, err := OptimizeComposition(cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want %q", tc.name, err, tc.want)
		}
	}

	// Typed errors surface through the config layer.
	cfg := smallConfig(t)
	cfg.Objective = Objective{Metric: MetricCarbon,
		Carbon: &trace.IntensityProfile{StepSeconds: 3600, Rates: []float64{0.4, -1}}}
	var re *trace.RateError
	if _, err := OptimizeComposition(cfg); !errors.As(err, &re) {
		t.Errorf("negative profile rate: got %v, want *trace.RateError", err)
	}
}

// TestCarbonProfileShiftsOptimum is the qualitative paper point: under
// a strongly time-varying intensity the optimizer can prefer a
// different composition than under the flat tariff with the same mean,
// and in any case must price the same composition differently.
func TestCarbonProfileShiftsOptimum(t *testing.T) {
	cfg := carbonSmallConfig(t)
	res, err := OptimizeComposition(cfg)
	if err != nil {
		t.Fatal(err)
	}
	static := cfg
	static.Objective = Objective{Metric: MetricCarbon, Tariff: trace.Tariff{KgCO2PerKWh: 0.45, PUE: 1.5}}
	resStatic, err := OptimizeComposition(static)
	if err != nil {
		t.Fatal(err)
	}
	// Same mean intensity, but demand is diurnal and correlated with
	// the profile — the billed objective must differ measurably.
	if math.Abs(res.Best.Objective-resStatic.Best.Objective)/resStatic.Best.Objective < 1e-4 {
		t.Fatalf("time-varying billing indistinguishable from static: %v vs %v",
			res.Best.Objective, resStatic.Best.Objective)
	}
}
