package optimize

import (
	"encoding/hex"
	"testing"

	"repro/internal/trace"
)

// goldenBins is the occupied demand-bin count of smallConfig's trace
// at 32 bins; every golden variant folds the same trace.
const goldenBins = 32

// TestGoldenDigests pins OptimizeComposition's output bit-for-bit: each
// smallConfig variant's Result digest is a committed constant, so a
// refactor of the fold, scorer, bound or replay that moves any float
// by one ulp fails here even though worker-invariance still holds.
func TestGoldenDigests(t *testing.T) {
	beam := func(c *Config) {
		c.ExhaustiveLimit = 1
		c.BeamWidth = 8
		c.BeamRounds = 10
		c.Restarts = 3
	}
	embodied := func(c *Config) {
		c.Embodied = []Embodied{DefaultEmbodied(), {KgCO2e: 800}, {KgCO2e: 2500, LifetimeHours: 6 * 8766}}
	}
	staticCarbon := Objective{Metric: MetricCarbon, Tariff: trace.Tariff{KgCO2PerKWh: 0.45, PUE: 1.5}}
	regions := func(c *Config, dirty, clean bool) {
		prof := testIntensity(t)
		scaled, err := prof.Scaled(0.15)
		if err != nil {
			t.Fatal(err)
		}
		c.Objective = Objective{Metric: MetricCarbon, Regions: []Region{
			{Name: "dirty", Tariff: trace.Tariff{KgCO2PerKWh: 0.45, PUE: 1.5}},
			{Name: "clean", Tariff: trace.Tariff{KgCO2PerKWh: 0.15, PUE: 1.2}},
		}}
		if dirty {
			c.Objective.Regions[0].Carbon = prof
		}
		if clean {
			c.Objective.Regions[1].Carbon = scaled
		}
	}
	cases := []struct {
		name   string
		carbon bool // start from carbonSmallConfig instead of smallConfig
		mut    func(*Config)
		want   string
	}{
		{"static energy pruned", false, func(c *Config) {},
			"69a39d023f6f476c76c33b939c3c23db801113f0cf022a2a9f7fd3ffe850da56"},
		{"static energy unpruned", false, func(c *Config) { c.DisablePruning = true },
			"7a643d92b1fd90ca18feae1599efcdd448cdac56563b8959cdc26afbabf4362c"},
		{"static energy beam", false, beam,
			"1bfc915701af5c836dc073d3d47ada0fe5a3a2f82dd3ee8f29e8e2e0e29924bf"},
		{"static cost", false, func(c *Config) {
			c.Objective = Objective{Metric: MetricCost, Tariff: trace.Tariff{USDPerKWh: 0.10, PUE: 1.5}}
		}, "df213033aa633f69df441afec38bf074384a75220429c9077d3865f12d052ddc"},
		{"static carbon embodied", false, func(c *Config) {
			c.Objective = staticCarbon
			embodied(c)
		}, "09014c4f90044230938cf2d67061e9b27e607b8a0987780ab621bc54e15856a8"},
		{"diurnal carbon exhaustive", true, func(c *Config) {},
			"29f2b239835442fdd59b9f2ba38175759e8ceb8f59e411a31bd251002266fb7e"},
		{"diurnal carbon embodied beam", true, func(c *Config) {
			embodied(c)
			beam(c)
		}, "295303e4655068da9d2d0a2a0937fdad91aa1061a9d3d7dd58fca76aba60558d"},
		{"constant profile", false, func(c *Config) {
			c.Objective = staticCarbon
			c.Objective.Carbon = &trace.IntensityProfile{StepSeconds: 3600, Rates: []float64{0.45, 0.45, 0.45, 0.45}}
		}, "57c702ce7c72c4cb502a50af35f4d9f83111ceb871325d2b1a021486432c40df"},
		{"two varying regions", false, func(c *Config) { regions(c, true, true) },
			"2f32e459563c8144cd953df13347a87e2252a23fb0a8a75f6fcf22fb6992b265"},
		{"two static regions", false, func(c *Config) { regions(c, false, false) },
			"61f5113cd607b98ad330d48f980217125aa0cb6a1cb80a13a30e95bc0f14e2c7"},
		{"static and varying region", false, func(c *Config) { regions(c, true, false) },
			"1f5d1b01c65a4692e3fac264e44db292d8589f12c632e98e3752d0f46842ea5b"},
	}
	for _, tc := range cases {
		cfg := smallConfig(t)
		if tc.carbon {
			cfg = carbonSmallConfig(t)
		}
		tc.mut(&cfg)
		res, err := OptimizeComposition(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		d := digest(t, res)
		if got := hex.EncodeToString(d[:]); got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
		}
		if res.Bins != goldenBins {
			t.Errorf("%s: %d occupied demand bins, want %d", tc.name, res.Bins, goldenBins)
		}
	}
}
