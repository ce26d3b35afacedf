package optimize

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fleetsim"
	"repro/internal/par"
	"repro/internal/placement"
	"repro/internal/trace"
)

// benchConfig is the acceptance workload: 5 models x counts {0..6} =
// 16806 non-empty compositions under one policy, scored against a
// 1-week 1-minute trace (10080 steps). The demand peak is kept below
// any single server's capacity so every non-empty composition is
// feasible and actually scored.
func benchConfig(b *testing.B) Config {
	b.Helper()
	rng := rand.New(rand.NewSource(47))
	models := make([]*placement.Profile, 5)
	minOps := 1e18
	for i := range models {
		models[i] = testModel(b, rng, "model", 1e5+1e6*rng.Float64())
		if models[i].MaxOps < minOps {
			minOps = models[i].MaxOps
		}
	}
	tr, err := trace.Diurnal(trace.DiurnalConfig{
		Seed: 29, Days: 7, StepSeconds: 60,
		BaseOps: 0.5 * minOps, DailySwing: 0.4, SpikeProb: 0.002,
	})
	if err != nil {
		b.Fatal(err)
	}
	return Config{
		Models:         models,
		Trace:          tr,
		Policies:       []cluster.Policy{cluster.PolicyPack},
		MaxPerModel:    6,
		Bins:           128,
		TopK:           5,
		Seed:           7,
		DisablePruning: true,
	}
}

// BenchmarkOptimizeGrouped measures the full optimizer — grouped
// evaluators + compressed trace, pruning disabled so all 16806
// candidates are scored — single-threaded. The acceptance target is
// >= 10000 candidates against a 1-week/1-minute trace in <= 1 s.
func BenchmarkOptimizeGrouped(b *testing.B) {
	cfg := benchConfig(b)
	defer par.SetMaxWorkers(par.SetMaxWorkers(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := OptimizeComposition(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Evaluated < 10000 {
			b.Fatalf("only %d candidates evaluated", res.Evaluated)
		}
	}
}

// BenchmarkOptimizePruned is the production configuration: same space
// with the admissible lower bound enabled.
func BenchmarkOptimizePruned(b *testing.B) {
	cfg := benchConfig(b)
	cfg.DisablePruning = false
	defer par.SetMaxWorkers(par.SetMaxWorkers(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OptimizeComposition(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeNaivePerCandidate is the baseline the tentpole
// replaces: one full fleetsim.Run over the expanded member list per
// candidate. It scores a fixed 8-candidate sample; ns/op divided by 8
// is the naive per-candidate cost, to be compared against the grouped
// benchmark's per-candidate cost (ns/op / 16806).
func BenchmarkOptimizeNaivePerCandidate(b *testing.B) {
	cfg := benchConfig(b)
	sp, err := newSpace(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var fleets [][]*placement.Profile
	counts := make([]int, len(cfg.Models))
	for len(fleets) < 8 {
		id := int64(rng.Intn(int(sp.size)))
		if sp.decode(id, counts); !sp.feasible(counts) {
			continue
		}
		var members []*placement.Profile
		for m, c := range counts {
			for j := 0; j < c; j++ {
				members = append(members, cfg.Models[m])
			}
		}
		fleets = append(fleets, members)
	}
	defer par.SetMaxWorkers(par.SetMaxWorkers(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, members := range fleets {
			res, err := fleetsim.Run(fleetsim.Config{
				Members: members,
				Policy:  cluster.PolicyPack,
				Trace:   cfg.Trace,
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.EnergyKWh <= 0 {
				b.Fatal("no energy")
			}
		}
	}
}

// allPolicyConfigs is fleet-batch's search shape: 5 models x counts
// {0..6} x all four policies (67,228 candidates), pruning on, against
// a 1-week 1-minute diurnal trace whose base demand is 8% of the
// largest composition's capacity, so most of the space is feasible
// and the admissible bound decides what is scored. It returns the
// three objectives fleet-batch searches: static energy, carbon under
// a diurnal intensity profile, and carbon over two regions with
// scaled profiles and embodied carbon.
func allPolicyConfigs(b *testing.B) (static, diurnal, regions Config) {
	b.Helper()
	rng := rand.New(rand.NewSource(47))
	models := testModels(b, rng, 5)
	var maxCap float64
	for _, m := range models {
		maxCap += 6 * m.MaxOps
	}
	tr, err := trace.Diurnal(trace.DiurnalConfig{
		Seed: 29, Days: 7, StepSeconds: 60,
		BaseOps: 0.08 * maxCap, DailySwing: 0.4, SpikeProb: 0.002,
	})
	if err != nil {
		b.Fatal(err)
	}
	carbon, err := trace.DiurnalIntensity(trace.IntensityConfig{StepSeconds: 3600, BaseKgPerKWh: 0.45})
	if err != nil {
		b.Fatal(err)
	}
	tariff := trace.Tariff{USDPerKWh: 0.10, KgCO2PerKWh: 0.45, PUE: 1.5}
	base := Config{Models: models, Trace: tr, MaxPerModel: 6, Bins: 128, TopK: 5, Seed: 7}
	static, diurnal, regions = base, base, base
	static.Objective = Objective{Metric: MetricEnergy, Tariff: tariff}
	diurnal.Objective = Objective{Metric: MetricCarbon, Tariff: tariff, Carbon: carbon}
	var rs []Region
	for _, r := range []struct {
		name           string
		kg, pue, shape float64
	}{{"west", 0.35, 1.2, 0.35}, {"east", 0.55, 1.5, 0.55}} {
		p, err := carbon.Scaled(r.shape)
		if err != nil {
			b.Fatal(err)
		}
		rs = append(rs, Region{Name: r.name, Tariff: trace.Tariff{KgCO2PerKWh: r.kg, PUE: r.pue}, Carbon: p})
	}
	regions.Objective = Objective{Metric: MetricCarbon, Regions: rs}
	regions.Embodied = make([]Embodied, len(models))
	for i := range regions.Embodied {
		regions.Embodied[i] = DefaultEmbodied()
	}
	return static, diurnal, regions
}

// BenchmarkOptimizeAllPolicies runs fleet-batch's three searches,
// single-threaded, one sub-benchmark per objective. Unlike the
// one-policy benchmarks above it exercises the bound shared across a
// count vector's policies and the spread and optimal-region kernels.
func BenchmarkOptimizeAllPolicies(b *testing.B) {
	static, diurnal, regions := allPolicyConfigs(b)
	defer par.SetMaxWorkers(par.SetMaxWorkers(1))
	for _, bc := range []struct {
		name string
		cfg  Config
	}{{"static", static}, {"diurnal", diurnal}, {"regions", regions}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := OptimizeComposition(bc.cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.Evaluated == 0 || res.Pruned == 0 {
					b.Fatalf("evaluated %d, pruned %d", res.Evaluated, res.Pruned)
				}
			}
		})
	}
}
