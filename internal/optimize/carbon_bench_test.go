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

// carbonBenchConfig is benchConfig on the carbon objective with a
// diurnal intensity profile: the acceptance workload for the 2-D fold
// — all 16806 candidates against a 1-week/1-minute trace under a
// time-varying rate, single-threaded.
func carbonBenchConfig(b *testing.B) Config {
	cfg := benchConfig(b)
	prof, err := trace.DiurnalIntensity(trace.IntensityConfig{})
	if err != nil {
		b.Fatal(err)
	}
	cfg.Objective = Objective{
		Metric: MetricCarbon,
		Tariff: trace.Tariff{KgCO2PerKWh: 0.45, PUE: 1.5},
		Carbon: prof,
	}
	return cfg
}

// BenchmarkCarbonStatic1D is the baseline: the same space and carbon
// objective priced at the static tariff, so the fold carries no rate
// set and is the plain demand histogram. The acceptance bar is
// BenchmarkCarbonFold2D ≤ 2× this.
func BenchmarkCarbonStatic1D(b *testing.B) {
	cfg := carbonBenchConfig(b)
	cfg.Objective.Carbon = nil
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

// BenchmarkCarbonFold2D scores the full space under the diurnal
// intensity profile through the 2-D demand×intensity fold.
func BenchmarkCarbonFold2D(b *testing.B) {
	cfg := carbonBenchConfig(b)
	defer par.SetMaxWorkers(par.SetMaxWorkers(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := OptimizeComposition(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Evaluated < 10000 || res.Cells == 0 {
			b.Fatalf("evaluated %d, cells %d", res.Evaluated, res.Cells)
		}
	}
}

// BenchmarkCarbonNaiveReplay is the alternative the fold replaces:
// exact per-step billing of every candidate through fleetsim with the
// intensity profile attached. It replays a fixed 8-candidate sample;
// ns/op ÷ 8 versus BenchmarkCarbonFold2D's ns/op ÷ 16806 is the
// recorded fold-vs-replay speedup (target ≥ 50×).
func BenchmarkCarbonNaiveReplay(b *testing.B) {
	cfg := carbonBenchConfig(b)
	sp, err := newSpace(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var ids []int64
	counts := make([]int, len(cfg.Models))
	for len(ids) < 8 {
		id := int64(rng.Intn(int(sp.size)))
		if sp.decode(id, counts); !sp.feasible(counts) {
			continue
		}
		ids = append(ids, id)
	}
	prof := cfg.Objective.Carbon
	defer par.SetMaxWorkers(par.SetMaxWorkers(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, id := range ids {
			c, ok := sp.score(id)
			if !ok {
				b.Fatal("candidate infeasible")
			}
			groups := make([]placement.Group, 0, len(c.Counts))
			for m, n := range c.Counts {
				if n > 0 {
					groups = append(groups, placement.Group{P: cfg.Models[m], Count: n})
				}
			}
			res, err := fleetsim.Run(fleetsim.Config{
				Groups: groups,
				Policy: cluster.PolicyPack,
				Trace:  cfg.Trace,
				Carbon: prof,
				PUE:    1.5,
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.CarbonKg <= 0 {
				b.Fatal("no carbon billed")
			}
		}
	}
}
