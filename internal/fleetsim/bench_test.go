package fleetsim

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/placement"
	"repro/internal/synth"
	"repro/internal/trace"
)

// benchFleet tiles 64 distinct random profiles to size n: heterogeneous
// enough to exercise the binary searches, cheap enough to build at 100k.
func benchFleet(b *testing.B, n int) []*placement.Profile {
	b.Helper()
	rng := rand.New(rand.NewSource(23))
	distinct := make([]*placement.Profile, 64)
	for i := range distinct {
		distinct[i] = testProfile(b, rng, "node")
	}
	fleet := make([]*placement.Profile, n)
	for i := range fleet {
		fleet[i] = distinct[i%len(distinct)]
	}
	return fleet
}

func benchConfig(b *testing.B, servers, days int) Config {
	b.Helper()
	tr, err := trace.Diurnal(trace.DiurnalConfig{
		Seed:        31,
		Days:        days,
		StepSeconds: 60,
		BaseOps:     float64(servers) * 3e5,
		DailySwing:  0.6,
	})
	if err != nil {
		b.Fatal(err)
	}
	return Config{
		Members: benchFleet(b, servers),
		Policy:  cluster.PolicyPackPowerOff,
		Trace:   tr,
		Power: PowerConfig{
			OnSeconds:       30,
			OffSeconds:      10,
			HysteresisSteps: 5,
			HeadroomFrac:    0.05,
			MinActive:       1,
		},
	}
}

// BenchmarkFleetSimIncremental100kWeek is the ISSUE's perf target: a
// 100k-server fleet stepped at 1-minute resolution over a simulated
// week (10,080 steps) must complete in ≤ 5 s.
func BenchmarkFleetSimIncremental100kWeek(b *testing.B) {
	cfg := benchConfig(b, 100_000, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetSimIncremental10kDay is the incremental half of the
// before/after matrix at a scale the naive baseline can also run.
func BenchmarkFleetSimIncremental10kDay(b *testing.B) {
	cfg := benchConfig(b, 10_000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// naiveRun is the before: the same simulation with the cluster state
// recomposed from scratch — a fresh cluster.NewEvaluator, O(n) — at
// every time step, the cost the incremental stepper eliminates.
func naiveRun(b *testing.B, cfg Config) {
	b.Helper()
	ref := &refSim{cfg: cfg}
	for i, d := range cfg.Trace.DemandOps {
		ref.step(b, i, d)
	}
}

// BenchmarkFleetSimNaive10kDay is the recompose-per-step baseline for
// BENCH_fleetsim.json's before/after matrix.
func BenchmarkFleetSimNaive10kDay(b *testing.B) {
	cfg := benchConfig(b, 10_000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naiveRun(b, cfg)
	}
}

// BenchmarkFleetSimStep isolates the per-step cost on a warm stepper —
// the O(log n + Δservers) claim, allocation-asserted.
func BenchmarkFleetSimStep(b *testing.B) {
	cfg := benchConfig(b, 100_000, 1)
	ev, err := cluster.NewEvaluator(cfg.Members, cfg.Policy)
	if err != nil {
		b.Fatal(err)
	}
	st := newStepper(cfg, ev)
	demands := cfg.Trace.DemandOps
	st.Step(demands[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Step(demands[i%len(demands)])
	}
}

// weekConfig is specsim's default run: a seeded 1,000-server synthetic
// fleet under a one-minute diurnal week at 45% mean load — the
// simulation fleet-batch times under every policy.
func weekConfig(b *testing.B, policy cluster.Policy) Config {
	b.Helper()
	results, err := synth.GenerateFleet(synth.FleetConfig{Seed: 3, Servers: 1000})
	if err != nil {
		b.Fatal(err)
	}
	fleet, err := placement.Profiles(results)
	if err != nil {
		b.Fatal(err)
	}
	var capacity float64
	for _, p := range fleet {
		capacity += p.MaxOps
	}
	tr, err := trace.Diurnal(trace.DiurnalConfig{
		Seed: 3, Days: 7, StepSeconds: 60, BaseOps: 0.45 * capacity,
		DailySwing: 0.55, NoiseFrac: 0.04, SpikeProb: 0.002, WeekendFactor: 0.7,
	})
	if err != nil {
		b.Fatal(err)
	}
	return Config{
		Members: fleet,
		Policy:  policy,
		Trace:   tr,
		Power:   PowerConfig{OnSeconds: 30, OffSeconds: 10, HysteresisSteps: 5, HeadroomFrac: 0.05, MinActive: 1},
		Seed:    3,
	}
}

func benchWeek(b *testing.B, policy cluster.Policy) {
	cfg := weekConfig(b, policy)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetSimSpread1kWeek times the spread policy's week: a power
// sum over the whole fleet at every step.
func BenchmarkFleetSimSpread1kWeek(b *testing.B) { benchWeek(b, cluster.PolicySpread) }

// BenchmarkFleetSimOptimalRegion1kWeek times the optimal-region week: a
// proportional fill over the engage order at every step.
func BenchmarkFleetSimOptimalRegion1kWeek(b *testing.B) { benchWeek(b, cluster.PolicyOptimalRegion) }
