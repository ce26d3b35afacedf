package optimize

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fleetsim"
	"repro/internal/par"
	"repro/internal/placement"
	"repro/internal/trace"
)

// testModel builds a valid profile with a random strictly-increasing
// power shape and the given capacity.
func testModel(t testing.TB, rng *rand.Rand, id string, maxOps float64) *placement.Profile {
	t.Helper()
	idleFrac := 0.05 + 0.6*rng.Float64()
	norm := make([]float64, 10)
	v := idleFrac
	for i := range norm {
		v += 0.01 + rng.Float64()*0.2
		norm[i] = v
	}
	peakW := 100 + 400*rng.Float64()
	watts := make([]float64, 10)
	ops := make([]float64, 10)
	for i := range norm {
		watts[i] = peakW * norm[i] / v
		ops[i] = maxOps * float64(i+1) / 10
	}
	c, err := core.NewStandardCurve(peakW*idleFrac/v, watts, ops)
	if err != nil {
		t.Fatal(err)
	}
	p, err := placement.NewProfile(id, c)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func testModels(t testing.TB, rng *rand.Rand, n int) []*placement.Profile {
	t.Helper()
	models := make([]*placement.Profile, n)
	for i := range models {
		models[i] = testModel(t, rng, fmt.Sprintf("model-%d", i), 1e5+1e6*rng.Float64())
	}
	return models
}

func testDiurnal(t testing.TB, days int, baseOps float64) *trace.Trace {
	t.Helper()
	tr, err := trace.Diurnal(trace.DiurnalConfig{
		Seed: 17, Days: days, StepSeconds: 300,
		BaseOps: baseOps, DailySwing: 0.4, SpikeProb: 0.005,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// smallConfig is a brute-forceable space: 3 models x counts {0..6} x 4
// policies = 1372 candidates.
func smallConfig(t testing.TB) Config {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	models := testModels(t, rng, 3)
	var maxCap float64
	for _, m := range models {
		maxCap += 6 * m.MaxOps
	}
	return Config{
		Models:      models,
		Trace:       testDiurnal(t, 1, 0.15*maxCap),
		MaxPerModel: 6,
		Bins:        32,
		TopK:        5,
		Seed:        3,
		Power:       fleetsim.PowerConfig{OnSeconds: 90, OffSeconds: 30, HysteresisSteps: 3, HeadroomFrac: 0.1},
	}
}

// TestPruningSoundOnBruteForceableSpace pins the pruned search to the
// exhaustive reference: pruning may only skip candidates that cannot
// enter the top-k, so Best and the full shortlist must be identical to
// the DisablePruning run — which scores every feasible candidate.
func TestPruningSoundOnBruteForceableSpace(t *testing.T) {
	cfg := smallConfig(t)
	pruned, err := OptimizeComposition(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DisablePruning = true
	brute, err := OptimizeComposition(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !pruned.Exhaustive || !brute.Exhaustive {
		t.Fatalf("expected exhaustive runs (space %d)", pruned.SpaceSize)
	}
	if pruned.SpaceSize != 1372 {
		t.Fatalf("space size %d, want 1372", pruned.SpaceSize)
	}
	if pruned.Pruned == 0 {
		t.Fatal("pruning never engaged on a space with dominated candidates")
	}
	if !reflect.DeepEqual(pruned.Best, brute.Best) {
		t.Fatalf("pruned optimum diverges:\n got %+v\nwant %+v", pruned.Best, brute.Best)
	}
	if !reflect.DeepEqual(pruned.TopK, brute.TopK) {
		t.Fatalf("pruned top-k diverges:\n got %+v\nwant %+v", pruned.TopK, brute.TopK)
	}

	// Independently brute-force the histogram ranking and check the
	// shortlist membership is exactly the k best feasible candidates.
	sp, err := newSpace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want []Candidate
	for id := int64(0); id < sp.size; id++ {
		if c, ok := sp.score(id); ok {
			want = pushTop(want, c, cfg.TopK)
		}
	}
	got := make(map[int64]bool, len(brute.TopK))
	for _, c := range brute.TopK {
		got[c.ID] = true
	}
	for _, c := range want {
		if !got[c.ID] {
			t.Fatalf("true top-k candidate %d (obj %v) missing from shortlist", c.ID, c.Objective)
		}
	}
	best := brute.Best
	if !best.Exact || best.ExactEnergyKWh <= 0 || best.Servers == 0 {
		t.Fatalf("best candidate not exactly replayed: %+v", best)
	}
}

// digest canonicalizes a Result bit-for-bit: every float enters the
// hash as its IEEE bits, so two results collide iff they are
// byte-identical.
func digest(t *testing.T, res Result) [32]byte {
	t.Helper()
	h := sha256.New()
	f := func(v float64) { binary.Write(h, binary.LittleEndian, math.Float64bits(v)) }
	i := func(v int64) { binary.Write(h, binary.LittleEndian, v) }
	cand := func(c Candidate) {
		i(c.ID)
		for _, n := range c.Counts {
			i(int64(n))
		}
		i(int64(c.Policy))
		i(int64(c.Servers))
		f(c.CapacityOps)
		f(c.EnergyKWh)
		f(c.Objective)
		f(c.ExactEnergyKWh)
		f(c.ExactObjective)
		h.Write([]byte(c.Region))
	}
	cand(res.Best)
	i(int64(len(res.TopK)))
	for _, c := range res.TopK {
		cand(c)
	}
	i(res.SpaceSize)
	i(res.Evaluated)
	i(res.Pruned)
	i(res.Infeasible)
	i(int64(res.Cells))
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// TestWorkerInvariance pins the determinism contract: byte-identical
// results at 1, 2 and 8 workers, for both the exhaustive scan and the
// beam search.
func TestWorkerInvariance(t *testing.T) {
	defer par.SetMaxWorkers(0)
	for _, mode := range []string{"exhaustive", "beam"} {
		cfg := smallConfig(t)
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
			if res.Exhaustive != (mode == "exhaustive") {
				t.Fatalf("%s: exhaustive=%v", mode, res.Exhaustive)
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

// TestBeamNearsExhaustiveOptimum sanity-checks the beam search: on a
// space small enough to brute-force, the beam's optimum must land
// within a few percent of the true one.
func TestBeamNearsExhaustiveOptimum(t *testing.T) {
	cfg := smallConfig(t)
	exact, err := OptimizeComposition(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ExhaustiveLimit = 1
	beam, err := OptimizeComposition(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if beam.Exhaustive {
		t.Fatal("beam run reported exhaustive")
	}
	rel := (beam.Best.ExactObjective - exact.Best.ExactObjective) / exact.Best.ExactObjective
	if rel > 0.05 || rel < -1e-12 {
		t.Fatalf("beam optimum %v vs exhaustive %v (rel %v)",
			beam.Best.ExactObjective, exact.Best.ExactObjective, rel)
	}
}

// TestLowerBoundAdmissible is the pruning-correctness property: for
// random feasible candidates the lower bound never exceeds the scored
// objective.
func TestLowerBoundAdmissible(t *testing.T) {
	cfg := smallConfig(t)
	sp, err := newSpace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
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
			t.Fatalf("bound %v above objective %v for counts %v policy %v",
				lb, c.Objective, counts, policy)
		}
	}
	if checked < 50 {
		t.Fatalf("only %d feasible candidates checked", checked)
	}
}

// TestPackOffBoundTable pins the pack+off bound read from the
// per-model table to the per-cell bound it stands for, bit for bit, on
// folds with zero, one, two and three rate sets, embodied carbon
// included.
func TestPackOffBoundTable(t *testing.T) {
	prof := testIntensity(t)
	regions := func(n int) []Region {
		rs := make([]Region, n)
		for i := range rs {
			p, err := prof.Scaled(0.2 + 0.3*float64(i))
			if err != nil {
				t.Fatal(err)
			}
			rs[i] = Region{Name: string(rune('a' + i)), Tariff: trace.Tariff{KgCO2PerKWh: 0.2 + 0.1*float64(i), PUE: 1.3}, Carbon: p}
		}
		return rs
	}
	embodied := []Embodied{DefaultEmbodied(), {KgCO2e: 800}, {KgCO2e: 2500}}
	for _, rateSets := range []int{0, 1, 2, 3} {
		cfg := smallConfig(t)
		switch rateSets {
		case 1:
			cfg = carbonSmallConfig(t)
			cfg.Embodied = embodied
		case 2, 3:
			cfg.Objective = Objective{Metric: MetricCarbon, Regions: regions(rateSets)}
			cfg.Embodied = embodied
		}
		sp, err := newSpace(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(sp.hist.Rates) != rateSets {
			t.Fatalf("fold carries %d rate sets, want %d", len(sp.hist.Rates), rateSets)
		}
		ref := *sp
		ref.maxCellOps = math.Inf(1) // never read the table
		s, r := sp.newScorer(), ref.newScorer()
		table := 0
		for id := int64(0); id < sp.size; id++ {
			policy := s.load(id)
			r.load(id)
			if policy != cluster.PolicyPackPowerOff || !s.feasible {
				continue
			}
			if s.capacity >= sp.maxCellOps {
				table++
			}
			if got, want := s.lowerBound(policy), r.lowerBound(policy); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%d rate sets, counts %v: table bound %v, per-cell bound %v", rateSets, s.counts, got, want)
			}
		}
		if table == 0 {
			t.Fatalf("%d rate sets: no candidate read the table", rateSets)
		}
	}
}

// TestHistogramMatchesSteadyReplay bounds the compression error: with
// no transition pricing and no hysteresis, fleetsim over the full
// trace is the exact steady-state energy, and the histogram score must
// land within a fraction of a percent of it at production resolution.
func TestHistogramMatchesSteadyReplay(t *testing.T) {
	cfg := smallConfig(t)
	cfg.Bins = 256
	cfg.Power = fleetsim.PowerConfig{}
	sp, err := newSpace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := []int{2, 1, 3}
	for _, policy := range cluster.AllPolicies() {
		c, ok := sp.score(sp.encode(counts, policy))
		if !ok {
			t.Fatalf("%v: candidate infeasible", policy)
		}
		var groups []placement.Group
		for m, n := range counts {
			groups = append(groups, placement.Group{P: cfg.Models[m], Count: n})
		}
		res, err := fleetsim.Run(fleetsim.Config{Groups: groups, Policy: policy, Trace: cfg.Trace})
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(c.EnergyKWh-res.EnergyKWh) / res.EnergyKWh
		if rel > 0.005 {
			t.Fatalf("%v: histogram %v kWh vs exact %v kWh (rel %v)",
				policy, c.EnergyKWh, res.EnergyKWh, rel)
		}
	}
}

// TestObjectiveMetrics covers metric parsing and pricing.
func TestObjectiveMetrics(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Metric
	}{{"energy", MetricEnergy}, {"kWh", MetricEnergy}, {"cost", MetricCost},
		{"USD", MetricCost}, {"carbon", MetricCarbon}, {"co2", MetricCarbon}} {
		m, err := ParseMetric(tc.in)
		if err != nil || m != tc.want {
			t.Fatalf("ParseMetric(%q) = %v, %v", tc.in, m, err)
		}
	}
	if _, err := ParseMetric("joules"); err == nil {
		t.Error("unknown metric accepted")
	}
	tariff := trace.Tariff{USDPerKWh: 0.1, KgCO2PerKWh: 0.45, PUE: 1.5}
	for _, tc := range []struct {
		m    Metric
		want float64
		unit string
	}{{MetricEnergy, 15, "kWh"}, {MetricCost, 1.5, "USD"}, {MetricCarbon, 6.75, "kgCO2"}} {
		o := Objective{Metric: tc.m, Tariff: tariff}
		if err := o.Validate(); err != nil {
			t.Fatal(err)
		}
		if got := o.Value(10); math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("%v.Value(10) = %v, want %v", tc.m, got, tc.want)
		}
		if tc.m.Unit() != tc.unit {
			t.Fatalf("%v.Unit() = %q", tc.m, tc.m.Unit())
		}
	}
	if err := (Objective{Metric: MetricCost}).Validate(); err == nil {
		t.Error("cost objective without a price accepted")
	}
	if err := (Objective{Metric: MetricCarbon}).Validate(); err == nil {
		t.Error("carbon objective without an intensity accepted")
	}
	if err := (Objective{Tariff: trace.Tariff{PUE: 0.5}}).Validate(); err == nil {
		t.Error("invalid tariff accepted")
	}
	if (Objective{}).Value(10) != 10 {
		t.Error("zero objective is not identity on kWh")
	}
}

// TestOptimizeValidation covers the config edges.
func TestOptimizeValidation(t *testing.T) {
	base := smallConfig(t)
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"no models", func(c *Config) { c.Models = nil }, "no models"},
		{"nil model", func(c *Config) { c.Models = []*placement.Profile{nil} }, "nil model"},
		{"duplicate model", func(c *Config) { c.Models = []*placement.Profile{c.Models[0], c.Models[0]} }, "duplicate"},
		{"no trace", func(c *Config) { c.Trace = nil }, "no trace"},
		{"zero demand", func(c *Config) { c.Trace = &trace.Trace{StepSeconds: 60, DemandOps: []float64{0, 0}} }, "no demand"},
		{"bad grid", func(c *Config) { c.MaxPerModel = 2; c.CountStep = 5 }, "count grid"},
		{"bad policy", func(c *Config) { c.Policies = []cluster.Policy{cluster.Policy(99)} }, "unknown policy"},
		{"bad topk", func(c *Config) { c.TopK = -1 }, "TopK"},
		{"infeasible", func(c *Config) { c.MaxPerModel = 1; c.Trace = testDiurnal(t, 1, 1e12) }, "no feasible"},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		_, err := OptimizeComposition(cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestEncodeDecodeRoundTrip pins the candidate numbering.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	cfg := smallConfig(t)
	cfg.CountStep = 2
	cfg.MaxPerModel = 6
	sp, err := newSpace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(sp.models))
	for id := int64(0); id < sp.size; id++ {
		policy := sp.decode(id, counts)
		for _, c := range counts {
			if c%2 != 0 || c < 0 || c > 6 {
				t.Fatalf("id %d: count %d off the grid", id, c)
			}
		}
		if back := sp.encode(counts, policy); back != id {
			t.Fatalf("roundtrip %d -> %v/%v -> %d", id, counts, policy, back)
		}
	}
}

// TestScanAllocs holds the exhaustive scan's per-candidate path to zero
// allocations for a candidate that is infeasible, one that is pruned
// and one that is scored but does not enter the shortlist. Each run
// alternates two count vectors, so the bound and the evaluator are
// rebuilt every time.
func TestScanAllocs(t *testing.T) {
	sp, err := newSpace(smallConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	np := int64(len(sp.policies))
	last := sp.size/np - 1 // every model at its largest count
	big := [2]int64{last*np + 2, (last-1)*np + 0}
	better := make([]Candidate, sp.topK)
	for i := range better {
		better[i] = Candidate{ID: -1 - int64(i), Objective: math.Inf(-1)}
	}
	for _, tc := range []struct {
		name  string
		ids   [2]int64
		bound float64
		top   []Candidate
		want  outcome
	}{
		{"infeasible", [2]int64{0, np + 1}, math.Inf(1), nil, infeasible},
		{"pruned", big, 0, nil, pruned},
		{"scored and discarded", big, math.Inf(1), better, scored},
	} {
		s := sp.newScorer()
		for _, id := range tc.ids {
			if _, o := s.visit(id, tc.bound); o != tc.want {
				t.Fatalf("%s: candidate %d visits as %v, want %v", tc.name, id, o, tc.want)
			}
		}
		r := segResult{top: tc.top}
		i := 0
		allocs := testing.AllocsPerRun(100, func() {
			i++
			s.scan(tc.ids[i%2], tc.bound, &r)
		})
		if allocs != 0 {
			t.Errorf("%s: scanning a candidate allocates %v objects", tc.name, allocs)
		}
		if len(r.top) != len(tc.top) || r.evaluated+r.pruned+r.infeasible == 0 {
			t.Errorf("%s: scan left shortlist %d, tallies %+v", tc.name, len(r.top), r)
		}
	}
}
