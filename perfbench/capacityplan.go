package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/fleetsim"
	"repro/internal/optimize"
	"repro/internal/par"
	"repro/internal/placement"
	"repro/internal/synth"
	"repro/internal/trace"
)

// Sizes and settings follow the CLI defaults: specsim's 1,000-server
// fleet and power model, and specplace -optimize's space of 5 models ×
// counts 0-6 × 4 policies drawn from a 40-server 2011-2016 sample.
const (
	simServers   = 1000
	planFleet    = 40
	planModels   = 5
	planMaxPer   = 6
	planFromYear = 2011
	planToYear   = 2016
	// planCorpusSeed and planSampleSeed are specplace's -seed and
	// -sample-seed defaults. The model alphabet stays fixed across run
	// seeds because search cost swings by half with the models drawn;
	// the run seed varies the traces and the simulated fleet.
	planCorpusSeed = 1
	planSampleSeed = 1
	// planDemand replaces specplace's default -demand 0.5, at which the
	// trace's 1.5-2.5x spikes make every composition infeasible. At this
	// share 88-97% of the space is feasible (optimize.feasible_share).
	planDemand = 0.08
)

// simPolicies pairs each fleetsim policy with its metric suffix.
var simPolicies = []struct {
	p    cluster.Policy
	name string
}{
	{cluster.PolicyPack, "pack"},
	{cluster.PolicyPackPowerOff, "pack_off"},
	{cluster.PolicySpread, "spread"},
	{cluster.PolicyOptimalRegion, "optimal_region"},
}

// capacityPlan is the planner, the second half of a fleet-batch pass:
// `specsim` once per policy over a week with a diurnal carbon profile,
// then three `specplace -optimize` searches.
type capacityPlan struct {
	tr       *tracer
	seed     int64
	members  []*placement.Profile
	capacity float64
	models   []*placement.Profile
	maxCap   float64
	// planSeeds draws each pass's search demand trace, so a run's median
	// covers many forecasts instead of swinging with one seed's trace.
	planSeeds *rand.Rand

	// What the last pass produced, kept for the checks.
	sims        []string
	configs     []optimize.Config
	tops        []string
	last        []optimize.Result
	transitions int
}

// setupCapacityPlan builds the simulated fleet the way specsim does and the
// composition alphabet the way specplace does.
func setupCapacityPlan(seed int64, tr *tracer) (*capacityPlan, error) {
	c := &capacityPlan{tr: tr, seed: seed, planSeeds: rand.New(rand.NewSource(seed))}
	id := tr.begin("synth.GenerateFleet", -1, -1)
	results, err := synth.GenerateFleet(synth.FleetConfig{Seed: seed, Servers: simServers})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("placement.NewProfile", -1, -1)
	c.members, err = par.MapErr(len(results), func(i int) (*placement.Profile, error) {
		cv, err := results[i].Curve()
		if err != nil {
			return nil, err
		}
		return placement.NewProfile(results[i].ID, cv)
	})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	for _, p := range c.members {
		c.capacity += p.MaxOps
	}

	id = tr.begin("synth.NewRepository", -1, -1)
	rp, err := synth.NewRepository(synth.Config{Seed: planCorpusSeed})
	var servers []*dataset.Result
	if err == nil {
		servers = sampleServers(rp.Valid().YearRange(planFromYear, planToYear).All(), planFleet, planSampleSeed)
	}
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("placement.NewProfile", -1, -1)
	defer tr.end(id)
	for _, r := range servers[:planModels] {
		cv, err := r.Curve()
		if err != nil {
			return nil, err
		}
		p, err := placement.NewProfile(r.ID, cv)
		if err != nil {
			return nil, err
		}
		c.models = append(c.models, p)
		c.maxCap += planMaxPer * p.MaxOps
	}
	return c, nil
}

// sampleServers draws n servers the way specplace's -sample-seed does:
// a seeded uniform sample that keeps dataset order.
func sampleServers(servers []*dataset.Result, n int, seed int64) []*dataset.Result {
	if len(servers) <= n {
		return servers
	}
	idx := rand.New(rand.NewSource(seed)).Perm(len(servers))[:n]
	sort.Ints(idx)
	out := make([]*dataset.Result, n)
	for i, j := range idx {
		out[i] = servers[j]
	}
	return out
}

// inputs builds the pass's traces and objectives: specsim's default
// diurnal week and carbon profile, and specplace's trace, seeded with
// planSeed, at planDemand with its three objectives.
func (c *capacityPlan) inputs(planSeed int64) (simTrace *trace.Trace, carbon *trace.IntensityProfile, cfgs []optimize.Config, err error) {
	simTrace, err = trace.Diurnal(trace.DiurnalConfig{
		Seed: c.seed, Days: 7, StepSeconds: 60, BaseOps: 0.45 * c.capacity,
		DailySwing: 0.55, NoiseFrac: 0.04, SpikeProb: 0.002, WeekendFactor: 0.7,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	carbon, err = trace.DiurnalIntensity(trace.IntensityConfig{StepSeconds: 3600, BaseKgPerKWh: 0.45})
	if err != nil {
		return nil, nil, nil, err
	}
	planTrace, err := trace.Diurnal(trace.DiurnalConfig{
		Seed: planSeed, Days: 7, StepSeconds: 60, BaseOps: planDemand * c.maxCap,
		DailySwing: 0.4, SpikeProb: 0.002,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	tariff := trace.Tariff{USDPerKWh: 0.10, KgCO2PerKWh: 0.45, PUE: 1.5}
	var regions []optimize.Region
	for _, r := range []struct {
		name                string
		usd, kg, pue, shape float64
	}{{"west", 0.12, 0.35, 1.2, 0.35}, {"east", 0.07, 0.55, 1.5, 0.55}} {
		p, err := carbon.Scaled(r.shape)
		if err != nil {
			return nil, nil, nil, err
		}
		regions = append(regions, optimize.Region{Name: r.name,
			Tariff: trace.Tariff{USDPerKWh: r.usd, KgCO2PerKWh: r.kg, PUE: r.pue}, Carbon: p})
	}
	embodied := make([]optimize.Embodied, len(c.models))
	for i := range embodied {
		embodied[i] = optimize.DefaultEmbodied()
	}
	base := optimize.Config{Models: c.models, Trace: planTrace, MaxPerModel: planMaxPer,
		CountStep: 1, Bins: 128, TopK: 5, Seed: c.seed}
	static, diurnal, regional := base, base, base
	static.Objective = optimize.Objective{Metric: optimize.MetricEnergy, Tariff: tariff}
	diurnal.Objective = optimize.Objective{Metric: optimize.MetricCarbon, Tariff: tariff, Carbon: carbon}
	regional.Objective = optimize.Objective{Metric: optimize.MetricCarbon, Regions: regions}
	regional.Embodied = embodied
	return simTrace, carbon, []optimize.Config{static, diurnal, regional}, nil
}

// simulate runs the week under every policy and returns each result's
// digest.
func (c *capacityPlan) simulate(op int64, parent int, tr *trace.Trace, carbon *trace.IntensityProfile) ([]string, []fleetsim.Result, error) {
	var digests []string
	var results []fleetsim.Result
	for _, sp := range simPolicies {
		id := c.tr.begin("fleetsim.Run."+sp.name, op, parent)
		res, err := fleetsim.Run(fleetsim.Config{
			Members: c.members, Policy: sp.p, Trace: tr,
			Power: fleetsim.PowerConfig{OnSeconds: 30, OffSeconds: 10, HysteresisSteps: 5, HeadroomFrac: 0.05, MinActive: 1},
			Seed:  c.seed, Carbon: carbon, PUE: 1,
		})
		c.tr.end(id)
		if err != nil {
			return nil, nil, fmt.Errorf("simulate %s: %w", sp.name, err)
		}
		digests = append(digests, fmt.Sprintf("%+v", res))
		results = append(results, res)
	}
	return digests, results, nil
}

// topDigest renders a search's exact-replayed shortlist.
func topDigest(r optimize.Result) string {
	s := ""
	for _, c := range r.TopK {
		s += fmt.Sprintf("%d:%x:%x;", c.ID, math.Float64bits(c.ExactObjective), math.Float64bits(c.ExactEnergyKWh))
	}
	return s
}

// plan builds the inputs, simulates and searches, under span parent.
func (c *capacityPlan) plan(op int64, root int) error {
	id := c.tr.begin("trace.build", op, root)
	simTrace, carbon, cfgs, err := c.inputs(c.planSeeds.Int63())
	c.tr.end(id)
	if err != nil {
		return err
	}
	sims, results, err := c.simulate(op, root, simTrace, carbon)
	if err != nil {
		return err
	}
	var tops []string
	var last []optimize.Result
	for i, cfg := range cfgs {
		id := c.tr.begin("optimize.OptimizeComposition."+searchNames[i], op, root)
		r, err := optimize.OptimizeComposition(cfg)
		c.tr.end(id)
		if err != nil {
			return fmt.Errorf("search %s: %w", searchNames[i], err)
		}
		tops = append(tops, topDigest(r))
		last = append(last, r)
	}
	c.transitions = 0
	for _, r := range results {
		c.transitions += r.PoweredOn + r.PoweredOff
	}
	c.sims, c.configs, c.tops, c.last = sims, cfgs, tops, last
	return nil
}

// checkUnpruned reruns each search of the last pass with pruning off;
// pruning must not change the exact-replayed top-k.
func (c *capacityPlan) checkUnpruned() error {
	for i, cfg := range c.configs {
		cfg.DisablePruning = true
		r, err := optimize.OptimizeComposition(cfg)
		if err != nil {
			return fmt.Errorf("unpruned search %s: %w", searchNames[i], err)
		}
		if topDigest(r) != c.tops[i] {
			return fmt.Errorf("search %s: pruned top-k differs from the unpruned top-k", searchNames[i])
		}
	}
	return nil
}

// checkOneWorker reruns the simulations on one par worker; fleetsim
// output must not depend on the worker count.
func (c *capacityPlan) checkOneWorker() error {
	defer par.SetMaxWorkers(par.SetMaxWorkers(1))
	simTrace, carbon, _, err := c.inputs(0)
	if err != nil {
		return err
	}
	sims, _, err := c.simulate(-1, -1, simTrace, carbon)
	if err != nil {
		return err
	}
	if fmt.Sprint(sims) != fmt.Sprint(c.sims) {
		return fmt.Errorf("fleetsim results at 1 worker differ from 2 workers")
	}
	return nil
}

// layerMetrics derives the planner's per-layer metrics from the
// traced spans of ops; set-up spans carry op -1.
func (c *capacityPlan) layerMetrics(layers map[string]*layerTotals, ops []int64) map[string]float64 {
	setup := []int64{-1}
	l := map[string]float64{
		"synth.fleet_rows_s":   medianOf(layers, setup, "synth.GenerateFleet", "synth.NewRepository").s,
		"placement.profiles_s": medianOf(layers, setup, "placement.NewProfile").s,
		"trace.build_s":        medianOf(layers, ops, "trace.build").s,
		"fleetsim.transitions": float64(c.transitions),
	}
	steps := float64(7 * 24 * 60)
	var simNames []string
	for _, p := range policyNames {
		s := medianOf(layers, ops, "fleetsim.Run."+p).s
		l["fleetsim.run_s."+p] = s
		l["fleetsim.ns_per_step."+p] = s * 1e9 / steps
		simNames = append(simNames, "fleetsim.Run."+p)
	}
	l["pipeline.sim_s"] = medianOf(layers, ops, simNames...).s
	for i, name := range searchNames {
		span := "optimize.OptimizeComposition." + name
		t := medianOf(layers, ops, span)
		r := c.last[i]
		l["optimize.search_s."+name] = t.s
		l["optimize.evaluated."+name] = float64(r.Evaluated)
		l["optimize.pruned."+name] = float64(r.Pruned)
		l["optimize.infeasible."+name] = float64(r.Infeasible)
		l["optimize.prune_ratio."+name] = float64(r.Pruned) / float64(r.Evaluated+r.Pruned)
		l["optimize.allocs_per_scored."+name] = t.objs / float64(r.Evaluated)
		if name != "static" {
			l["optimize.cells."+name] = float64(r.Cells)
		}
	}
	st := c.last[0]
	l["optimize.feasible_share"] = float64(st.Evaluated+st.Pruned) / float64(st.Evaluated+st.Pruned+st.Infeasible)
	l["pipeline.search_static_s"] = l["optimize.search_s.static"]
	l["pipeline.search_varying_s"] = medianOf(layers, ops,
		"optimize.OptimizeComposition.diurnal", "optimize.OptimizeComposition.regions").s
	return l
}
