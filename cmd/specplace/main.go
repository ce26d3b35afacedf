// Command specplace plans energy-proportionality-aware workload
// placement for a fleet drawn from a SPECpower dataset: it compares the
// EP-aware strategy against pack-to-full and spread-evenly at a given
// demand, prints the logical clusters (§V.C), and optionally maximizes
// throughput under a power cap.
//
// With -optimize it instead searches fleet-composition space: which
// mix of server models, at what counts, under which pack policy,
// minimizes energy, cost, or carbon against a synthetic diurnal demand
// trace (internal/optimize).
//
// Usage:
//
//	specplace [-in FILE | -seed N] [-from 2012 -to 2016] [-fleet 40]
//	          [-sample-seed N] [-demand 0.5] [-cap-watts 0] [-power-off]
//	specplace -optimize [-models 5] [-max-per-model 6] [-objective cost]
//	          [-price 0.10] [-carbon 0.45] [-pue 1.5] [-opt-days 7]
//	          [-intensity diurnal|duck|FILE.csv] [-rate-bins N]
//	          [-embodied KG -lifetime-years Y]
//	          [-regions "name:price:carbon:pue,..."]
package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"repro/internal/cli"
	"repro/internal/dataset"
	"repro/internal/optimize"
	"repro/internal/par"
	"repro/internal/placement"
	"repro/internal/synth"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "specplace:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := cli.New("specplace",
		"[-in FILE | -seed N] [-from Y -to Y] [-fleet N] [-demand F] [-cap-watts W]",
		"plans energy-proportionality-aware workload placement for a fleet drawn from a SPECpower dataset", stderr)
	var (
		in         = fs.String("in", "", "dataset file (.csv or .json); empty generates the synthetic corpus")
		seed       = fs.Int64("seed", 1, "seed for the synthetic corpus when -in is empty")
		from       = fs.Int("from", 2011, "earliest hardware availability year for the fleet")
		to         = fs.Int("to", 2016, "latest hardware availability year for the fleet")
		fleetN     = fs.Int("fleet", 40, "fleet size (servers drawn from the dataset)")
		demand     = fs.Float64("demand", 0.5, "workload demand as a fraction of fleet capacity")
		capWatts   = fs.Float64("cap-watts", 0, "when > 0, also maximize throughput under this power budget")
		powerOff   = fs.Bool("power-off", false, "treat unassigned servers as powered off")
		bandW      = fs.Float64("ep-band", 0.1, "EP band width for logical clustering")
		sampleSeed = fs.Int64("sample-seed", 1, "seed for the deterministic fleet sample; 0 takes the first -fleet rows in dataset order (legacy)")
		doOpt      = fs.Bool("optimize", false, "search fleet-composition space instead of placing a fixed fleet")
		optModels  = fs.Int("models", 5, "optimize: number of distinct server models in the composition alphabet")
		maxPer     = fs.Int("max-per-model", 6, "optimize: largest per-model server count")
		countStep  = fs.Int("count-step", 1, "optimize: count granularity")
		bins       = fs.Int("bins", 128, "optimize: demand-histogram resolution")
		objName    = fs.String("objective", "energy", "optimize: metric to minimize (energy, cost, carbon)")
		price      = fs.Float64("price", 0.10, "electricity price, USD per kWh")
		carbon     = fs.Float64("carbon", 0.45, "grid carbon intensity, kg CO2 per kWh")
		pue        = fs.Float64("pue", 1.5, "facility power usage effectiveness")
		topK       = fs.Int("top", 5, "optimize: shortlist size replayed exactly through the fleet simulator")
		optDays    = fs.Int("opt-days", 7, "optimize: demand-trace length in days")
		optStep    = fs.Float64("opt-step", 60, "optimize: demand-trace step in seconds")
		workers    = fs.Int("workers", 0, "worker cap for the parallel search (0 = GOMAXPROCS)")
		intens     = fs.String("intensity", "", "optimize: time-varying rate shape for the cost/carbon objective: diurnal, duck, or a CSV profile file")
		intStep    = fs.Float64("intensity-step", 3600, "optimize: intensity profile sampling period in seconds")
		rateBins   = fs.Int("rate-bins", 0, "optimize: intensity-axis bins of the 2-D demand×rate fold (0 = default)")
		embodiedKg = fs.Float64("embodied", 0, "optimize: embodied carbon per server, kg CO2e, amortized over -lifetime-years (carbon objective)")
		lifeYears  = fs.Float64("lifetime-years", 4, "optimize: server lifetime amortizing embodied carbon")
		regionsS   = fs.String("regions", "", "optimize: siting regions as name:price:carbon:pue,... — each candidate priced at its cheapest region")
	)
	if done, err := cli.Parse(fs, args, stdout); done || err != nil {
		return err
	}
	if *workers > 0 {
		defer par.SetMaxWorkers(par.SetMaxWorkers(*workers))
	}
	rp, err := load(*in, *seed)
	if err != nil {
		return err
	}
	servers := rp.Valid().YearRange(*from, *to).All()
	if len(servers) == 0 {
		return fmt.Errorf("no servers in %d-%d", *from, *to)
	}
	servers = sampleServers(servers, *fleetN, *sampleSeed)
	if *doOpt {
		return runOptimize(stdout, servers, optConfig{
			models: *optModels, maxPer: *maxPer, step: *countStep,
			bins: *bins, objective: *objName, topK: *topK,
			days: *optDays, stepSeconds: *optStep, demand: *demand,
			tariff:    trace.Tariff{USDPerKWh: *price, KgCO2PerKWh: *carbon, PUE: *pue},
			seed:      *seed,
			intensity: *intens, intensityStep: *intStep, rateBins: *rateBins,
			embodiedKg: *embodiedKg, lifetimeYears: *lifeYears, regions: *regionsS,
		})
	}
	fleet := make([]*placement.Profile, 0, len(servers))
	var capacity float64
	for _, r := range servers {
		p, err := placement.NewProfile(r.ID, r.MustCurve())
		if err != nil {
			return err
		}
		fleet = append(fleet, p)
		capacity += p.MaxOps
	}
	opts := placement.Options{IdleServersOff: *powerOff}
	fmt.Fprintf(stdout, "fleet: %d servers (%d-%d), capacity %.2fM ops\n\n",
		len(fleet), *from, *to, capacity/1e6)

	clusters, err := placement.BuildClusters(fleet, *bandW)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "logical clusters (EP band %.2f):\n", *bandW)
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "cluster\tservers\tEP range\toptimal region\tcapacity (M ops)")
	for i, cl := range clusters {
		fmt.Fprintf(tw, "#%d\t%d\t%.2f-%.2f\t%.0f%%-%.0f%%\t%.2f\n",
			i+1, len(cl.Servers), cl.EPLow, cl.EPHigh,
			100*cl.Region.Lo, 100*cl.Region.Hi, cl.Capacity()/1e6)
	}
	tw.Flush()
	fmt.Fprintln(stdout)

	if *demand > 0 {
		demandOps := *demand * capacity
		type strat struct {
			name string
			fn   func([]*placement.Profile, float64, placement.Options) (placement.Plan, error)
		}
		strategies := []strat{
			{"proportional", placement.PlaceProportional},
			{"pack-to-full", placement.PackToFull},
			{"spread-evenly", placement.SpreadEvenly},
		}
		fmt.Fprintf(stdout, "placement at %.0f%% demand (%.2fM ops):\n", 100**demand, demandOps/1e6)
		tw = tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "strategy\tactive\tpower (W)\tfleet EE\tsatisfied")
		for _, s := range strategies {
			plan, err := s.fn(fleet, demandOps, opts)
			if err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
			active := 0
			for _, a := range plan.Assignments {
				if a.Utilization > 0 {
					active++
				}
			}
			fmt.Fprintf(tw, "%s\t%d\t%.0f\t%.1f\t%v\n",
				s.name, active, plan.TotalPower, plan.EE(), plan.Satisfied)
		}
		tw.Flush()
		fmt.Fprintln(stdout)
	}

	if *capWatts > 0 {
		plan, err := placement.MaxThroughputUnderCap(fleet, *capWatts, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "under a %.0f W cap: %.2fM ops at %.1f ops/W (%.0f W drawn)\n",
			*capWatts, plan.TotalOps/1e6, plan.EE(), plan.TotalPower)
	}
	return nil
}

// buildObjective assembles the optimizer objective from the static
// tariff plus the optional time-varying shape and region list.
func (oc optConfig) buildObjective(metric optimize.Metric) (optimize.Objective, *trace.IntensityProfile, error) {
	var shape *trace.IntensityProfile
	if oc.intensity != "" {
		if metric == optimize.MetricEnergy {
			return optimize.Objective{}, nil, fmt.Errorf("-intensity needs -objective cost or carbon")
		}
		base := oc.tariff.KgCO2PerKWh
		if metric == optimize.MetricCost {
			base = oc.tariff.USDPerKWh
		}
		var err error
		shape, err = buildShape(oc.intensity, oc.intensityStep, base)
		if err != nil {
			return optimize.Objective{}, nil, err
		}
	}
	if oc.regions != "" {
		regions, err := parseRegions(oc.regions, metric, shape)
		if err != nil {
			return optimize.Objective{}, nil, err
		}
		return optimize.Objective{Metric: metric, Regions: regions}, shape, nil
	}
	obj := optimize.Objective{Metric: metric, Tariff: oc.tariff}
	if shape != nil {
		if metric == optimize.MetricCost {
			obj.Price = shape
		} else {
			obj.Carbon = shape
		}
	}
	return obj, shape, nil
}

// buildShape resolves the -intensity argument: a generator name whose
// mean is the matching static rate, or a CSV profile file carrying its
// own levels.
func buildShape(arg string, stepSec, base float64) (*trace.IntensityProfile, error) {
	switch arg {
	case "diurnal":
		return trace.DiurnalIntensity(trace.IntensityConfig{StepSeconds: stepSec, BaseKgPerKWh: base})
	case "duck":
		return trace.DuckCurveIntensity(trace.IntensityConfig{StepSeconds: stepSec, BaseKgPerKWh: base})
	default:
		f, err := os.Open(arg)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.ReadIntensityCSV(f, stepSec)
	}
}

// parseRegions parses "name:price:carbon:pue,..." into siting regions.
// When a shape is set, every region prices the objective with the same
// shape rescaled to its own mean rate — the duck curve looks alike
// everywhere; only the grid mix level differs.
func parseRegions(s string, metric optimize.Metric, shape *trace.IntensityProfile) ([]optimize.Region, error) {
	var out []optimize.Region
	for _, ent := range strings.Split(s, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		f := strings.Split(ent, ":")
		if len(f) != 4 {
			return nil, fmt.Errorf("region %q: want name:price:carbon:pue", ent)
		}
		var vals [3]float64
		for i, fld := range f[1:] {
			v, err := strconv.ParseFloat(strings.TrimSpace(fld), 64)
			if err != nil {
				return nil, fmt.Errorf("region %q: %v", ent, err)
			}
			vals[i] = v
		}
		r := optimize.Region{
			Name:   strings.TrimSpace(f[0]),
			Tariff: trace.Tariff{USDPerKWh: vals[0], KgCO2PerKWh: vals[1], PUE: vals[2]},
		}
		if shape != nil {
			mean := vals[1]
			if metric == optimize.MetricCost {
				mean = vals[0]
			}
			p, err := shape.Scaled(mean)
			if err != nil {
				return nil, fmt.Errorf("region %q: %w", ent, err)
			}
			if metric == optimize.MetricCost {
				r.Price = p
			} else {
				r.Carbon = p
			}
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -regions")
	}
	return out, nil
}

func load(path string, seed int64) (*dataset.Repository, error) {
	if path == "" {
		return synth.NewRepository(synth.Config{Seed: seed})
	}
	return dataset.ReadPath(path)
}

// sampleServers draws n servers from the dataset. A non-zero seed
// picks a deterministic uniform sample, so the fleet reflects the
// whole dataset rather than whichever rows happen to sort first; seed
// 0 keeps the legacy take-first-n behavior. Either way the selection
// preserves dataset order.
func sampleServers(servers []*dataset.Result, n int, seed int64) []*dataset.Result {
	if len(servers) <= n {
		return servers
	}
	if seed == 0 {
		return servers[:n]
	}
	idx := rand.New(rand.NewSource(seed)).Perm(len(servers))[:n]
	sort.Ints(idx)
	out := make([]*dataset.Result, n)
	for i, j := range idx {
		out[i] = servers[j]
	}
	return out
}

type optConfig struct {
	models, maxPer, step, bins, topK int
	days                             int
	stepSeconds, demand              float64
	objective                        string
	tariff                           trace.Tariff
	seed                             int64
	intensity                        string
	intensityStep                    float64
	rateBins                         int
	embodiedKg, lifetimeYears        float64
	regions                          string
}

// runOptimize searches composition space over the first oc.models
// distinct models of the sampled fleet against a synthetic diurnal
// trace whose mean demand is oc.demand of the largest composition's
// capacity.
func runOptimize(stdout io.Writer, servers []*dataset.Result, oc optConfig) error {
	if oc.models < 1 {
		return fmt.Errorf("need at least one model, got %d", oc.models)
	}
	if oc.models > len(servers) {
		oc.models = len(servers)
	}
	metric, err := optimize.ParseMetric(oc.objective)
	if err != nil {
		return err
	}
	models := make([]*placement.Profile, 0, oc.models)
	var maxCap float64
	for _, r := range servers[:oc.models] {
		p, err := placement.NewProfile(r.ID, r.MustCurve())
		if err != nil {
			return err
		}
		models = append(models, p)
		maxCap += float64(oc.maxPer) * p.MaxOps
	}
	if oc.demand <= 0 || oc.demand > 1 {
		return fmt.Errorf("demand %v outside (0, 1]", oc.demand)
	}
	tr, err := trace.Diurnal(trace.DiurnalConfig{
		Seed: oc.seed, Days: oc.days, StepSeconds: oc.stepSeconds,
		BaseOps: oc.demand * maxCap, DailySwing: 0.4, SpikeProb: 0.002,
	})
	if err != nil {
		return err
	}
	obj, shape, err := oc.buildObjective(metric)
	if err != nil {
		return err
	}
	cfg := optimize.Config{
		Models:      models,
		Trace:       tr,
		Objective:   obj,
		MaxPerModel: oc.maxPer,
		CountStep:   oc.step,
		Bins:        oc.bins,
		RateBins:    oc.rateBins,
		TopK:        oc.topK,
		Seed:        oc.seed,
	}
	if oc.embodiedKg > 0 {
		if oc.lifetimeYears <= 0 {
			return fmt.Errorf("lifetime %v years", oc.lifetimeYears)
		}
		emb := make([]optimize.Embodied, len(models))
		for i := range emb {
			emb[i] = optimize.Embodied{KgCO2e: oc.embodiedKg, LifetimeHours: oc.lifetimeYears * 8766}
		}
		cfg.Embodied = emb
	}
	res, err := optimize.OptimizeComposition(cfg)
	if err != nil {
		return err
	}
	st := tr.Stats()
	fmt.Fprintf(stdout, "composition search: %d models x counts 0-%d (step %d) x %d policies = %d candidates\n",
		len(models), oc.maxPer, oc.step, 4, res.SpaceSize)
	fmt.Fprintf(stdout, "trace: %d days at %.0f s steps, peak %.2fM ops (%d-bin histogram)\n",
		oc.days, oc.stepSeconds, st.PeakOps/1e6, res.Bins)
	if res.Cells > 0 {
		name := "regional"
		if shape != nil {
			name = shape.Name
		}
		fmt.Fprintf(stdout, "rates: time-varying (%s) folded into %d demand×rate cells\n", name, res.Cells)
	}
	mode := "exhaustive"
	if !res.Exhaustive {
		mode = "beam"
	}
	fmt.Fprintf(stdout, "search: %s; %d scored, %d pruned, %d infeasible\n\n",
		mode, res.Evaluated, res.Pruned, res.Infeasible)

	unit := metric.Unit()
	withRegion := res.Best.Region != ""
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	regionCol := ""
	if withRegion {
		regionCol = "\tregion"
	}
	fmt.Fprintf(tw, "rank\tcomposition\tpolicy\tservers\tcapacity (M ops)\tenergy (kWh)\t%s (exact)%s\n", unit, regionCol)
	for i, c := range res.TopK {
		var parts []string
		for m, n := range c.Counts {
			if n > 0 {
				parts = append(parts, fmt.Sprintf("%dx %s", n, models[m].ID))
			}
		}
		if withRegion {
			regionCol = "\t" + c.Region
		}
		fmt.Fprintf(tw, "#%d\t%s\t%s\t%d\t%.2f\t%.1f\t%.4g%s\n",
			i+1, strings.Join(parts, " + "), c.Policy.String(),
			c.Servers, c.CapacityOps/1e6, c.ExactEnergyKWh, c.ExactObjective, regionCol)
	}
	tw.Flush()

	best := res.Best
	if res.Cells > 0 || withRegion || oc.embodiedKg > 0 {
		// Static post-hoc billing would misprice a time-varying rate;
		// the exact objective already carries the per-step accounting
		// (and any embodied amortization).
		where := ""
		if withRegion {
			where = " in " + best.Region
		}
		fmt.Fprintf(stdout, "\noptimum: %.1f kWh IT energy over %d days -> %.4g %s%s\n",
			best.ExactEnergyKWh, oc.days, best.ExactObjective, unit, where)
		return nil
	}
	bill, err := optimize.Objective{Metric: metric, Tariff: oc.tariff}.Bill(best.ExactEnergyKWh)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\noptimum: %.1f kWh IT energy over %d days -> %.1f kWh facility, $%.2f, %.1f kgCO2\n",
		best.ExactEnergyKWh, oc.days, bill.FacilityKWh, bill.USD, bill.KgCO2)
	return nil
}
