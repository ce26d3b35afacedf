package optimize

import (
	"fmt"
	"math"

	"repro/internal/trace"
)

// Region is one deployment region's pricing: a static tariff plus
// optional time-varying profiles that replace the tariff's static rate
// for the metric they carry. A multi-region objective scores every
// candidate in every region in one histogram pass and takes the
// cheapest region — "where should this fleet run" answered alongside
// "what should it be".
type Region struct {
	// Name labels the region in results; empty names are assigned
	// "r<index>".
	Name string
	// Tariff is the region's static pricing (and its PUE).
	Tariff trace.Tariff
	// Carbon, when set, overrides Tariff.KgCO2PerKWh with a
	// time-varying intensity profile; Price does the same for
	// Tariff.USDPerKWh.
	Carbon *trace.IntensityProfile
	Price  *trace.IntensityProfile
}

// Embodied is a server model's embodied-carbon amortization: the
// manufacturing footprint prorated over the deployment lifetime. The
// optimizer charges each candidate KgCO2e × (trace hours / lifetime
// hours) per server — a term linear in the counts, so it adds exactly
// to both the score and the admissible bound and lets the carbon
// objective trade fleet size against operational carbon.
type Embodied struct {
	// KgCO2e is the per-server manufacturing footprint.
	KgCO2e float64
	// LifetimeHours amortizes it (0 = 4 years: 35064 h).
	LifetimeHours float64
}

// DefaultEmbodied returns a typical 2016 rack server's embodied
// footprint: ~1300 kgCO₂e amortized over a 4-year deployment (the
// order of magnitude the cloud-carbon and LCA literature reports for
// a two-socket machine).
func DefaultEmbodied() Embodied {
	return Embodied{KgCO2e: 1300, LifetimeHours: 35064}
}

// hours converts the embodied footprint to a kg-per-trace charge.
func (e Embodied) perTraceKg(traceHours float64) (float64, error) {
	if e.KgCO2e < 0 || math.IsNaN(e.KgCO2e) || math.IsInf(e.KgCO2e, 0) {
		return 0, &trace.RateError{Field: "KgCO2e", Index: -1, Value: e.KgCO2e}
	}
	life := e.LifetimeHours
	if life == 0 {
		life = 35064
	}
	if life < 0 || math.IsNaN(life) || math.IsInf(life, 0) {
		return 0, &trace.RateError{Field: "LifetimeHours", Index: -1, Value: e.LifetimeHours}
	}
	return e.KgCO2e * traceHours / life, nil
}

// ratePlan is one region's objective pricing, normalized: either a
// static multiplier on IT kWh (rate() semantics, PUE folded in) or a
// per-trace-step rate slice with PUE folded in, in which case rateSet
// indexes the plan's column in the fold's rate sets.
type ratePlan struct {
	name    string
	static  float64   // PUE × metric rate; used when rates is nil
	rates   []float64 // PUE × metric rate per trace step
	rateSet int       // column in hist.Rates, -1 for static plans
}

// metricProfile picks the profile that prices the objective's metric.
func metricProfile(m Metric, carbon, price *trace.IntensityProfile) *trace.IntensityProfile {
	switch m {
	case MetricCarbon:
		return carbon
	case MetricCost:
		return price
	default:
		return nil
	}
}

// newPlan normalizes one region into a ratePlan: a metric profile that
// is absent or constant makes a static plan (priced bit-identically to
// the static tariff, and adding no rate set to the fold); a genuinely
// varying profile is aligned to the trace with PUE pre-multiplied.
func newPlan(name string, o Objective, t trace.Tariff, prof *trace.IntensityProfile, tr *trace.Trace) (ratePlan, error) {
	if err := t.Validate(); err != nil {
		return ratePlan{}, err
	}
	pue := t.EffectivePUE()
	single := Objective{Metric: o.Metric, Tariff: t}
	if prof == nil {
		if err := single.Validate(); err != nil {
			return ratePlan{}, err
		}
		return ratePlan{name: name, static: single.rate(), rateSet: -1}, nil
	}
	if err := prof.Validate(); err != nil {
		return ratePlan{}, err
	}
	if c, ok := prof.Constant(); ok {
		return ratePlan{name: name, static: pue * c, rateSet: -1}, nil
	}
	aligned, err := prof.Align(len(tr.DemandOps), tr.StepSeconds)
	if err != nil {
		return ratePlan{}, err
	}
	for i := range aligned {
		aligned[i] *= pue
	}
	return ratePlan{name: name, rates: aligned, rateSet: -1}, nil
}

// newPlans expands the objective into one ratePlan per region (or a
// single plan when no regions are configured), assigns rate-set
// columns to the varying plans, and returns the plans plus the rate
// sets to fold with the demand (none when every plan is static).
func newPlans(cfg *Config) ([]ratePlan, [][]float64, error) {
	o := cfg.Objective
	metric := o.Metric
	if metric == 0 {
		metric = MetricEnergy
	}
	var plans []ratePlan
	if len(o.Regions) == 0 {
		p, err := newPlan("", o, o.Tariff, metricProfile(metric, o.Carbon, o.Price), cfg.Trace)
		if err != nil {
			return nil, nil, err
		}
		plans = []ratePlan{p}
	} else {
		if o.Carbon != nil || o.Price != nil {
			return nil, nil, fmt.Errorf("optimize: set profiles per region, not on the objective, when Regions are configured")
		}
		for i, r := range o.Regions {
			name := r.Name
			if name == "" {
				name = fmt.Sprintf("r%d", i)
			}
			p, err := newPlan(name, o, r.Tariff, metricProfile(metric, r.Carbon, r.Price), cfg.Trace)
			if err != nil {
				return nil, nil, fmt.Errorf("optimize: region %s: %w", name, err)
			}
			plans = append(plans, p)
		}
	}
	var sets [][]float64
	for i := range plans {
		if plans[i].rates != nil {
			plans[i].rateSet = len(sets)
			sets = append(sets, plans[i].rates)
		}
	}
	return plans, sets, nil
}

// objectiveOf prices a candidate's fold accumulators — total kWh plus
// per-rate-set rate-weighted joules — under every plan and returns the
// cheapest (objective value, plan index); ties go to the first plan.
func (sp *space) objectiveOf(kwh float64, rj []float64) (float64, int) {
	obj, reg := math.Inf(1), 0
	for i, p := range sp.plans {
		o := p.static * kwh
		if p.rateSet >= 0 {
			o = rj[p.rateSet] / 3.6e6
		}
		if o < obj {
			obj, reg = o, i
		}
	}
	return obj, reg
}

// embodiedOf is the candidate's amortized embodied-carbon charge.
func (sp *space) embodiedOf(counts []int) float64 {
	if sp.embodiedKg == nil {
		return 0
	}
	var kg float64
	for m, c := range counts {
		kg += float64(c) * sp.embodiedKg[m]
	}
	return kg
}
