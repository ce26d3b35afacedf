// Package optimize searches fleet-composition space: which mix of
// server models, at what counts, under which pack policy, minimizes a
// trace-weighted objective — the paper's §V decision ("which servers
// should a datacenter buy and how should it pack them?") turned into a
// solver. Three layers make the search fast enough to sweep tens of
// thousands of candidate fleets per second:
//
//  1. Grouped evaluators — a candidate is a multiset of models, so
//     cluster.NewGroupedEvaluator builds its prefix state in
//     O(models) and evaluates demand in O(log models), never
//     expanding the fleet (Float64bits-identical to expanding it).
//  2. Trace compression — the demand trace folds once into a weighted
//     demand histogram (trace.Compress2D), crossed with one rate set
//     per time-varying price or intensity plan and with none for a
//     static objective, so steady-state scoring is O(cells) per
//     candidate instead of O(steps). Exact fleetsim replay, with
//     transition energy and hysteresis, is reserved for the final
//     top-k.
//  3. Pruned parallel search — candidates stream through internal/par
//     in fixed-size segments with deterministic tie-breaking, and an
//     admissible idle-power/best-efficiency lower bound skips
//     dominated candidates before they are scored. Results are
//     byte-identical at any worker count.
package optimize

import (
	"fmt"
	"strings"

	"repro/internal/trace"
)

// Metric selects what the optimizer minimizes.
type Metric int

// Metrics. Energy is IT energy scaled to facility energy by the
// tariff's PUE; cost and carbon price that facility energy at the
// tariff's rates.
const (
	MetricEnergy Metric = iota + 1
	MetricCost
	MetricCarbon
)

// String returns the metric name.
func (m Metric) String() string {
	switch m {
	case MetricEnergy:
		return "energy"
	case MetricCost:
		return "cost"
	case MetricCarbon:
		return "carbon"
	default:
		return "unknown"
	}
}

// Unit returns the metric's reporting unit.
func (m Metric) Unit() string {
	switch m {
	case MetricEnergy:
		return "kWh"
	case MetricCost:
		return "USD"
	case MetricCarbon:
		return "kgCO2"
	default:
		return "?"
	}
}

// ParseMetric resolves a metric name.
func ParseMetric(s string) (Metric, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "energy", "kwh":
		return MetricEnergy, nil
	case "cost", "usd", "$":
		return MetricCost, nil
	case "carbon", "co2", "gco2", "kgco2":
		return MetricCarbon, nil
	default:
		return 0, fmt.Errorf("optimize: unknown metric %q (want energy, cost or carbon)", s)
	}
}

// Objective is a trace-weighted minimization target: a metric priced
// by a tariff, optionally time-varying and multi-region. The zero
// Objective minimizes IT energy at PUE 1.
type Objective struct {
	Metric Metric
	Tariff trace.Tariff
	// Carbon, when set, replaces the tariff's static KgCO2PerKWh with
	// a time-varying intensity profile; Price does the same for
	// USDPerKWh. Only the profile matching the metric participates.
	Carbon *trace.IntensityProfile
	Price  *trace.IntensityProfile
	// Regions, when set, evaluates the objective in every region in
	// one pass and scores each candidate at its cheapest region; the
	// top-level Tariff and profiles must then be left unset.
	Regions []Region
}

// Validate checks that the objective is priceable: tariffs and
// profiles must be valid, and cost/carbon metrics need a positive rate
// from either the static tariff or a profile (minimizing a uniformly
// zero objective would report a meaningless optimum).
func (o Objective) Validate() error {
	m := o.Metric
	if m == 0 {
		m = MetricEnergy
	}
	if m != MetricEnergy && m != MetricCost && m != MetricCarbon {
		return fmt.Errorf("optimize: unknown metric %d", int(m))
	}
	if len(o.Regions) > 0 {
		if o.Carbon != nil || o.Price != nil {
			return fmt.Errorf("optimize: set profiles per region, not on the objective, when Regions are configured")
		}
		for i, r := range o.Regions {
			sub := Objective{Metric: o.Metric, Tariff: r.Tariff, Carbon: r.Carbon, Price: r.Price}
			if err := sub.Validate(); err != nil {
				return fmt.Errorf("optimize: region %d (%s): %w", i, r.Name, err)
			}
		}
		return nil
	}
	if err := o.Tariff.Validate(); err != nil {
		return err
	}
	if prof := metricProfile(m, o.Carbon, o.Price); prof != nil {
		if err := prof.Validate(); err != nil {
			return err
		}
		if prof.Mean() <= 0 {
			return fmt.Errorf("optimize: %s profile is uniformly zero", m)
		}
		return nil
	}
	if m == MetricCost && o.Tariff.USDPerKWh <= 0 {
		return fmt.Errorf("optimize: cost objective needs a positive price, got %v $/kWh", o.Tariff.USDPerKWh)
	}
	if m == MetricCarbon && o.Tariff.KgCO2PerKWh <= 0 {
		return fmt.Errorf("optimize: carbon objective needs a positive intensity, got %v kgCO2/kWh", o.Tariff.KgCO2PerKWh)
	}
	return nil
}

// rate returns the objective's multiplier on IT kWh. The objective is
// linear in energy, so candidate ranking only ever needs this one
// factor — and a lower bound on energy is a lower bound on any
// objective.
func (o Objective) rate() float64 {
	pue := o.Tariff.PUE
	if pue == 0 {
		pue = 1
	}
	switch o.Metric {
	case MetricCost:
		return pue * o.Tariff.USDPerKWh
	case MetricCarbon:
		return pue * o.Tariff.KgCO2PerKWh
	default:
		return pue
	}
}

// Value prices IT energy under the objective.
func (o Objective) Value(energyKWh float64) float64 {
	return o.rate() * energyKWh
}

// Bill expands IT energy into the full cost/carbon accounting.
func (o Objective) Bill(energyKWh float64) (trace.Bill, error) {
	return o.Tariff.BillOf(energyKWh)
}
