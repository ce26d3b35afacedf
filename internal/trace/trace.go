// Package trace generates and replays datacenter demand traces. The
// paper's motivation (§I) is that real workloads fluctuate, leaving
// servers in the low-to-medium utilization region where energy
// proportionality matters; this package makes that argument
// quantitative: it synthesizes diurnal demand curves and replays them
// against a fleet under different placement strategies, accounting
// energy over the trace.
package trace

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/placement"
)

// Trace is a demand time series in operations per second at a fixed
// step.
type Trace struct {
	// StepSeconds is the sampling period.
	StepSeconds float64
	// DemandOps is the offered load at each step.
	DemandOps []float64
}

// Duration returns the trace length in seconds.
func (t *Trace) Duration() float64 {
	return t.StepSeconds * float64(len(t.DemandOps))
}

// validStep reports whether a sampling period is finite and positive.
func validStep(s float64) bool {
	return s > 0 && !math.IsInf(s, 0)
}

// Stats summarizes a trace.
type Stats struct {
	MeanOps, PeakOps, MinOps float64
	// LoadFactor is mean over peak — how far below provisioned capacity
	// the fleet typically runs.
	LoadFactor float64
}

// Stats computes the trace summary.
func (t *Trace) Stats() Stats {
	if len(t.DemandOps) == 0 {
		return Stats{}
	}
	s := Stats{MinOps: math.Inf(1)}
	var sum float64
	for _, d := range t.DemandOps {
		sum += d
		s.PeakOps = math.Max(s.PeakOps, d)
		s.MinOps = math.Min(s.MinOps, d)
	}
	s.MeanOps = sum / float64(len(t.DemandOps))
	if s.PeakOps > 0 {
		s.LoadFactor = s.MeanOps / s.PeakOps
	}
	return s
}

// DiurnalConfig parameterizes a synthetic day/night demand pattern.
type DiurnalConfig struct {
	// Seed drives the noise and spikes.
	Seed int64
	// Days is the trace length.
	Days int
	// StepSeconds is the sampling period (0 = 300 s).
	StepSeconds float64
	// BaseOps is the mean demand.
	BaseOps float64
	// DailySwing in [0, 1) scales the sinusoidal day/night amplitude.
	DailySwing float64
	// PeakHour is the local time of the daily maximum (0 = 14:00).
	PeakHour float64
	// NoiseFrac is the relative σ of step-to-step noise (0 = 0.03).
	NoiseFrac float64
	// SpikeProb is the per-step probability of a short 1.5-2.5× burst.
	SpikeProb float64
	// WeekendFactor scales demand on days 6 and 7 of each week
	// (0 = 1, i.e. no weekend effect).
	WeekendFactor float64
}

// Diurnal synthesizes a demand trace with daily periodicity, optional
// weekend dips, noise, and bursts.
func Diurnal(cfg DiurnalConfig) (*Trace, error) {
	if cfg.Days <= 0 {
		return nil, fmt.Errorf("trace: days %d", cfg.Days)
	}
	if cfg.BaseOps <= 0 {
		return nil, fmt.Errorf("trace: base demand %v", cfg.BaseOps)
	}
	if cfg.DailySwing < 0 || cfg.DailySwing >= 1 {
		return nil, fmt.Errorf("trace: daily swing %v outside [0, 1)", cfg.DailySwing)
	}
	step := cfg.StepSeconds
	if step <= 0 {
		step = 300
	}
	if !validStep(step) {
		return nil, fmt.Errorf("trace: step %v s", cfg.StepSeconds)
	}
	peakHour := cfg.PeakHour
	if peakHour == 0 {
		peakHour = 14
	}
	noise := cfg.NoiseFrac
	if noise == 0 {
		noise = 0.03
	}
	weekend := cfg.WeekendFactor
	if weekend == 0 {
		weekend = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	stepsPerDay := int(86400 / step)
	out := &Trace{
		StepSeconds: step,
		DemandOps:   make([]float64, 0, cfg.Days*stepsPerDay),
	}
	for day := 0; day < cfg.Days; day++ {
		dayScale := 1.0
		if dow := day % 7; dow >= 5 {
			dayScale = weekend
		}
		for s := 0; s < stepsPerDay; s++ {
			hour := float64(s) * step / 3600
			phase := 2 * math.Pi * (hour - peakHour) / 24
			d := cfg.BaseOps * dayScale * (1 + cfg.DailySwing*math.Cos(phase))
			d *= 1 + noise*rng.NormFloat64()
			if cfg.SpikeProb > 0 && rng.Float64() < cfg.SpikeProb {
				d *= 1.5 + rng.Float64()
			}
			out.DemandOps = append(out.DemandOps, math.Max(0, d))
		}
	}
	return out, nil
}

// Strategy selects the placement policy used at every trace step.
type Strategy int

// Strategies.
const (
	StrategyProportional Strategy = iota + 1
	StrategyPackToFull
	StrategySpreadEvenly
)

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case StrategyProportional:
		return "proportional"
	case StrategyPackToFull:
		return "pack-to-full"
	case StrategySpreadEvenly:
		return "spread-evenly"
	default:
		return "unknown"
	}
}

// AllStrategies lists the replay strategies.
func AllStrategies() []Strategy {
	return []Strategy{StrategyProportional, StrategyPackToFull, StrategySpreadEvenly}
}

// ReplayResult accounts a fleet's energy over a trace.
type ReplayResult struct {
	Strategy Strategy
	// EnergyKWh is the total electrical energy over the trace.
	EnergyKWh float64
	// AvgPowerWatts and PeakPowerWatts summarize the power draw.
	AvgPowerWatts, PeakPowerWatts float64
	// ServedOps and UnservedOps integrate demand coverage (op·seconds,
	// reported as average ops).
	ServedOps, UnservedOps float64
	// AvgEE is served throughput over power, averaged across steps.
	AvgEE float64
}

// Replay runs the trace against the fleet under the strategy.
func Replay(tr *Trace, fleet []*placement.Profile, strategy Strategy, opts placement.Options) (ReplayResult, error) {
	if tr == nil || len(tr.DemandOps) == 0 {
		return ReplayResult{}, errors.New("trace: empty trace")
	}
	if len(fleet) == 0 {
		return ReplayResult{}, placement.ErrNoServers
	}
	place := placement.PlaceProportional
	switch strategy {
	case StrategyProportional:
	case StrategyPackToFull:
		place = placement.PackToFull
	case StrategySpreadEvenly:
		place = placement.SpreadEvenly
	default:
		return ReplayResult{}, fmt.Errorf("trace: unknown strategy %d", strategy)
	}

	res := ReplayResult{Strategy: strategy}
	var eeSum float64
	var eeSteps int
	for _, demand := range tr.DemandOps {
		var watts, served float64
		if demand <= 0 {
			// An idle fleet still draws idle power unless powered off.
			if !opts.IdleServersOff {
				for _, s := range fleet {
					watts += s.PowerAt(0)
				}
			}
		} else {
			plan, err := place(fleet, demand, opts)
			if err != nil {
				return ReplayResult{}, fmt.Errorf("trace: replay step: %w", err)
			}
			watts = plan.TotalPower
			served = math.Min(plan.TotalOps, demand)
		}
		res.ServedOps += served
		res.UnservedOps += math.Max(0, demand-served)
		res.EnergyKWh += watts * tr.StepSeconds / 3.6e6
		res.AvgPowerWatts += watts
		res.PeakPowerWatts = math.Max(res.PeakPowerWatts, watts)
		if watts > 0 && served > 0 {
			eeSum += served / watts
			eeSteps++
		}
	}
	n := float64(len(tr.DemandOps))
	res.AvgPowerWatts /= n
	res.ServedOps /= n
	res.UnservedOps /= n
	if eeSteps > 0 {
		res.AvgEE = eeSum / float64(eeSteps)
	}
	return res, nil
}

// CompareStrategies replays the trace under every strategy.
func CompareStrategies(tr *Trace, fleet []*placement.Profile, opts placement.Options) ([]ReplayResult, error) {
	out := make([]ReplayResult, 0, len(AllStrategies()))
	for _, s := range AllStrategies() {
		r, err := Replay(tr, fleet, s, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
