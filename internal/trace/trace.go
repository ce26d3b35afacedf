// Package trace generates, reads and prices datacenter demand traces.
// The paper's motivation (§I) is that real workloads fluctuate,
// leaving servers in the low-to-medium utilization region where energy
// proportionality matters; this package supplies that fluctuation. It
// synthesizes diurnal and bursty demand, reads demand traces and
// grid-intensity profiles from CSV, folds a trace into the histogram
// the composition optimizer scores, and prices energy under a tariff.
// internal/fleetsim simulates a fleet over a trace.
package trace

import (
	"fmt"
	"math"
	"math/rand"
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

// field is one named generator parameter.
type field struct {
	name  string
	value float64
}

// checkFinite rejects the first NaN or infinite parameter by name. A
// NaN fails every comparison, so a range check that rejects when a
// comparison holds lets it through to the trace as NaN demand.
func checkFinite(fields ...field) error {
	for _, f := range fields {
		if math.IsNaN(f.value) || math.IsInf(f.value, 0) {
			return fmt.Errorf("trace: %s %v", f.name, f.value)
		}
	}
	return nil
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
	// StepSeconds is the sampling period (0 = 300 s; negative is an
	// error).
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
	if err := checkFinite(
		field{"base demand", cfg.BaseOps}, field{"daily swing", cfg.DailySwing},
		field{"peak hour", cfg.PeakHour}, field{"noise fraction", cfg.NoiseFrac},
		field{"spike probability", cfg.SpikeProb}, field{"weekend factor", cfg.WeekendFactor},
	); err != nil {
		return nil, err
	}
	if cfg.BaseOps <= 0 {
		return nil, fmt.Errorf("trace: base demand %v", cfg.BaseOps)
	}
	if cfg.DailySwing < 0 || cfg.DailySwing >= 1 {
		return nil, fmt.Errorf("trace: daily swing %v outside [0, 1)", cfg.DailySwing)
	}
	step := cfg.StepSeconds
	if step == 0 {
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
