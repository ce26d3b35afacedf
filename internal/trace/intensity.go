package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// IntensityProfile is a time-varying rate signal: grid carbon intensity
// (kgCO₂ per kWh) or electricity price (USD per kWh) as a periodic time
// series. Grid intensity swings 2–5× over a day as solar output and
// peaker plants trade places, so *when* a fleet draws power matters as
// much as how much; a profile aligned to a demand trace turns the
// static Tariff rates into per-step signals the fold, the simulator and
// the composition optimizer can all bill against.
//
// A profile is periodic: aligned to a longer trace it tiles end to end
// (a one-day profile prices every day of a week-long trace). Rates must
// be finite and non-negative; the constructors and Validate enforce
// that with typed errors (RateError, AlignError) so a bad signal fails
// loudly instead of silently producing garbage bills.
type IntensityProfile struct {
	// Name labels the profile in reports ("diurnal", "duck", a file
	// name). It never affects arithmetic.
	Name string
	// StepSeconds is the profile's own sampling period.
	StepSeconds float64
	// Rates is the periodic rate series (kgCO₂/kWh or USD/kWh).
	Rates []float64
}

// RateError reports an unusable rate value in a tariff or intensity
// profile: negative, NaN or infinite. Index is the offending sample's
// position, or -1 for scalar tariff fields.
type RateError struct {
	// Field names the offending input ("KgCO2PerKWh", "rate", ...).
	Field string
	// Index is the sample position, -1 for scalars.
	Index int
	// Value is the rejected value.
	Value float64
}

func (e *RateError) Error() string {
	if e.Index >= 0 {
		return fmt.Sprintf("trace: %s[%d] = %v (want finite, non-negative)", e.Field, e.Index, e.Value)
	}
	return fmt.Sprintf("trace: %s = %v (want finite, non-negative)", e.Field, e.Value)
}

// AlignError reports a profile that cannot be aligned to a trace: the
// sampling periods are not integer multiples of each other, or one of
// the series is empty or has a non-positive step.
type AlignError struct {
	// ProfileStep and TraceStep are the two sampling periods.
	ProfileStep, TraceStep float64
	// Reason says what failed.
	Reason string
}

func (e *AlignError) Error() string {
	return fmt.Sprintf("trace: cannot align profile (step %v s) to trace (step %v s): %s",
		e.ProfileStep, e.TraceStep, e.Reason)
}

// Validate checks the profile: a positive finite step and at least one
// rate, every rate finite and non-negative. Violations return typed
// errors (*RateError, *AlignError).
func (p *IntensityProfile) Validate() error {
	if p == nil || len(p.Rates) == 0 {
		return &AlignError{Reason: "empty profile"}
	}
	if !validStep(p.StepSeconds) {
		return &AlignError{ProfileStep: p.StepSeconds, Reason: "non-positive profile step"}
	}
	for i, r := range p.Rates {
		if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
			return &RateError{Field: "rate", Index: i, Value: r}
		}
	}
	return nil
}

// Duration returns one period of the profile in seconds.
func (p *IntensityProfile) Duration() float64 {
	return p.StepSeconds * float64(len(p.Rates))
}

// Mean returns the unweighted mean rate over one period.
func (p *IntensityProfile) Mean() float64 {
	if len(p.Rates) == 0 {
		return 0
	}
	var sum float64
	for _, r := range p.Rates {
		sum += r
	}
	return sum / float64(len(p.Rates))
}

// Constant reports whether every rate is bit-identical, and that rate.
// A constant profile is indistinguishable from a static tariff rate;
// the optimizer prices it as one and folds no rate set for it.
func (p *IntensityProfile) Constant() (float64, bool) {
	if len(p.Rates) == 0 {
		return 0, false
	}
	first := math.Float64bits(p.Rates[0])
	for _, r := range p.Rates[1:] {
		if math.Float64bits(r) != first {
			return 0, false
		}
	}
	return p.Rates[0], true
}

// Scaled returns a copy of the profile linearly rescaled so its mean
// equals mean — the same shape priced at another region's level.
func (p *IntensityProfile) Scaled(mean float64) (*IntensityProfile, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if math.IsNaN(mean) || math.IsInf(mean, 0) || mean < 0 {
		return nil, &RateError{Field: "mean", Index: -1, Value: mean}
	}
	m := p.Mean()
	if m <= 0 {
		return nil, &RateError{Field: "profile mean", Index: -1, Value: m}
	}
	f := mean / m
	out := &IntensityProfile{Name: p.Name, StepSeconds: p.StepSeconds, Rates: make([]float64, len(p.Rates))}
	for i, r := range p.Rates {
		out.Rates[i] = r * f
	}
	return out, nil
}

// Align expands the profile into one rate per trace step: steps
// intervals of stepSeconds each, sampled from the profile by time with
// periodic tiling. The two sampling periods must be integer multiples
// of each other (either way around) so the mapping is exact integer
// arithmetic — anything else is an *AlignError. The returned slice is
// what Compress2D and the fleet simulator bill against; element t is
// the rate in force during trace step t, an O(1) lookup.
func (p *IntensityProfile) Align(steps int, stepSeconds float64) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if steps <= 0 {
		return nil, &AlignError{ProfileStep: p.StepSeconds, TraceStep: stepSeconds, Reason: "no trace steps"}
	}
	if !validStep(stepSeconds) {
		return nil, &AlignError{ProfileStep: p.StepSeconds, TraceStep: stepSeconds, Reason: "non-positive trace step"}
	}
	out := make([]float64, steps)
	n := len(p.Rates)
	switch {
	case p.StepSeconds >= stepSeconds:
		k, ok := integerRatio(p.StepSeconds, stepSeconds)
		if !ok {
			return nil, &AlignError{ProfileStep: p.StepSeconds, TraceStep: stepSeconds,
				Reason: "steps are not integer multiples"}
		}
		for t := 0; t < steps; t++ {
			out[t] = p.Rates[(t/k)%n]
		}
	default:
		k, ok := integerRatio(stepSeconds, p.StepSeconds)
		if !ok {
			return nil, &AlignError{ProfileStep: p.StepSeconds, TraceStep: stepSeconds,
				Reason: "steps are not integer multiples"}
		}
		for t := 0; t < steps; t++ {
			out[t] = p.Rates[(t*k)%n]
		}
	}
	return out, nil
}

// integerRatio returns a/b as an integer when a is a whole multiple of
// b (within 1e-9 relative slack for float representation of periods
// like 300/60).
func integerRatio(a, b float64) (int, bool) {
	r := a / b
	k := math.Round(r)
	if k < 1 || k > 1e9 || math.Abs(r-k) > 1e-9*k {
		return 0, false
	}
	return int(k), true
}

// IntensityConfig parameterizes the synthetic grid-intensity shapes.
// The defaults describe a 2016-era US grid: 0.45 kgCO₂/kWh mean, ±35 %
// diurnal swing peaking at 19:00 when evening demand meets fading
// solar, and (for the duck curve) a midday solar trough.
type IntensityConfig struct {
	// Days is the profile length (0 = 1). One day tiles periodically
	// over any longer trace, so more days only matter for day-to-day
	// variation introduced by future shapes.
	Days int
	// StepSeconds is the sampling period (0 = 3600).
	StepSeconds float64
	// BaseKgPerKWh is the mean intensity (0 = 0.45). The same shapes
	// price electricity: pass USD/kWh here and read the profile as a
	// price signal.
	BaseKgPerKWh float64
	// Swing in [0, 1) scales the sinusoidal day/night amplitude
	// (0 = 0.35).
	Swing float64
	// PeakHour is the local time of the daily maximum (0 = 19).
	PeakHour float64
}

// solarDip is the depth of the duck curve's midday solar trough as a
// fraction of the base rate.
const solarDip = 0.5

func (cfg *IntensityConfig) withDefaults() (IntensityConfig, error) {
	c := *cfg
	if c.Days == 0 {
		c.Days = 1
	}
	if c.Days < 0 {
		return c, &AlignError{Reason: fmt.Sprintf("days %d", c.Days)}
	}
	if c.StepSeconds == 0 {
		c.StepSeconds = 3600
	}
	if c.StepSeconds < 0 || math.IsNaN(c.StepSeconds) || math.IsInf(c.StepSeconds, 0) {
		return c, &AlignError{ProfileStep: c.StepSeconds, Reason: "non-positive profile step"}
	}
	if c.BaseKgPerKWh == 0 {
		c.BaseKgPerKWh = 0.45
	}
	if c.BaseKgPerKWh < 0 || math.IsNaN(c.BaseKgPerKWh) || math.IsInf(c.BaseKgPerKWh, 0) {
		return c, &RateError{Field: "BaseKgPerKWh", Index: -1, Value: c.BaseKgPerKWh}
	}
	if c.Swing == 0 {
		c.Swing = 0.35
	}
	if c.Swing < 0 || c.Swing >= 1 || math.IsNaN(c.Swing) {
		return c, &RateError{Field: "Swing", Index: -1, Value: c.Swing}
	}
	if c.PeakHour == 0 {
		c.PeakHour = 19
	}
	return c, nil
}

// DiurnalIntensity synthesizes a sinusoidal day/night intensity
// profile: the grid is dirtiest in the evening peak and cleanest in the
// small hours. The profile is deterministic — no seed, no noise — so
// folds and replays of the same configuration are bit-identical.
func DiurnalIntensity(cfg IntensityConfig) (*IntensityProfile, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return shapeProfile("diurnal", c, func(hour float64) float64 {
		return 1 + c.Swing*math.Cos(2*math.Pi*(hour-c.PeakHour)/24)
	})
}

// DuckCurveIntensity synthesizes the solar duck curve: the diurnal
// evening peak plus a midday trough where solar displaces fossil
// generation, the steep late-afternoon ramp between them being exactly
// when carbon-aware packing pays.
func DuckCurveIntensity(cfg IntensityConfig) (*IntensityProfile, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return shapeProfile("duck", c, func(hour float64) float64 {
		base := 1 + c.Swing*math.Cos(2*math.Pi*(hour-c.PeakHour)/24)
		// Gaussian solar trough centered on 12:30 with a ~2.5 h sigma.
		dip := solarDip * math.Exp(-((hour-12.5)/2.5)*((hour-12.5)/2.5))
		return base - dip
	})
}

// shapeProfile samples a relative daily shape at the configured step
// and scales it by the base rate, clamping at zero.
func shapeProfile(name string, c IntensityConfig, shape func(hour float64) float64) (*IntensityProfile, error) {
	stepsPerDay := int(86400 / c.StepSeconds)
	if stepsPerDay < 1 {
		stepsPerDay = 1
	}
	out := &IntensityProfile{
		Name:        name,
		StepSeconds: c.StepSeconds,
		Rates:       make([]float64, 0, c.Days*stepsPerDay),
	}
	for day := 0; day < c.Days; day++ {
		for s := 0; s < stepsPerDay; s++ {
			hour := float64(s) * c.StepSeconds / 3600
			out.Rates = append(out.Rates, math.Max(0, c.BaseKgPerKWh*shape(hour)))
		}
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadIntensityCSV parses an intensity (or price) profile from CSV.
// Each data row is either one column (rate) or two (time in seconds —
// ignored beyond validation — and rate); a non-numeric first row is
// treated as a header and skipped. Rates must be finite and
// non-negative — violations are *RateError — and stepSeconds is the
// sampling period the caller assigns to the profile.
func ReadIntensityCSV(r io.Reader, stepSeconds float64) (*IntensityProfile, error) {
	if !validStep(stepSeconds) {
		return nil, &AlignError{ProfileStep: stepSeconds, Reason: "non-positive profile step"}
	}
	out := &IntensityProfile{Name: "csv", StepSeconds: stepSeconds}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	headerSkipped := false
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, ",")
		var rateField string
		switch len(fields) {
		case 1:
			rateField = fields[0]
		case 2:
			rateField = fields[1]
		default:
			return nil, fmt.Errorf("trace: intensity line %d: %d columns (want 1 or 2)", line, len(fields))
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rateField), 64)
		if err != nil {
			if len(out.Rates) == 0 && !headerSkipped {
				headerSkipped = true
				continue // header row
			}
			return nil, fmt.Errorf("trace: intensity line %d: %v", line, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return nil, &RateError{Field: "rate", Index: len(out.Rates), Value: v}
		}
		out.Rates = append(out.Rates, v)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: intensity read: %w", err)
	}
	if len(out.Rates) == 0 {
		return nil, &AlignError{ProfileStep: stepSeconds, Reason: "empty profile"}
	}
	return out, nil
}
