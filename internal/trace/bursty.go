package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// BurstyConfig parameterizes a flash-crowd demand pattern: a flat base
// load punctuated by Poisson-arriving bursts that jump demand and
// decay exponentially. It is the adversarial counterpart to Diurnal —
// no periodicity to anticipate, so power-management hysteresis is
// exercised hardest.
type BurstyConfig struct {
	// Seed drives burst arrivals, amplitudes, and noise.
	Seed int64
	// Steps is the trace length; StepSeconds the sampling period
	// (0 = 300 s).
	Steps       int
	StepSeconds float64
	// BaseOps is the background demand.
	BaseOps float64
	// BurstsPerDay is the mean Poisson arrival rate of bursts (0 = 8).
	BurstsPerDay float64
	// BurstFactor is the mean peak amplitude of a burst as a multiple
	// of BaseOps added on top of it (0 = 2, i.e. bursts peak around
	// 3× base). Individual bursts draw amplitude uniformly in
	// [0.5, 1.5]× this.
	BurstFactor float64
	// DecaySeconds is the e-folding time of a burst's decay (0 = 900).
	DecaySeconds float64
	// NoiseFrac is the relative σ of step-to-step noise (0 = 0.03;
	// negative disables noise).
	NoiseFrac float64
}

// Bursty synthesizes a flash-crowd demand trace.
func Bursty(cfg BurstyConfig) (*Trace, error) {
	if cfg.Steps <= 0 {
		return nil, fmt.Errorf("trace: steps %d", cfg.Steps)
	}
	if err := checkFinite(
		field{"base demand", cfg.BaseOps}, field{"bursts per day", cfg.BurstsPerDay},
		field{"burst factor", cfg.BurstFactor}, field{"decay", cfg.DecaySeconds},
		field{"noise fraction", cfg.NoiseFrac},
	); err != nil {
		return nil, err
	}
	if cfg.BaseOps <= 0 {
		return nil, fmt.Errorf("trace: base demand %v", cfg.BaseOps)
	}
	step := cfg.StepSeconds
	if step <= 0 {
		step = 300
	}
	if !validStep(step) {
		return nil, fmt.Errorf("trace: step %v s", cfg.StepSeconds)
	}
	perDay := cfg.BurstsPerDay
	if perDay == 0 {
		perDay = 8
	}
	if perDay < 0 {
		return nil, fmt.Errorf("trace: bursts per day %v", perDay)
	}
	factor := cfg.BurstFactor
	if factor == 0 {
		factor = 2
	}
	decay := cfg.DecaySeconds
	if decay == 0 {
		decay = 900
	}
	if decay < 0 {
		return nil, fmt.Errorf("trace: decay %v", decay)
	}
	noise := cfg.NoiseFrac
	if noise == 0 {
		noise = 0.03
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pBurst := perDay * step / 86400 // per-step burst arrival probability
	perStepDecay := math.Exp(-step / decay)
	out := &Trace{
		StepSeconds: step,
		DemandOps:   make([]float64, cfg.Steps),
	}
	var burst float64 // current burst overlay, in ops
	for i := 0; i < cfg.Steps; i++ {
		burst *= perStepDecay
		if rng.Float64() < pBurst {
			// New bursts stack on whatever is still decaying: flash
			// crowds compound.
			burst += cfg.BaseOps * factor * (0.5 + rng.Float64())
		}
		d := cfg.BaseOps + burst
		if noise > 0 {
			d *= 1 + noise*rng.NormFloat64()
		}
		out.DemandOps[i] = math.Max(0, d)
	}
	return out, nil
}

// ReadCSV parses a demand trace from CSV. Each data row is either one
// column (demand in ops) or two (time in seconds — ignored beyond
// validation — and demand); a non-numeric first row is treated as a
// header and skipped. Demand values must be finite and non-negative.
// stepSeconds is the sampling period the caller assigns to the trace.
func ReadCSV(r io.Reader, stepSeconds float64) (*Trace, error) {
	if !validStep(stepSeconds) {
		return nil, fmt.Errorf("trace: step %v", stepSeconds)
	}
	out := &Trace{StepSeconds: stepSeconds}
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
		var demandField string
		switch len(fields) {
		case 1:
			demandField = fields[0]
		case 2:
			demandField = fields[1]
		default:
			return nil, fmt.Errorf("trace: line %d: %d columns (want 1 or 2)", line, len(fields))
		}
		d, err := strconv.ParseFloat(strings.TrimSpace(demandField), 64)
		if err != nil {
			if len(out.DemandOps) == 0 && !headerSkipped {
				headerSkipped = true
				continue // header row
			}
			return nil, fmt.Errorf("trace: line %d: %v", line, err)
		}
		if math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
			return nil, fmt.Errorf("trace: line %d: demand %v", line, d)
		}
		out.DemandOps = append(out.DemandOps, d)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	if len(out.DemandOps) == 0 {
		return nil, fmt.Errorf("trace: no demand rows")
	}
	return out, nil
}
