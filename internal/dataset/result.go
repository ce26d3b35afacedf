// Package dataset models published SPECpower_ssj2008 results: the
// per-server disclosure (system configuration, dates, CPU, memory,
// node/chip population) together with the eleven power/performance
// measurement intervals. It provides compliance validation (the paper's
// 517 → 477 filtering step), CSV and JSON codecs, and a Repository with
// the filtering and grouping operations the analyses are built on.
package dataset

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/microarch"
)

// FormFactor is the chassis type disclosed with a result.
type FormFactor int

// Form factors appearing in SPECpower disclosures.
const (
	FormRack FormFactor = iota + 1
	FormTower
	FormBlade
	FormMultiNode
)

// String returns the disclosure name of the form factor.
func (f FormFactor) String() string {
	switch f {
	case FormRack:
		return "Rack"
	case FormTower:
		return "Tower"
	case FormBlade:
		return "Blade"
	case FormMultiNode:
		return "Multi Node"
	default:
		return "Unknown"
	}
}

// ParseFormFactor inverts String.
func ParseFormFactor(s string) (FormFactor, error) {
	switch s {
	case "Rack":
		return FormRack, nil
	case "Tower":
		return FormTower, nil
	case "Blade":
		return FormBlade, nil
	case "Multi Node":
		return FormMultiNode, nil
	default:
		return 0, fmt.Errorf("dataset: unknown form factor %q", s)
	}
}

// LoadLevel is one graduated measurement interval of a run.
type LoadLevel struct {
	// TargetLoad is the scheduled load fraction (0.10 .. 1.00).
	TargetLoad float64 `json:"target_load"`
	// ActualLoad is the achieved load fraction; compliant runs stay
	// within a small tolerance of the target.
	ActualLoad float64 `json:"actual_load"`
	// OpsPerSec is the measured throughput in ssj_ops.
	OpsPerSec float64 `json:"ssj_ops"`
	// AvgPowerWatts is the average active power over the interval.
	AvgPowerWatts float64 `json:"avg_power_watts"`
}

// Result is one SPECpower_ssj2008 submission as published by SPEC.
type Result struct {
	// ID is a stable identifier (SPEC publishes e.g. "power_ssj2008-20160823-00756").
	ID string `json:"id"`
	// Vendor is the submitting hardware vendor.
	Vendor string `json:"vendor"`
	// System is the marketed system name.
	System string `json:"system"`
	// FormFactor is the chassis type.
	FormFactor FormFactor `json:"form_factor"`

	// PublishedYear/Quarter is when SPEC published the result.
	PublishedYear    int `json:"published_year"`
	PublishedQuarter int `json:"published_quarter"`
	// HWAvailYear/Quarter is when the hardware became generally
	// available — the paper's preferred time axis.
	HWAvailYear    int `json:"hw_avail_year"`
	HWAvailQuarter int `json:"hw_avail_quarter"`

	// Nodes is the number of server nodes under test (1 for a single
	// node result; multi-node results aggregate identical nodes).
	Nodes int `json:"nodes"`
	// Chips is the total populated processor sockets across all nodes.
	Chips int `json:"chips"`
	// CoresPerChip is the core count of each processor.
	CoresPerChip int `json:"cores_per_chip"`
	// CPUModel is the disclosed processor model string.
	CPUModel string `json:"cpu_model"`
	// Codename is the processor generation (parsed or disclosed).
	Codename microarch.Codename `json:"codename"`
	// NominalGHz is the processor's nominal frequency.
	NominalGHz float64 `json:"nominal_ghz"`

	// MemoryGB is the total installed memory.
	MemoryGB float64 `json:"memory_gb"`
	// JVM and OS identify the software stack.
	JVM string `json:"jvm"`
	OS  string `json:"os"`

	// ActiveIdleWatts is the measured power with zero load.
	ActiveIdleWatts float64 `json:"active_idle_watts"`
	// Levels are the ten graduated measurement intervals ordered from
	// 10% to 100% target load.
	Levels []LoadLevel `json:"levels"`

	// memo holds the lazily-built *metrics bundle. Once any metric
	// accessor has run, the result's measurement fields (ActiveIdleWatts,
	// Levels) must be treated as frozen: later mutations are not observed
	// by the cache. Clone returns a copy with a fresh, empty cache, so
	// mutate-after-clone workflows stay correct.
	memo atomic.Value
}

// metrics is the immutable per-result bundle computed from the curve on
// first access: the validated curve itself plus every scalar the
// analyses read in hot loops. Invalid curves memoize the error and zero
// metrics, matching the zero-on-invalid contract of EP and OverallEE.
type metrics struct {
	curve *core.Curve
	err   error

	ep           float64
	overallEE    float64
	peakEE       float64
	peakEEUtils  []float64
	idleFraction float64
	dynamicRange float64
	peakOverFull float64
}

// cached returns the memoized metrics, computing them on first use.
// Concurrent first calls may each compute the (identical, deterministic)
// bundle; one wins the publish and the duplicates are garbage. All
// subsequent calls are a single atomic load.
func (r *Result) cached() *metrics {
	if m, ok := r.memo.Load().(*metrics); ok {
		return m
	}
	m := &metrics{}
	m.curve, m.err = r.buildCurve()
	if m.err == nil {
		c := m.curve
		m.ep = c.EP()
		m.overallEE = c.OverallEE()
		m.peakEE, m.peakEEUtils = c.PeakEE()
		m.idleFraction = c.IdleFraction()
		m.dynamicRange = c.DynamicRange()
		m.peakOverFull = c.PeakOverFullRatio()
	}
	r.memo.Store(m)
	return m
}

// TotalCores returns the total core count across all chips.
func (r *Result) TotalCores() int { return r.Chips * r.CoresPerChip }

// MemoryPerCore returns installed GB per core — the paper's MPC axis.
func (r *Result) MemoryPerCore() float64 {
	cores := r.TotalCores()
	if cores == 0 {
		return 0
	}
	return r.MemoryGB / float64(cores)
}

// buildCurve assembles the result's points into a validated core.Curve
// without touching the cache.
func (r *Result) buildCurve() (*core.Curve, error) {
	points := make([]core.Point, 0, len(r.Levels)+1)
	points = append(points, core.Point{Utilization: 0, PowerWatts: r.ActiveIdleWatts})
	for _, lv := range r.Levels {
		points = append(points, core.Point{
			Utilization: lv.TargetLoad,
			OpsPerSec:   lv.OpsPerSec,
			PowerWatts:  lv.AvgPowerWatts,
		})
	}
	c, err := core.NewCurve(points)
	if err != nil {
		return nil, curveError(r.ID, err)
	}
	return c, nil
}

// curveError words a result's curve-validation error.
func curveError(id string, err error) error {
	return fmt.Errorf("dataset: result %s: %w", id, err)
}

// Curve returns the result's eleven points as a core.Curve. Results that
// fail curve validation are non-compliant by definition. The curve is
// memoized on first call and shared between callers; Curve is immutable,
// so sharing is safe.
func (r *Result) Curve() (*core.Curve, error) {
	m := r.cached()
	return m.curve, m.err
}

// MustCurve returns the curve of a result already known valid.
// It panics when the curve cannot be built; analyses call it only on
// results that passed Validate.
func (r *Result) MustCurve() *core.Curve {
	c, err := r.Curve()
	if err != nil {
		panic(err)
	}
	return c
}

// OverallEE returns the SPECpower score (overall ssj_ops per watt), or
// zero when the curve is invalid.
func (r *Result) OverallEE() float64 { return r.cached().overallEE }

// EP returns the result's energy proportionality (paper Eq. 1), or zero
// when the curve is invalid.
func (r *Result) EP() float64 { return r.cached().ep }

// PeakEE returns the result's peak energy efficiency and every
// utilization at which it occurs (ties included, ascending), or zeroes
// when the curve is invalid.
func (r *Result) PeakEE() (float64, []float64) {
	m := r.cached()
	return m.peakEE, append([]float64(nil), m.peakEEUtils...)
}

// PeakEEValue returns the result's peak energy efficiency without the
// tie utilizations — the allocation-free variant of PeakEE for hot
// aggregation loops. Zero when the curve is invalid.
func (r *Result) PeakEEValue() float64 { return r.cached().peakEE }

// PeakEEUtilization returns the lowest utilization at which the result
// attains its peak efficiency, or zero when the curve is invalid.
func (r *Result) PeakEEUtilization() float64 {
	m := r.cached()
	if len(m.peakEEUtils) == 0 {
		return 0
	}
	return m.peakEEUtils[0]
}

// IdleFraction returns idle power over full-load power, or zero when the
// curve is invalid.
func (r *Result) IdleFraction() float64 { return r.cached().idleFraction }

// DynamicRange returns the normalized power swing 1 − IdleFraction, or
// zero when the curve is invalid.
func (r *Result) DynamicRange() float64 { return r.cached().dynamicRange }

// PeakOverFullRatio returns peak efficiency over full-load efficiency,
// or zero when the curve is invalid.
func (r *Result) PeakOverFullRatio() float64 { return r.cached().peakOverFull }

// Clone returns a deep copy of the result with an empty metric cache:
// the clone computes its own metrics on first access and never shares
// cached state with its source, so cloned results are safe to mutate.
func (r *Result) Clone() *Result {
	out := *r
	out.memo = atomic.Value{}
	out.Levels = append([]LoadLevel(nil), r.Levels...)
	return &out
}
