package dataset

import (
	"errors"
	"fmt"
	"math"
)

// Compliance rule bounds. SPEC's run rules require the ten graduated
// levels at exact 10% steps with achieved load close to target; the
// date bounds reflect the study window (hardware availability 2004-2016,
// benchmark releases from 2007).
const (
	// loadTolerance is the allowed |actual − target| deviation.
	loadTolerance = 0.02
	minHWYear     = 2004
	maxHWYear     = 2016
	minPubYear    = 2007
	maxPubYear    = 2016
)

// ErrNonCompliant wraps every validation failure so callers can test
// with errors.Is.
var ErrNonCompliant = errors.New("dataset: non-compliant result")

// Validate checks a result against the compliance rules the paper's
// 517 → 477 filtering step applies. It returns nil for a compliant
// result and an error wrapping ErrNonCompliant describing the first
// violation otherwise.
func Validate(r *Result) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s: %s", ErrNonCompliant, r.ID, fmt.Sprintf(format, args...))
	}
	if r.ID == "" {
		return fail("missing id")
	}
	if len(r.Levels) != 10 {
		return fail("expected 10 load levels, got %d", len(r.Levels))
	}
	for i, lv := range r.Levels {
		if !isFinite(lv.TargetLoad) || !isFinite(lv.ActualLoad) || !isFinite(lv.OpsPerSec) || !isFinite(lv.AvgPowerWatts) {
			return fail("level %d has a non-finite measurement", i)
		}
		want := float64(i+1) / 10
		if math.Abs(lv.TargetLoad-want) > 1e-9 {
			return fail("level %d target load %v, want %v", i, lv.TargetLoad, want)
		}
		if lv.AvgPowerWatts <= 0 {
			return fail("level %d has non-positive power %v", i, lv.AvgPowerWatts)
		}
		if lv.OpsPerSec <= 0 {
			return fail("level %d has non-positive throughput %v", i, lv.OpsPerSec)
		}
		if math.Abs(lv.ActualLoad-lv.TargetLoad) > loadTolerance {
			return fail("level %d actual load %v deviates from target %v beyond %v",
				i, lv.ActualLoad, lv.TargetLoad, loadTolerance)
		}
		if i > 0 && lv.OpsPerSec <= r.Levels[i-1].OpsPerSec {
			return fail("throughput not increasing at level %d", i)
		}
	}
	if !isFinite(r.ActiveIdleWatts) {
		return fail("non-finite active idle power %v", r.ActiveIdleWatts)
	}
	if r.ActiveIdleWatts <= 0 {
		return fail("non-positive active idle power %v", r.ActiveIdleWatts)
	}
	if r.ActiveIdleWatts >= r.Levels[9].AvgPowerWatts {
		return fail("active idle power %v not below full-load power %v",
			r.ActiveIdleWatts, r.Levels[9].AvgPowerWatts)
	}
	if r.HWAvailYear < minHWYear || r.HWAvailYear > maxHWYear {
		return fail("hardware availability year %d outside [%d, %d]", r.HWAvailYear, minHWYear, maxHWYear)
	}
	if r.PublishedYear < minPubYear || r.PublishedYear > maxPubYear {
		return fail("published year %d outside [%d, %d]", r.PublishedYear, minPubYear, maxPubYear)
	}
	if q := r.PublishedQuarter; q < 1 || q > 4 {
		return fail("published quarter %d outside [1, 4]", q)
	}
	if q := r.HWAvailQuarter; q < 1 || q > 4 {
		return fail("hardware availability quarter %d outside [1, 4]", q)
	}
	if r.Nodes < 1 {
		return fail("node count %d", r.Nodes)
	}
	if r.Chips < 1 || r.Chips%r.Nodes != 0 {
		return fail("chip count %d not a positive multiple of %d nodes", r.Chips, r.Nodes)
	}
	if r.CoresPerChip < 1 {
		return fail("cores per chip %d", r.CoresPerChip)
	}
	if !isFinite(r.MemoryGB) || r.MemoryGB <= 0 {
		return fail("memory %v GB", r.MemoryGB)
	}
	if _, err := r.Curve(); err != nil {
		return fail("curve: %v", err)
	}
	return nil
}

// isFinite reports whether v is neither NaN nor infinite. Validate
// needs it because NaN fails every ordered comparison it makes.
func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// IsCompliant reports whether the result passes Validate.
func IsCompliant(r *Result) bool { return Validate(r) == nil }
