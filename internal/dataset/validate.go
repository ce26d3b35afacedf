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
	ints := intFields{
		hwYear: r.HWAvailYear, hwQuarter: r.HWAvailQuarter,
		pubYear: r.PublishedYear, pubQuarter: r.PublishedQuarter,
		nodes: r.Nodes, chips: r.Chips, coresPerChip: r.CoresPerChip,
	}
	if err := BuildColumns([]*Result{r}).violation(0, ints, fail); err != nil {
		return err
	}
	if _, err := r.Curve(); err != nil {
		return fail("curve: %v", err)
	}
	return nil
}

// anyViolation is the fail function of callers that only ask whether a
// row complies: it skips formatting the message, though violation still
// boxes the operands it passes.
func anyViolation(string, ...any) error { return ErrNonCompliant }

// intFields are the integer fields the compliance rules read, at the
// width of Result's own fields: the column store keeps them as int32,
// so Validate passes the result's values, not the store's.
type intFields struct {
	hwYear, hwQuarter, pubYear, pubQuarter, nodes, chips, coresPerChip int
}

// intFields returns row i's integer fields.
func (cs *ColumnStore) intFields(i int) intFields {
	return intFields{
		hwYear: int(cs.hwYears[i]), hwQuarter: int(cs.hwQuarters[i]),
		pubYear: int(cs.pubYears[i]), pubQuarter: int(cs.pubQuarters[i]),
		nodes: int(cs.nodes[i]), chips: int(cs.chips[i]), coresPerChip: int(cs.coresPerChip[i]),
	}
}

// violation applies the compliance rules other than the curve check
// to row i, whose integer fields are ints, and returns fail's error
// for the first rule it breaks, or nil. Validate runs it on a one-row
// store; the derived layer runs it on every row with a valid curve.
func (cs *ColumnStore) violation(i int, ints intFields, fail func(format string, args ...any) error) error {
	if cs.ids[i] == "" {
		return fail("missing id")
	}
	lo, hi := cs.levelOff[i], cs.levelOff[i+1]
	if n := int(hi - lo); n != 10 {
		return fail("expected 10 load levels, got %d", n)
	}
	for k := 0; k < 10; k++ {
		j := lo + int32(k)
		target, actual, ops, power := cs.levelTarget[j], cs.levelActual[j], cs.levelOps[j], cs.levelPower[j]
		if !isFinite(target) || !isFinite(actual) || !isFinite(ops) || !isFinite(power) {
			return fail("level %d has a non-finite measurement", k)
		}
		want := float64(k+1) / 10
		if math.Abs(target-want) > 1e-9 {
			return fail("level %d target load %v, want %v", k, target, want)
		}
		if power <= 0 {
			return fail("level %d has non-positive power %v", k, power)
		}
		if ops <= 0 {
			return fail("level %d has non-positive throughput %v", k, ops)
		}
		if math.Abs(actual-target) > loadTolerance {
			return fail("level %d actual load %v deviates from target %v beyond %v",
				k, actual, target, loadTolerance)
		}
		if k > 0 && ops <= cs.levelOps[j-1] {
			return fail("throughput not increasing at level %d", k)
		}
	}
	idle, full := cs.idleWatts[i], cs.levelPower[lo+9]
	if !isFinite(idle) {
		return fail("non-finite active idle power %v", idle)
	}
	if idle <= 0 {
		return fail("non-positive active idle power %v", idle)
	}
	if idle >= full {
		return fail("active idle power %v not below full-load power %v", idle, full)
	}
	if y := ints.hwYear; y < minHWYear || y > maxHWYear {
		return fail("hardware availability year %d outside [%d, %d]", y, minHWYear, maxHWYear)
	}
	if y := ints.pubYear; y < minPubYear || y > maxPubYear {
		return fail("published year %d outside [%d, %d]", y, minPubYear, maxPubYear)
	}
	if q := ints.pubQuarter; q < 1 || q > 4 {
		return fail("published quarter %d outside [1, 4]", q)
	}
	if q := ints.hwQuarter; q < 1 || q > 4 {
		return fail("hardware availability quarter %d outside [1, 4]", q)
	}
	if ints.nodes < 1 {
		return fail("node count %d", ints.nodes)
	}
	if c := ints.chips; c < 1 || c%ints.nodes != 0 {
		return fail("chip count %d not a positive multiple of %d nodes", c, ints.nodes)
	}
	if c := ints.coresPerChip; c < 1 {
		return fail("cores per chip %d", c)
	}
	if m := cs.memoryGB[i]; !isFinite(m) || m <= 0 {
		return fail("memory %v GB", m)
	}
	return nil
}

// isFinite reports whether v is neither NaN nor infinite. Validate
// needs it because NaN fails every ordered comparison it makes.
func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// IsCompliant reports whether the result passes Validate.
func IsCompliant(r *Result) bool { return Validate(r) == nil }
