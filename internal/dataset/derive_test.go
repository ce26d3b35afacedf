package dataset_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

// deriveTestCorpus is the seed-1 corpus plus tampered clones that
// exercise every branch of the columnar metric kernel: invalid curves,
// valid-but-non-compliant rows, and a NaN measurement (which passes
// every ordered comparison in core.NewCurve, so its curve stays valid,
// while Validate rejects it as non-finite).
func deriveTestCorpus(t testing.TB) []*dataset.Result {
	t.Helper()
	rs := binaryTestCorpus(t)
	tamper := func(i int, mutate func(*dataset.Result)) {
		c := rs[i].Clone()
		c.ID = c.ID + "-tampered"
		mutate(c)
		rs = append(rs, c)
	}
	tamper(0, func(r *dataset.Result) { r.Levels[3].AvgPowerWatts = 0 })                 // invalid curve
	tamper(1, func(r *dataset.Result) { r.Levels = r.Levels[:5] })                       // grid ends below 1.0
	tamper(2, func(r *dataset.Result) { r.Levels[7].OpsPerSec = r.Levels[6].OpsPerSec }) // non-monotone ops
	tamper(3, func(r *dataset.Result) { r.HWAvailYear = 1999 })                          // out-of-window year
	tamper(4, func(r *dataset.Result) { r.Levels[2].ActualLoad = 0.9 })                  // load deviation
	tamper(5, func(r *dataset.Result) { r.ID = "" })                                     // missing id
	tamper(6, func(r *dataset.Result) { r.ActiveIdleWatts = r.Levels[9].AvgPowerWatts }) // idle ≥ full
	tamper(7, func(r *dataset.Result) { r.Levels[9].OpsPerSec = math.NaN() })            // NaN throughput
	tamper(8, func(r *dataset.Result) { r.Chips = 3; r.Nodes = 2 })                      // chips % nodes ≠ 0
	tamper(9, func(r *dataset.Result) {
		// Zero throughput everywhere: PeakEE's max stays 0, so every
		// level ties for the "peak" spot — the kernel must reproduce
		// that degenerate spot list too.
		for i := range r.Levels {
			r.Levels[i].OpsPerSec = 0
		}
	})
	return rs
}

// poisonedRows clones n rows of base, drawn at random, and overwrites
// one to three measurement cells of each with NaN, ±Inf, zero or a
// negated value: the inputs on which the kernel's comparisons could
// part ways with core.Curve's.
func poisonedRows(base []*dataset.Result, n int, seed int64) []*dataset.Result {
	rng := rand.New(rand.NewSource(seed))
	poison := func(v float64) float64 {
		switch rng.Intn(5) {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1)
		case 2:
			return math.Inf(-1)
		case 3:
			return 0
		}
		return -v
	}
	out := make([]*dataset.Result, n)
	for k := range out {
		r := base[rng.Intn(len(base))].Clone()
		for cells := 1 + rng.Intn(3); cells > 0; cells-- {
			if len(r.Levels) == 0 || rng.Intn(6) == 0 {
				r.ActiveIdleWatts = poison(r.ActiveIdleWatts)
				continue
			}
			lv := &r.Levels[rng.Intn(len(r.Levels))]
			switch rng.Intn(4) {
			case 0:
				lv.OpsPerSec = poison(lv.OpsPerSec)
			case 1:
				lv.AvgPowerWatts = poison(lv.AvgPowerWatts)
			case 2:
				lv.TargetLoad = poison(lv.TargetLoad)
			default:
				lv.ActualLoad = poison(lv.ActualLoad)
			}
		}
		out[k] = r
	}
	return out
}

// kernelStore sends rs through an EPFB v2 round trip. The decoded store
// holds raw columns only, so its derived layer can only come from the
// columnar kernel.
func kernelStore(t testing.TB, rs []*dataset.Result) *dataset.ColumnStore {
	t.Helper()
	cs, err := dataset.ReadColumnsBytes(v2Bytes(t, rs))
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// curveMismatch compares row i of cs with the accessors of a cold clone
// of r, the row it holds. core.Curve is the oracle: every derived
// column must match its accessor bit for bit, and the curve-validity
// and compliance flags must match the curve error and Validate.
func curveMismatch(cs *dataset.ColumnStore, i int, r *dataset.Result) error {
	c := r.Clone()
	_, err := c.Curve()
	if cs.CurveOKCol()[i] != (err == nil) {
		return fmt.Errorf("row %d (%s): curveOK %v, curve error %v", i, c.ID, cs.CurveOKCol()[i], err)
	}
	if got := cs.CurveErr(i); fmt.Sprint(got) != fmt.Sprint(err) {
		return fmt.Errorf("row %d (%s): CurveErr %v, curve error %v", i, c.ID, got, err)
	}
	if got, want := cs.ComplianceCol()[i], dataset.IsCompliant(c); got != want {
		return fmt.Errorf("row %d (%s): compliant %v, Validate says %v", i, c.ID, got, want)
	}
	peak, spots := c.PeakEE()
	for _, m := range []struct {
		name      string
		got, want float64
	}{
		{"EP", cs.EPCol()[i], c.EP()},
		{"OverallEE", cs.OverallEECol()[i], c.OverallEE()},
		{"PeakEE", cs.PeakEECol()[i], peak},
		{"PeakEEUtil", cs.PeakEEUtilCol()[i], c.PeakEEUtilization()},
		{"IdleFraction", cs.IdleFractionCol()[i], c.IdleFraction()},
		{"DynamicRange", cs.DynamicRangeCol()[i], c.DynamicRange()},
		{"PeakOverFull", cs.PeakOverFullCol()[i], c.PeakOverFullRatio()},
	} {
		if math.Float64bits(m.got) != math.Float64bits(m.want) {
			return fmt.Errorf("row %d (%s): %s %v, curve gives %v", i, c.ID, m.name, m.got, m.want)
		}
	}
	off := cs.PeakSpotOffsets()
	if got := cs.PeakSpotCol()[off[i]:off[i+1]]; !bitsEqual(got, spots) {
		return fmt.Errorf("row %d (%s): peak spots %v, curve gives %v", i, c.ID, got, spots)
	}
	return nil
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestDerivedColumnsBitIdentical pins the columnar metric kernel
// (derive.go) against core.Curve: on the tampered corpus and on rows
// with poisoned cells, every derived column a kernel-filled store
// holds equals the matching accessor of a cold clone of the row.
func TestDerivedColumnsBitIdentical(t *testing.T) {
	tampered := deriveTestCorpus(t)
	rs := append(tampered, poisonedRows(tampered, 2000, 17)...)
	cs := kernelStore(t, rs)
	allOK, allCompliant := true, true
	for i, r := range rs {
		if err := curveMismatch(cs, i, r); err != nil {
			t.Fatal(err)
		}
		allOK = allOK && cs.CurveOKCol()[i]
		allCompliant = allCompliant && cs.ComplianceCol()[i]
	}
	if cs.AllCurvesOK() != allOK || cs.AllCompliant() != allCompliant {
		t.Errorf("AllCurvesOK %v, AllCompliant %v; rows say %v, %v",
			cs.AllCurvesOK(), cs.AllCompliant(), allOK, allCompliant)
	}

	// The tampered tail must actually exercise the failure branches.
	ok := cs.CurveOKCol()
	comp := cs.ComplianceCol()
	n := len(tampered)
	if ok[n-10] || ok[n-9] {
		t.Error("tampered curves still report valid")
	}
	if comp[n-8] || comp[n-7] || comp[n-6] || comp[n-5] || comp[n-4] || comp[n-3] || comp[n-2] {
		t.Error("tampered rows still report compliant")
	}
}

// TestDeriveAllocsFlatInRows pins that the derived layer allocates per
// store, not per compliant row: a cold derive over compliant rows
// allocates the same number of objects at 1k and at 100k rows.
func TestDeriveAllocsFlatInRows(t *testing.T) {
	var valid []*dataset.Result
	for _, r := range binaryTestCorpus(t) {
		if dataset.IsCompliant(r) {
			valid = append(valid, r)
		}
	}
	coldDerive := func(n int) float64 {
		rs := make([]*dataset.Result, n)
		rows := make([]int32, n)
		for i := range rs {
			rs[i], rows[i] = valid[i%len(valid)], int32(i)
		}
		cs := dataset.BuildColumns(rs)
		// Gathering every row of a cold store yields a cold copy, and
		// Gather allocates the same columns whatever n is.
		return testing.AllocsPerRun(2, func() {
			dataset.NewColumnRepository(cs.Gather(rows)).Precompute()
		})
	}
	if small, large := coldDerive(1_000), coldDerive(100_000); small != large {
		t.Errorf("cold derive allocates %v objects at 1k rows but %v at 100k", small, large)
	}
}
