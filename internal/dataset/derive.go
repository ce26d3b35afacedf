package dataset

import (
	"repro/internal/core"
	"repro/internal/par"
)

// fillDerived computes d from the raw columns in parallel: each row's
// metrics come from core.Curve over the row's slices of the level
// columns, and its compliance flag from the rules Validate applies.
// Callers hold cs.mu and publish d afterwards.
func (cs *ColumnStore) fillDerived(d *derivedColumns) {
	n := cs.n
	// Pass 1: per-row scalars; each row's peak-spot count lands in
	// spotOff[i+1] for the sequential prefix sum below.
	chunks := par.Chunks(n)
	par.ForEach(len(chunks), func(ci int) {
		var spots [16]float64
		for i := chunks[ci].Lo; i < chunks[ci].Hi; i++ {
			d.spotOff[i+1] = int32(cs.deriveRow(i, d, spots[:0]))
		}
	})
	total := 0
	d.allCurvesOK, d.allCompliant = true, true
	for i := 0; i < n; i++ {
		total += int(d.spotOff[i+1])
		d.spotOff[i+1] = int32(total)
		d.allCurvesOK = d.allCurvesOK && d.curveOK[i]
		d.allCompliant = d.allCompliant && d.compliant[i]
	}
	// Pass 2: flatten the peak-efficiency spots. Rows own disjoint
	// [spotOff[i], spotOff[i+1]) ranges, so the fill parallelizes too. A
	// lone spot is the row's peak utilization; only ties are re-read.
	// Re-reading every row instead costs a 100k-row derive about a
	// third more time at one CPU.
	d.spots = make([]float64, total)
	par.ForEach(len(chunks), func(ci int) {
		for i := chunks[ci].Lo; i < chunks[ci].Hi; i++ {
			switch pos := d.spotOff[i]; d.spotOff[i+1] - pos {
			case 0:
			case 1:
				d.spots[pos] = d.peakEEUtils[i]
			default:
				cs.Curve(i).AppendPeakEE(d.spots[pos:pos])
			}
		}
	})
}

// deriveRow fills row i's scalar metrics and validity and compliance
// flags, returning the number of peak-efficiency spots (PeakEE ties
// included); spots is scratch space for them. Metrics stay zero for
// rows whose curve fails validation, matching the zero-on-invalid
// contract of the memoized Result bundle.
func (cs *ColumnStore) deriveRow(i int, d *derivedColumns, spots []float64) int {
	ok := cs.checkCurve(i) == nil
	d.curveOK[i] = ok
	d.compliant[i] = ok && cs.violation(i, cs.intFields(i), anyViolation) == nil
	if !ok {
		return 0
	}
	c := cs.Curve(i)
	d.eps[i] = c.EP()
	d.ees[i] = c.OverallEE()
	d.peakEEs[i], spots = c.AppendPeakEE(spots)
	if len(spots) > 0 {
		d.peakEEUtils[i] = spots[0]
	}
	d.idleFracs[i] = c.IdleFraction()
	d.dynRanges[i] = c.DynamicRange()
	d.peakOverFull[i] = c.PeakOverFullRatio()
	return len(spots)
}

// checkCurve validates row i's curve (core.CheckLevels).
func (cs *ColumnStore) checkCurve(i int) error {
	lo, hi := cs.levelOff[i], cs.levelOff[i+1]
	return core.CheckLevels(cs.idleWatts[i], cs.levelTarget[lo:hi], cs.levelOps[lo:hi], cs.levelPower[lo:hi])
}
