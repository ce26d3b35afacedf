package dataset

import (
	"math"

	"repro/internal/core"
	"repro/internal/par"
)

// This file is the columnar metric kernel: it fills the derived metric
// layer straight from the raw struct-of-arrays columns, without
// materializing *Result views or building core.Curve values. Every
// float operation replicates the core.Curve accessors operand for
// operand (same order, same associativity), so the columns it produces
// are bit-identical to the Result/curve path — the differential tests
// in derive_test.go pin this on valid, invalid and non-compliant rows.
// At fleet scale this is what keeps a cold million-row metric build in
// the hundreds of milliseconds instead of tens of seconds.

// fillDerivedColumnar computes d from the raw columns in parallel.
// Callers hold cs.mu and publish d afterwards.
func (cs *ColumnStore) fillDerivedColumnar(d *derivedColumns) {
	n := cs.n
	// Pass 1: per-row scalars; each row's peak-spot count lands in
	// spotOff[i+1] for the sequential prefix sum below.
	chunks := par.Chunks(n)
	par.ForEach(len(chunks), func(ci int) {
		for i := chunks[ci].Lo; i < chunks[ci].Hi; i++ {
			d.spotOff[i+1] = int32(cs.deriveRow(i, d))
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
	// [spotOff[i], spotOff[i+1]) ranges, so the fill parallelizes too.
	d.spots = make([]float64, total)
	par.ForEach(len(chunks), func(ci int) {
		for i := chunks[ci].Lo; i < chunks[ci].Hi; i++ {
			pos := d.spotOff[i]
			if d.spotOff[i+1] == pos {
				continue
			}
			lo, hi := cs.levelOff[i], cs.levelOff[i+1]
			thresh := d.peakEEs[i] * (1 - core.PeakEETolerance)
			for j := lo; j < hi; j++ {
				if levelEEAt(cs.levelOps[j], cs.levelPower[j]) >= thresh {
					d.spots[pos] = cs.levelTarget[j]
					pos++
				}
			}
		}
	})
}

// levelEEAt is Point.EE on column values: ops per watt, zero when power
// is not positive.
func levelEEAt(ops, watts float64) float64 {
	if watts <= 0 {
		return 0
	}
	return ops / watts
}

// deriveRow computes row i's scalar metrics, validity and compliance
// flags, and per-level efficiencies, returning the number of
// peak-efficiency spots (PeakEE ties included). Metrics stay zero for
// rows whose curve fails core.NewCurve validation, matching the
// zero-on-invalid contract of the memoized Result bundle.
func (cs *ColumnStore) deriveRow(i int, d *derivedColumns) (spots int) {
	lo, hi := cs.levelOff[i], cs.levelOff[i+1]
	nl := int(hi - lo)
	idleW := cs.idleWatts[i]

	for j := lo; j < hi; j++ {
		d.levelEE[j] = levelEEAt(cs.levelOps[j], cs.levelPower[j])
	}

	ok := cs.curveValid(lo, hi, idleW)
	d.curveOK[i] = ok
	d.compliant[i] = ok && cs.rowCompliant(i, lo, nl, idleW)
	if !ok {
		return 0
	}

	// Normalized trapezoid area under the power curve (core.Curve
	// normalizedArea): norm = power/peakPower point by point, idle first.
	peakW := cs.levelPower[hi-1]
	var area float64
	prevU, prevN := 0.0, idleW/peakW
	for j := lo; j < hi; j++ {
		u := cs.levelTarget[j]
		nrm := cs.levelPower[j] / peakW
		du := u - prevU
		area += du * (nrm + prevN) / 2
		prevU, prevN = u, nrm
	}
	d.eps[i] = 2 - 2*area

	// Overall efficiency (core.Curve.OverallEE): one loop accumulating
	// ops and watts over all points, active idle included.
	var ops, watts float64
	watts += idleW
	for j := lo; j < hi; j++ {
		ops += cs.levelOps[j]
		watts += cs.levelPower[j]
	}
	if !(watts <= 0) { // core.Curve's test, so a NaN sum divides too
		d.ees[i] = ops / watts
	}

	// Peak efficiency and its spots (core.Curve.PeakEE): max over the
	// measured levels, then every level within the tie tolerance.
	var peak float64
	for j := lo; j < hi; j++ {
		if ee := levelEEAt(cs.levelOps[j], cs.levelPower[j]); ee > peak {
			peak = ee
		}
	}
	d.peakEEs[i] = peak
	thresh := peak * (1 - core.PeakEETolerance)
	first := true
	for j := lo; j < hi; j++ {
		if levelEEAt(cs.levelOps[j], cs.levelPower[j]) >= thresh {
			if first {
				d.peakEEUtils[i] = cs.levelTarget[j]
				first = false
			}
			spots++
		}
	}

	idleFrac := idleW / peakW
	d.idleFracs[i] = idleFrac
	d.dynRanges[i] = 1 - idleFrac
	if full := levelEEAt(cs.levelOps[hi-1], cs.levelPower[hi-1]); !(full <= 0) {
		d.peakOverFull[i] = peak / full
	}
	d.linearDevs[i] = area - (idleFrac+1)/2
	return spots
}

// curveValid replicates core.NewCurve validation on the column values
// for the points [active idle, levels lo..hi): at least two points, the
// grid strictly increasing from 0 to 1, positive power everywhere,
// non-negative throughput. The idle point is utilization 0 with zero
// throughput by construction.
func (cs *ColumnStore) curveValid(lo, hi int32, idleW float64) bool {
	if hi-lo < 1 {
		return false
	}
	if cs.levelTarget[hi-1] != 1 {
		return false
	}
	if idleW <= 0 {
		return false
	}
	prevU := 0.0
	for j := lo; j < hi; j++ {
		u := cs.levelTarget[j]
		if u <= prevU {
			return false
		}
		if cs.levelPower[j] <= 0 {
			return false
		}
		if cs.levelOps[j] < 0 {
			return false
		}
		prevU = u
	}
	return true
}

// rowCompliant replicates dataset.Validate on the column values, minus
// the curve check (the caller folds curveOK in).
func (cs *ColumnStore) rowCompliant(i int, lo int32, nl int, idleW float64) bool {
	if cs.ids[i] == "" || nl != 10 {
		return false
	}
	for k := 0; k < nl; k++ {
		j := lo + int32(k)
		if !isFinite(cs.levelTarget[j]) || !isFinite(cs.levelActual[j]) || !isFinite(cs.levelOps[j]) || !isFinite(cs.levelPower[j]) {
			return false
		}
		want := float64(k+1) / 10
		if math.Abs(cs.levelTarget[j]-want) > 1e-9 {
			return false
		}
		if cs.levelPower[j] <= 0 {
			return false
		}
		if cs.levelOps[j] <= 0 {
			return false
		}
		if math.Abs(cs.levelActual[j]-cs.levelTarget[j]) > loadTolerance {
			return false
		}
		if k > 0 && cs.levelOps[j] <= cs.levelOps[j-1] {
			return false
		}
	}
	if !isFinite(idleW) || idleW <= 0 || idleW >= cs.levelPower[lo+9] {
		return false
	}
	if y := int(cs.hwYears[i]); y < minHWYear || y > maxHWYear {
		return false
	}
	if y := int(cs.pubYears[i]); y < minPubYear || y > maxPubYear {
		return false
	}
	if q := cs.pubQuarters[i]; q < 1 || q > 4 {
		return false
	}
	if q := cs.hwQuarters[i]; q < 1 || q > 4 {
		return false
	}
	nodes := int(cs.nodes[i])
	if nodes < 1 {
		return false
	}
	if chips := int(cs.chips[i]); chips < 1 || chips%nodes != 0 {
		return false
	}
	if cs.coresPerChip[i] < 1 {
		return false
	}
	if !isFinite(cs.memoryGB[i]) || cs.memoryGB[i] <= 0 {
		return false
	}
	return true
}
