package stats

import "math"

// Pearson returns the Pearson product-moment correlation coefficient of
// the paired samples (xs[i], ys[i]). It returns ErrLengthMismatch when
// the samples differ in length and ErrEmptySample when fewer than two
// pairs are supplied. A sample with zero variance yields NaN, mirroring
// the mathematical definition.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, ErrLengthMismatch
	}
	if len(xs) < 2 {
		return 0, ErrEmptySample
	}
	n := float64(len(xs))
	mx := Sum(xs) / n
	my := Sum(ys) / n
	var sxy, sxx, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	return sxy / math.Sqrt(sxx*syy), nil
}
