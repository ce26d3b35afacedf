// Package stats provides the statistics substrate used by the analysis
// layer: descriptive statistics, quantiles, histograms, empirical CDFs,
// correlation coefficients, and least-squares regression (linear and
// exponential) with goodness-of-fit measures.
//
// The package is self-contained (stdlib only) and treats its inputs as
// read-only: no function mutates a caller-provided slice, except those
// named for it (SelectNth and the *InPlace functions).
package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrEmptySample is returned when a computation requires at least one
// observation and the provided sample is empty.
var ErrEmptySample = errors.New("stats: empty sample")

// ErrLengthMismatch is returned by bivariate functions when the two
// samples have different lengths.
var ErrLengthMismatch = errors.New("stats: sample length mismatch")

// Sum returns the sum of xs. An empty sample sums to zero.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmptySample
	}
	return Sum(xs) / float64(len(xs)), nil
}

// MustMean is Mean for samples the caller knows to be non-empty.
// It panics on an empty sample.
func MustMean(xs []float64) float64 {
	m, err := Mean(xs)
	if err != nil {
		panic(err)
	}
	return m
}

// Min returns the smallest element of xs.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmptySample
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the largest element of xs.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmptySample
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Variance returns the unbiased (n-1) sample variance of xs.
// A single-element sample has zero variance.
func Variance(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmptySample
	}
	if len(xs) == 1 {
		return 0, nil
	}
	m := Sum(xs) / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1), nil
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// Median returns the median of xs: Quantile(xs, 0.5), bit for bit. It
// selects the middle one or two order statistics of a copy instead of
// sorting it (middleInPlace) and combines them with quantileSorted's
// interpolation.
func Median(xs []float64) (float64, error) {
	return MedianInPlace(append([]float64(nil), xs...))
}

// MedianInPlace is Median on a sample it may reorder.
func MedianInPlace(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmptySample
	}
	lower, upper := middleInPlace(xs)
	if len(xs)%2 == 1 {
		return upper, nil
	}
	// The R-7 position of the 0.5 quantile falls halfway between the two
	// middle values, as it does between the two values of a pair.
	return quantileSorted([]float64{lower, upper}, 0.5)
}

// Quantile returns the q-th quantile of xs, q in [0, 1], using linear
// interpolation between closest ranks (the "R-7" definition used by
// most statistics packages).
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmptySample
	}
	sorted := append([]float64(nil), xs...)
	sortFloat64s(sorted)
	return quantileSorted(sorted, q)
}

// quantileSorted is Quantile on an already ascending-sorted sample —
// the allocation-free path Describe uses to read several quantiles off
// one sorted copy.
func quantileSorted(sorted []float64, q float64) (float64, error) {
	if len(sorted) == 0 {
		return 0, ErrEmptySample
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %v outside [0, 1]", q)
	}
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Summary holds the descriptive statistics of one sample.
type Summary struct {
	N      int
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	Max    float64
	Mean   float64
	StdDev float64
}

// Describe computes the Summary of xs.
func Describe(xs []float64) (Summary, error) {
	return DescribeInPlace(append([]float64(nil), xs...))
}

// DescribeInPlace is Describe on a sample it sorts in place.
func DescribeInPlace(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmptySample
	}
	sortFloat64s(xs)
	q := func(p float64) float64 {
		v, _ := quantileSorted(xs, p)
		return v
	}
	mean := Sum(xs) / float64(len(xs))
	sd, _ := StdDev(xs)
	return Summary{
		N:      len(xs),
		Min:    xs[0],
		Q1:     q(0.25),
		Median: q(0.5),
		Q3:     q(0.75),
		Max:    xs[len(xs)-1],
		Mean:   mean,
		StdDev: sd,
	}, nil
}

// String renders the summary in one line, suitable for report rows.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.4g q1=%.4g med=%.4g q3=%.4g max=%.4g mean=%.4g sd=%.4g",
		s.N, s.Min, s.Q1, s.Median, s.Q3, s.Max, s.Mean, s.StdDev)
}
