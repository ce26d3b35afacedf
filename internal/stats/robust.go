package stats

import (
	"errors"
	"math"
	"math/bits"
	"sort"
	"sync"
)

// TheilSenFit is a robust line fit: the slope is the median of all
// pairwise slopes, insensitive to outliers (up to ~29% contamination),
// which makes it the right estimator for per-year trend rates over a
// corpus with sparse outlier years.
type TheilSenFit struct {
	Slope     float64
	Intercept float64
	N         int
}

// Predict evaluates the fitted line at x.
func (f TheilSenFit) Predict(x float64) float64 {
	return f.Intercept + f.Slope*x
}

// theilSenExactLimit is the sample size above which TheilSen switches
// from the exact all-pairs estimator (O(n²) slopes — about 2M at the
// limit) to the randomized-pairs estimator. Corpus-scale inputs (a few
// hundred servers) stay exact; fleet-scale inputs (10⁵-10⁶ servers,
// where all-pairs would be 10¹⁰⁺ slopes) estimate the slope median over
// a fixed-size deterministic pair sample.
const theilSenExactLimit = 2048

// theilSenSamplePairs is the number of random pairs the large-n
// estimator draws. The median of ~half a million sampled slopes is
// statistically indistinguishable from the exact pairwise median for
// the trend fits this package serves.
const theilSenSamplePairs = 1 << 19

// TheilSen fits y = a + b·x with the Theil-Sen estimator: b is the
// median of slopes over all point pairs with distinct x, and a is the
// median of y − b·x. Above theilSenExactLimit points the slope median
// is estimated over a deterministic random sample of pairs (fixed
// xorshift seed, no global RNG), so fleet-scale fits stay reproducible
// and take expected O(n + K) time for K slopes: the median is selected
// in place, not sorted. The result is bit for bit the middle of a full
// ascending sort; the two samples where only the sort's order decides
// the bits — a NaN slope, or a median among the zeros of a sample that
// holds -0.0 — are sorted as before (see medianInPlace).
func TheilSen(xs, ys []float64) (TheilSenFit, error) {
	if len(xs) != len(ys) {
		return TheilSenFit{}, ErrLengthMismatch
	}
	if len(xs) < 2 {
		return TheilSenFit{}, ErrEmptySample
	}
	n := len(xs)
	want := theilSenSamplePairs
	if n <= theilSenExactLimit {
		want = n * (n - 1) / 2
	}
	buf := slopeBufs.Get().(*[]float64)
	defer slopeBufs.Put(buf)
	slopes := (*buf)[:0]
	if cap(slopes) < want {
		slopes = make([]float64, 0, want)
	}
	if n > theilSenExactLimit {
		rng := uint64(0x9E3779B97F4A7C15)
		next := func() uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng
		}
		for k := 0; k < theilSenSamplePairs; k++ {
			i := int(next() % uint64(n))
			j := int(next() % uint64(n))
			if i == j {
				continue
			}
			if dx := xs[j] - xs[i]; dx != 0 {
				slopes = append(slopes, (ys[j]-ys[i])/dx)
			}
		}
	} else {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if dx := xs[j] - xs[i]; dx != 0 {
					slopes = append(slopes, (ys[j]-ys[i])/dx)
				}
			}
		}
	}
	*buf = slopes
	if len(slopes) == 0 {
		return TheilSenFit{}, errors.New("stats: degenerate regressor (zero variance)")
	}
	slope := medianInPlace(slopes)
	residuals := make([]float64, len(xs))
	for i := range xs {
		residuals[i] = ys[i] - slope*xs[i]
	}
	intercept, err := Median(residuals)
	if err != nil {
		return TheilSenFit{}, err
	}
	return TheilSenFit{Slope: slope, Intercept: intercept, N: len(xs)}, nil
}

// slopeBufs recycles TheilSen's slope buffers. Fits come in runs (an
// era's EP and EE fits, three eras per summary) and each would
// otherwise allocate, zero and drop up to 2^19 slopes.
var slopeBufs = sync.Pool{New: func() any { return new([]float64) }}

// medianInPlace returns the median of xs — the middle value, or the
// mean of the middle two — bit for bit as sortFloat64s followed by a
// read of the middle would, and reorders xs.
func medianInPlace(xs []float64) float64 {
	lower, upper := middleInPlace(xs)
	if len(xs)%2 == 1 {
		return upper
	}
	return (lower + upper) / 2
}

// middleInPlace returns the values at positions (n-1)/2 and n/2 of the
// non-empty xs sorted by sortFloat64s, bit for bit, and reorders xs.
// One scan counts the negatives and zeros; then the middle is selected
// in expected linear time. A full sort happens, on xs still in its
// original order, only when the sort alone decides the result's bits:
// the sample holds a NaN (sort.Float64s orders NaNs first but keeps
// their payloads apart), or a middle position falls among the zeros of
// a sample that holds -0.0 (±0 tie under <, and the unstable sort picks
// which one lands there).
func middleInPlace(xs []float64) (lower, upper float64) {
	n := len(xs)
	hi, lo := n/2, (n-1)/2
	// Count sign bits without a data-dependent branch (slope signs are
	// close to random); zeros and NaNs are rare, so their tests predict.
	signs, zeros, negZeros := 0, 0, 0
	for _, x := range xs {
		u := math.Float64bits(x)
		signs += int(u >> 63)
		if u<<1 == 0 {
			zeros++
			negZeros += int(u >> 63)
		} else if x != x {
			return sortedMiddle(xs)
		}
	}
	// The sorted sample holds its zeros at [neg, neg+zeros).
	if neg := signs - negZeros; negZeros > 0 && lo < neg+zeros && hi >= neg {
		return sortedMiddle(xs)
	}
	SelectNth(xs, hi)
	m := xs[hi]
	if lo == hi {
		return m, m
	}
	// xs[:hi] holds no value above xs[hi]; the lower middle is its max.
	a := xs[0]
	for _, x := range xs[1:hi] {
		if x > a {
			a = x
		}
	}
	return a, m
}

// sortedMiddle sorts xs and reads its middle positions.
func sortedMiddle(xs []float64) (lower, upper float64) {
	sortFloat64s(xs)
	return xs[(len(xs)-1)/2], xs[len(xs)/2]
}

// SelectNth reorders the NaN-free xs so that xs[k] holds the value an
// ascending sort puts at index k, no value before it is larger and none
// after it is smaller, in O(len(xs)) expected time. It is quickselect over a branch-free Lomuto
// partition: against a pivot near the median each comparison is close
// to a coin flip, so a compare-and-branch partition mispredicts about
// every other element. Comparisons run on orderKey, which orders -0.0
// before +0.0; that refines < without changing the value found at k,
// and medianInPlace never selects where the sign of a zero would show.
// A pivot equal to the value just below the open range gathers its
// whole run of ties in one pass. Past 2·log₂(n) rounds the range still
// open is sorted instead, which bounds the worst case at O(n log n).
func SelectNth(xs []float64, k int) {
	lo, hi := 0, len(xs) // the open range is xs[lo:hi]
	for rounds := 2 * bits.Len(uint(len(xs))); hi-lo > 16 && rounds > 0; rounds-- {
		v := xs[lo:hi]
		last := len(v) - 1
		i := pivot(v)
		v[i], v[last] = v[last], v[i]
		kp := orderKey(v[last])
		if lo > 0 && orderKey(xs[lo-1]) == kp {
			// Every value in range is ≥ xs[lo-1], so the values ≤ p are
			// exactly the run equal to p.
			m := partitionBelow(v[:last], kp+1)
			v[m], v[last] = v[last], v[m]
			if k-lo <= m {
				return
			}
			lo += m + 1
			continue
		}
		m := partitionBelow(v[:last], kp)
		v[m], v[last] = v[last], v[m]
		switch {
		case k-lo < m:
			hi = lo + m
		case k-lo > m:
			lo += m + 1
		default:
			return
		}
	}
	sort.Float64s(xs[lo:hi])
}

// partitionBelow moves the values whose orderKey is below bound to the
// front of v, in one branch-free pass, and returns how many there are.
func partitionBelow(v []float64, bound uint64) int {
	j := 0
	for i, x := range v {
		v[i] = v[j]
		v[j] = x
		_, below := bits.Sub64(orderKey(x), bound, 0)
		j += int(below)
	}
	return j
}

// pivot picks the index of a partition value in the NaN-free v
// (len ≥ 3): the median of its ends and middle, or on long ranges
// Tukey's ninther, the median of three such medians, which splits
// closer to the middle.
func pivot(v []float64) int {
	last, mid := len(v)-1, len(v)/2
	if len(v) <= 128 {
		return median3(v, 0, mid, last)
	}
	e := len(v) / 8
	return median3(v,
		median3(v, 0, e, 2*e),
		median3(v, mid-e, mid, mid+e),
		median3(v, last-2*e, last-e, last))
}

// median3 returns whichever of the indices a, b and c holds the middle
// of their three NaN-free values.
func median3(v []float64, a, b, c int) int {
	if v[b] < v[a] {
		a, b = b, a
	}
	if v[c] < v[b] {
		b = c
		if v[b] < v[a] {
			b = a
		}
	}
	return b
}
