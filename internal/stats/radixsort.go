package stats

import (
	"math"
	"sort"
)

// radixSortMinLen is the sample size below which sortFloat64s defers
// to sort.Float64s: the radix passes and two key buffers only pay for
// themselves once the comparison sort's n·log n factor dominates.
const radixSortMinLen = 256

// sortFloat64s sorts xs ascending in place, byte-identical to
// sort.Float64s. Large samples free of NaN and negative zero take an
// LSD radix sort over order-preserving bit keys — for such samples the
// float64 bits↔value map is injective, so ties are bitwise-equal values
// and every correct ascending sort produces the same byte sequence.
// Samples containing NaN (ordered first by sort.Float64s, but scattered
// by the bit mapping) or -0.0 (tied with +0.0 under <, but separated by
// the bit mapping) fall back to the comparison sort so the exact output
// bytes of the previous implementation are preserved.
func sortFloat64s(xs []float64) {
	if len(xs) < radixSortMinLen {
		sort.Float64s(xs)
		return
	}
	for _, x := range xs {
		if x != x || (x == 0 && math.Signbit(x)) {
			sort.Float64s(xs)
			return
		}
	}
	radixSortFloat64s(xs)
}

// orderKey maps a float64 to a uint64 whose unsigned order is the
// float's order, with -0.0 just below +0.0 (NaNs land at the ends by
// sign): negative values have all bits flipped, non-negative values the
// sign bit set.
func orderKey(x float64) uint64 {
	u := math.Float64bits(x)
	return u ^ (uint64(int64(u)>>63) | 1<<63)
}

// radixSortFloat64s runs an 8-pass least-significant-byte radix sort on
// orderKey keys, moving values between xs and one scratch buffer. Passes
// whose byte is constant across the whole sample are skipped (common
// for the exponent bytes of similar-magnitude metric columns).
func radixSortFloat64s(xs []float64) {
	n := len(xs)
	// Spelled out, the count costs a fraction of a loop over p.
	var counts [8][256]int
	for _, x := range xs {
		u := orderKey(x)
		counts[0][byte(u)]++
		counts[1][byte(u>>8)]++
		counts[2][byte(u>>16)]++
		counts[3][byte(u>>24)]++
		counts[4][byte(u>>32)]++
		counts[5][byte(u>>40)]++
		counts[6][byte(u>>48)]++
		counts[7][byte(u>>56)]++
	}
	src, dst := xs, make([]float64, n)
	for p := 0; p < 8; p++ {
		c := &counts[p]
		shift := 8 * p
		skip := false
		for _, cnt := range c {
			if cnt == n {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		var off [256]int
		sum := 0
		for b, cnt := range c {
			off[b] = sum
			sum += cnt
		}
		for _, x := range src {
			b := byte(orderKey(x) >> shift)
			dst[off[b]] = x
			off[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
}
