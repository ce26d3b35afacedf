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

// radixSortFloat64s runs an 8-pass least-significant-byte radix sort
// over orderKey keys. Passes whose byte is constant across the whole
// sample are skipped (common for the exponent bytes of
// similar-magnitude metric columns).
func radixSortFloat64s(xs []float64) {
	n := len(xs)
	keys := make([]uint64, n)
	tmp := make([]uint64, n)
	var counts [8][256]int
	for i, x := range xs {
		u := orderKey(x)
		keys[i] = u
		for p := 0; p < 8; p++ {
			counts[p][byte(u>>(8*p))]++
		}
	}
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
		for _, u := range keys {
			b := byte(u >> shift)
			tmp[off[b]] = u
			off[b]++
		}
		keys, tmp = tmp, keys
	}
	for i, u := range keys {
		if u>>63 == 1 {
			u &^= 1 << 63
		} else {
			u = ^u
		}
		xs[i] = math.Float64frombits(u)
	}
}
