package stats

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// theilSenSortRef is TheilSen with the slope median read off a full
// sort.Float64s of the slopes in pair order. It is the bit-for-bit
// oracle for the selection path: same pairs (or the same sampled
// pairs), same degenerate-x error, same intercept.
func theilSenSortRef(xs, ys []float64) (TheilSenFit, error) {
	if len(xs) != len(ys) {
		return TheilSenFit{}, ErrLengthMismatch
	}
	if len(xs) < 2 {
		return TheilSenFit{}, ErrEmptySample
	}
	var slopes []float64
	if n := len(xs); n > theilSenExactLimit {
		slopes = modLoopSlopes(xs, ys)
	} else {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if dx := xs[j] - xs[i]; dx != 0 {
					slopes = append(slopes, (ys[j]-ys[i])/dx)
				}
			}
		}
	}
	if len(slopes) == 0 {
		return TheilSenFit{}, errors.New("stats: degenerate regressor (zero variance)")
	}
	sort.Float64s(slopes)
	slope := slopes[len(slopes)/2]
	if len(slopes)%2 == 0 {
		slope = (slopes[len(slopes)/2-1] + slopes[len(slopes)/2]) / 2
	}
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

// checkTheilSenMatchesRef requires TheilSen and the sort oracle to
// agree bit for bit, or to both fail with the same message, and
// returns the oracle's slope (NaN on error).
func checkTheilSenMatchesRef(t *testing.T, name string, xs, ys []float64) float64 {
	t.Helper()
	got, gotErr := TheilSen(xs, ys)
	want, wantErr := theilSenSortRef(xs, ys)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: error %v, oracle error %v", name, gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error %q, oracle error %q", name, gotErr, wantErr)
		}
		return math.NaN()
	}
	if math.Float64bits(got.Slope) != math.Float64bits(want.Slope) ||
		math.Float64bits(got.Intercept) != math.Float64bits(want.Intercept) || got.N != want.N {
		t.Fatalf("%s: fit {%v (%#x), %v (%#x), %d}, oracle {%v (%#x), %v (%#x), %d}", name,
			got.Slope, math.Float64bits(got.Slope), got.Intercept, math.Float64bits(got.Intercept), got.N,
			want.Slope, math.Float64bits(want.Slope), want.Intercept, math.Float64bits(want.Intercept), want.N)
	}
	return want.Slope
}

// theilSenCase draws one seeded input of n points in the given shape.
func theilSenCase(rng *rand.Rand, shape string, n int) (xs, ys []float64) {
	xs = make([]float64, n)
	ys = make([]float64, n)
	for i := range xs {
		// Hardware-year regressors: few distinct x values, many ties.
		xs[i] = float64(2007 + rng.Intn(10))
		switch shape {
		case "continuous":
			xs[i] = rng.Float64() * 10
			ys[i] = 0.3 + 0.05*xs[i] + 0.1*rng.NormFloat64()
		case "years":
			ys[i] = 0.3 + 0.05*(xs[i]-2007) + 0.1*rng.NormFloat64()
		case "constant":
			// Every slope is ±0: zero median, both signed zeros present.
			ys[i] = 0.75
		case "quantized":
			// Coarse y levels make equal-y pairs, hence ±0 slopes, common
			// enough that the median often lands among them.
			ys[i] = float64(rng.Intn(3)) / 4
		case "flat-noise":
			// Mostly equal ys with a few excursions either way.
			ys[i] = 1
			if rng.Intn(4) == 0 {
				ys[i] += rng.NormFloat64()
			}
		case "nan":
			ys[i] = rng.Float64()
			if rng.Intn(16) == 0 {
				ys[i] = math.NaN()
			}
		case "inf":
			ys[i] = rng.Float64()
			switch rng.Intn(32) {
			case 0:
				ys[i] = math.Inf(1)
			case 1:
				ys[i] = math.Inf(-1)
			}
		}
	}
	return xs, ys
}

// TestTheilSenMatchesSort pins TheilSen's slope and intercept bit for
// bit against the full-sort oracle over seeded inputs that straddle
// the radix threshold of sortFloat64s (256 slopes) and the exact/
// sampled switch (theilSenExactLimit points), with ties in x, constant
// and quantized y (±0 slopes and zero medians), NaN and ±Inf y, and the
// degenerate-x error.
func TestTheilSenMatchesSort(t *testing.T) {
	shapes := []string{"continuous", "years", "constant", "quantized", "flat-noise", "nan", "inf"}
	rng := rand.New(rand.NewSource(15))
	var negZeroMedians, posZeroMedians, nanMedians int
	check := func(shape string, xs, ys []float64) {
		t.Helper()
		switch slope := checkTheilSenMatchesRef(t, shape, xs, ys); {
		case slope == 0 && math.Signbit(slope):
			negZeroMedians++
		case slope == 0:
			posZeroMedians++
		case slope != slope:
			nanMedians++
		}
	}
	for _, shape := range shapes {
		// 1 to 780 pairs, three draws each: across the 256-slope radix
		// threshold, where ties in x thin the pair count unevenly.
		for n := 2; n <= 40; n++ {
			for rep := 0; rep < 3; rep++ {
				xs, ys := theilSenCase(rng, shape, n)
				check(shape, xs, ys)
			}
		}
		for _, n := range []int{64, 100, 181, 257, 400} {
			xs, ys := theilSenCase(rng, shape, n)
			check(shape, xs, ys)
		}
		// The first sampled size, past the exact/sampled switch.
		xs, ys := theilSenCase(rng, shape, theilSenExactLimit+1)
		check(shape, xs, ys)
	}
	// The fixture must keep reaching the medians only the sort decides.
	if negZeroMedians == 0 || posZeroMedians == 0 || nanMedians == 0 {
		t.Errorf("fixture reached %d -0, %d +0 and %d NaN medians; want some of each",
			negZeroMedians, posZeroMedians, nanMedians)
	}
	// The largest exact size and a larger sampled one.
	if !testing.Short() {
		xs, ys := theilSenCase(rng, "quantized", theilSenExactLimit)
		checkTheilSenMatchesRef(t, "quantized", xs, ys)
		xs, ys = theilSenCase(rng, "years", 5000)
		checkTheilSenMatchesRef(t, "years", xs, ys)
	}

	// Degenerate x, exact and sampled: every pair has dx = 0.
	for _, n := range []int{2, 3, 300, theilSenExactLimit + 1} {
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = 2012
			ys[i] = float64(i)
		}
		if _, err := TheilSen(xs, ys); err == nil {
			t.Errorf("constant x (n=%d) accepted", n)
		}
		checkTheilSenMatchesRef(t, "degenerate-x", xs, ys)
	}
}

// TestTheilSenConcurrent fits from several goroutines at once, so fits
// share recycled slope buffers, and requires every fit to match the
// oracle computed serially. Run it under -race.
func TestTheilSenConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	type input struct {
		xs, ys []float64
		want   TheilSenFit
	}
	var inputs []input
	for _, n := range []int{40, 300, 30, theilSenExactLimit + 1} {
		xs, ys := theilSenCase(rng, "years", n)
		want, err := theilSenSortRef(xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{xs, ys, want})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				in := inputs[(g+r)%len(inputs)]
				got, err := TheilSen(in.xs, in.ys)
				if err != nil || math.Float64bits(got.Slope) != math.Float64bits(in.want.Slope) ||
					math.Float64bits(got.Intercept) != math.Float64bits(in.want.Intercept) {
					t.Errorf("goroutine %d, n=%d: %+v, %v; want %+v", g, len(in.xs), got, err, in.want)
				}
			}
		}(g)
	}
	wg.Wait()
}

// modLoopSlopes is the sampled-pair loop TheilSen ran before
// sampledSlopes, verbatim: a 64-bit % per draw, and an append per kept
// pair behind two data-dependent branches.
func modLoopSlopes(xs, ys []float64) []float64 {
	n := len(xs)
	var slopes []float64
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
	return slopes
}

// TestSampledSlopesMatchModLoop pins sampledSlopes, the division-free
// and branch-free pair loop, to the loop it replaced: the same slopes,
// bit for bit and in the same order, and so the same fit. The sizes are
// the first sampled one and the three era sizes of a seed-1 100k fleet;
// the responses carry tied years, NaN, ±0 and ±Inf, and one regressor
// holds +Inf, where only the i ≠ j test drops a point paired with
// itself (its dx is NaN, not 0).
func TestSampledSlopesMatchModLoop(t *testing.T) {
	sizes := []int{theilSenExactLimit + 1, 23_362, 50_935, 74_748}
	if testing.Short() {
		sizes = sizes[:1]
	}
	rng := rand.New(rand.NewSource(27))
	buf := make([]float64, theilSenSamplePairs)
	for _, n := range sizes {
		for _, shape := range []string{"years", "quantized", "signed-zero", "nan", "inf", "inf-x"} {
			name := fmt.Sprintf("%s/n=%d", shape, n)
			var xs, ys []float64
			switch shape {
			case "signed-zero":
				xs, ys = theilSenCase(rng, "years", n)
				for i := range ys {
					switch rng.Intn(4) {
					case 0:
						ys[i] = 0
					case 1:
						ys[i] = math.Copysign(0, -1)
					}
				}
			case "inf-x":
				xs, ys = theilSenCase(rng, "years", n)
				xs[rng.Intn(n)] = math.Inf(1)
			default:
				xs, ys = theilSenCase(rng, shape, n)
			}
			want := modLoopSlopes(xs, ys)
			got := sampledSlopes(xs, ys, buf)
			if len(got) != len(want) {
				t.Fatalf("%s: %d slopes, reference loop %d", name, len(got), len(want))
			}
			for k := range want {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("%s: slope %d is %v (%#x), reference loop %v (%#x)", name, k,
						got[k], math.Float64bits(got[k]), want[k], math.Float64bits(want[k]))
				}
			}
			checkTheilSenMatchesRef(t, name, xs, ys)
		}
	}
}

// FuzzTheilSen requires TheilSen to agree bit for bit with the
// full-sort oracle on arbitrary inputs, or both to fail. Each point
// takes 9 bytes: x from the first (16 levels, so ties are common) and
// y from the other 8 — raw IEEE bits (NaN payloads, ±Inf, ±0,
// subnormals) when the first byte's top bit is set, else one of 16
// quantized levels so equal-y pairs and zero medians stay reachable.
func FuzzTheilSen(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0})
	seed := make([]byte, 0, 9*40)
	for i := 0; i < 40; i++ {
		var y [8]byte
		binary.LittleEndian.PutUint64(y[:], math.Float64bits(float64(i%7)/3))
		seed = append(seed, byte(i%5)|byte(i%2)<<7)
		seed = append(seed, y[:]...)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 9
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			p := data[9*i : 9*i+9]
			xs[i] = float64(p[0] & 15)
			if p[0]&0x80 != 0 {
				ys[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[1:]))
			} else {
				ys[i] = float64(p[1]&15) / 4
			}
		}
		checkTheilSenMatchesRef(t, "fuzz", xs, ys)
	})
}

// checkMedianMatchesSort requires Median to return exactly what the
// sorting path, Quantile(xs, 0.5), returns — the same bits, or the same
// error — and to leave xs as it found it. It returns the median (NaN
// on error).
func checkMedianMatchesSort(t *testing.T, name string, xs []float64) float64 {
	t.Helper()
	orig := make([]uint64, len(xs))
	for i, x := range xs {
		orig[i] = math.Float64bits(x)
	}
	got, gotErr := Median(xs)
	want, wantErr := Quantile(xs, 0.5)
	if gotErr != wantErr {
		t.Fatalf("%s: error %v, sort path error %v", name, gotErr, wantErr)
	}
	if gotErr == nil && math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s (n=%d): median %v (%#x), sort path %v (%#x)", name, len(xs),
			got, math.Float64bits(got), want, math.Float64bits(want))
	}
	for i, x := range xs {
		if math.Float64bits(x) != orig[i] {
			t.Fatalf("%s: Median reordered its input at %d", name, i)
		}
	}
	if gotErr != nil {
		return math.NaN()
	}
	return want
}

// TestMedianMatchesSort pins the selecting Median to the sorting path
// over hand-picked edge cases and seeded samples on both sides of the
// radix threshold: NaNs, ±0 at and off the middle, ties, ±Inf, the
// extremes where (a+b)/2 and a/2+b/2 part ways, and n = 1 and 2.
func TestMedianMatchesSort(t *testing.T) {
	nan, negZero, inf := math.NaN(), math.Copysign(0, -1), math.Inf(1)
	tiny, huge := math.SmallestNonzeroFloat64, math.MaxFloat64
	var negZeroMedians, posZeroMedians, nanMedians int
	check := func(name string, xs []float64) {
		t.Helper()
		switch m := checkMedianMatchesSort(t, name, xs); {
		case m == 0 && math.Signbit(m):
			negZeroMedians++
		case m == 0:
			posZeroMedians++
		case m != m && len(xs) > 0:
			nanMedians++
		}
	}
	for i, xs := range [][]float64{
		nil, {}, {1}, {nan}, {negZero}, {0}, {inf}, {-inf},
		{1, 2}, {2, 1}, {1, 1}, {negZero, 0}, {0, negZero}, {negZero, negZero},
		{nan, 1}, {1, nan}, {nan, nan}, {-inf, inf}, {inf, inf},
		{huge, huge}, {-huge, -huge}, {huge, -huge}, {tiny, tiny}, {tiny, 3 * tiny}, {-tiny, tiny},
		{3, 1, 2}, {2, 2, 2}, {negZero, 0, negZero}, {0, 1, negZero, -1},
		{-1, negZero, 0, 1}, {negZero, negZero, 0, 0}, {0, 0, negZero, negZero},
		{5, 5, 1, 5, 9, 5}, {nan, 3, 2, 1}, {1, 2, 3, nan, 4},
	} {
		check(fmt.Sprintf("fixed %d", i), xs)
	}

	rng := rand.New(rand.NewSource(24))
	draw := func(shape string) float64 {
		switch shape {
		case "ties":
			return float64(rng.Intn(4))
		case "zeros":
			return []float64{negZero, 0, 0, negZero, -1, 1}[rng.Intn(6)]
		case "nan":
			if rng.Intn(20) == 0 {
				return nan
			}
		case "mostly-nan":
			if rng.Intn(3) > 0 {
				return nan
			}
		case "inf":
			if rng.Intn(10) == 0 {
				return math.Copysign(inf, rng.NormFloat64())
			}
		}
		return rng.NormFloat64()
	}
	for _, shape := range []string{"continuous", "ties", "zeros", "nan", "mostly-nan", "inf"} {
		sizes := []int{255, 256, 257, 1000, 4097}
		for n := 1; n <= 40; n++ {
			sizes = append(sizes, n, n)
		}
		for _, n := range sizes {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = draw(shape)
			}
			check(fmt.Sprintf("%s %d", shape, n), xs)
		}
	}
	// The fixture must keep reaching the medians only the sort decides.
	if negZeroMedians == 0 || posZeroMedians == 0 || nanMedians == 0 {
		t.Errorf("fixture reached %d -0, %d +0 and %d NaN medians; want some of each",
			negZeroMedians, posZeroMedians, nanMedians)
	}
}

// FuzzMedian checks Median against the sorting path on arbitrary
// float64 bit patterns, each 8-byte word one sample value.
func FuzzMedian(f *testing.F) {
	f.Add([]byte{})
	word := func(xs ...float64) []byte {
		var out []byte
		for _, x := range xs {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
		}
		return out
	}
	f.Add(word(1))
	f.Add(word(math.Copysign(0, -1), 0))
	f.Add(word(math.NaN(), 2, 1))
	f.Add(word(3, 3, 1, 3, math.Inf(-1), 7))
	f.Add(word(math.MaxFloat64, math.MaxFloat64))
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := make([]float64, len(data)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		checkMedianMatchesSort(t, "fuzz", xs)
	})
}

var theilSenSink TheilSenFit

// BenchmarkTheilSen times one fit on hardware-year regressors: a
// corpus-era size on the exact all-pairs path and a fleet size on the
// sampled-pairs path.
func BenchmarkTheilSen(b *testing.B) {
	for _, bc := range []struct {
		name string
		n    int
	}{
		{"exact-300", 300},
		{"sampled-100k", 100_000},
	} {
		b.Run(bc.name, func(b *testing.B) {
			xs, ys := theilSenCase(rand.New(rand.NewSource(1)), "years", bc.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fit, err := TheilSen(xs, ys)
				if err != nil {
					b.Fatal(err)
				}
				theilSenSink = fit
			}
		})
	}
}
