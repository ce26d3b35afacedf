package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestSum(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{name: "empty", xs: nil, want: 0},
		{name: "single", xs: []float64{3.5}, want: 3.5},
		{name: "mixed signs", xs: []float64{1, -2, 3, -4}, want: -2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Sum(tt.xs); got != tt.want {
				t.Errorf("Sum(%v) = %v, want %v", tt.xs, got, tt.want)
			}
		})
	}
}

func TestMeanEmpty(t *testing.T) {
	if _, err := Mean(nil); err != ErrEmptySample {
		t.Fatalf("Mean(nil) err = %v, want ErrEmptySample", err)
	}
}

func TestMean(t *testing.T) {
	got, err := Mean([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
}

func TestMustMeanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustMean(nil) did not panic")
		}
	}()
	MustMean(nil)
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5, -9, 2, 6}
	mn, err := Min(xs)
	if err != nil {
		t.Fatal(err)
	}
	mx, err := Max(xs)
	if err != nil {
		t.Fatal(err)
	}
	if mn != -9 || mx != 6 {
		t.Errorf("Min, Max = %v, %v; want -9, 6", mn, mx)
	}
	if _, err := Min(nil); err != ErrEmptySample {
		t.Errorf("Min(nil) err = %v", err)
	}
	if _, err := Max(nil); err != ErrEmptySample {
		t.Errorf("Max(nil) err = %v", err)
	}
}

func TestVariance(t *testing.T) {
	// Known sample: variance of {2,4,4,4,5,5,7,9} with n-1 is 32/7.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	v, err := Variance(xs)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(v, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", v, 32.0/7.0)
	}
	if v1, _ := Variance([]float64{42}); v1 != 0 {
		t.Errorf("Variance(single) = %v, want 0", v1)
	}
}

func TestStdDevMatchesVariance(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6}
	v, _ := Variance(xs)
	sd, _ := StdDev(xs)
	if !almostEqual(sd*sd, v, 1e-12) {
		t.Errorf("StdDev² = %v, want %v", sd*sd, v)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	tests := []struct {
		q, want float64
	}{
		{0, 1},
		{0.25, 1.75},
		{0.5, 2.5},
		{0.75, 3.25},
		{1, 4},
	}
	for _, tt := range tests {
		got, err := Quantile(xs, tt.q)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
}

func TestQuantileErrors(t *testing.T) {
	if _, err := Quantile(nil, 0.5); err != ErrEmptySample {
		t.Errorf("empty: err = %v", err)
	}
	if _, err := Quantile([]float64{1}, -0.1); err == nil {
		t.Error("q=-0.1: expected error")
	}
	if _, err := Quantile([]float64{1}, 1.1); err == nil {
		t.Error("q=1.1: expected error")
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestDescribe(t *testing.T) {
	s, err := Describe([]float64{5, 1, 4, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Mean != 3 {
		t.Errorf("Describe = %+v", s)
	}
	if s.Q1 != 2 || s.Q3 != 4 {
		t.Errorf("quartiles = %v, %v; want 2, 4", s.Q1, s.Q3)
	}
	if s.String() == "" {
		t.Error("String() empty")
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r, 1, 1e-12) {
		t.Errorf("Pearson = %v, want 1", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, _ = Pearson(xs, neg)
	if !almostEqual(r, -1, 1e-12) {
		t.Errorf("Pearson (negative) = %v, want -1", r)
	}
}

func TestPearsonKnownValue(t *testing.T) {
	xs := []float64{43, 21, 25, 42, 57, 59}
	ys := []float64{99, 65, 79, 75, 87, 81}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r, 0.5298, 1e-3) {
		t.Errorf("Pearson = %v, want ~0.5298", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err != ErrLengthMismatch {
		t.Errorf("mismatch: err = %v", err)
	}
	if _, err := Pearson([]float64{1}, []float64{1}); err != ErrEmptySample {
		t.Errorf("short: err = %v", err)
	}
}

func TestLinearRegressionExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 1 + 2x
	fit, err := LinearRegression(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, 2, 1e-12) || !almostEqual(fit.Intercept, 1, 1e-12) {
		t.Errorf("fit = %+v", fit)
	}
	if !almostEqual(fit.R2, 1, 1e-12) {
		t.Errorf("R2 = %v, want 1", fit.R2)
	}
	if got := fit.Predict(10); !almostEqual(got, 21, 1e-12) {
		t.Errorf("Predict(10) = %v, want 21", got)
	}
}

func TestLinearRegressionDegenerate(t *testing.T) {
	if _, err := LinearRegression([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("constant x: expected error")
	}
}

func TestExponentialRegressionExact(t *testing.T) {
	// y = 1.2969 · e^(-2.06 x): the Eq. 2 shape from the paper.
	xs := []float64{0, 0.05, 0.1, 0.2, 0.3, 0.5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 1.2969 * math.Exp(-2.06*x)
	}
	fit, err := ExponentialRegression(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.A, 1.2969, 1e-9) || !almostEqual(fit.B, -2.06, 1e-9) {
		t.Errorf("fit = %+v", fit)
	}
	if !almostEqual(fit.R2, 1, 1e-9) {
		t.Errorf("R2 = %v, want 1", fit.R2)
	}
}

func TestExponentialRegressionRejectsNonPositive(t *testing.T) {
	if _, err := ExponentialRegression([]float64{1, 2}, []float64{1, 0}); err == nil {
		t.Error("zero y: expected error")
	}
	if _, err := ExponentialRegression([]float64{1, 2}, []float64{1, -3}); err == nil {
		t.Error("negative y: expected error")
	}
}

func TestECDF(t *testing.T) {
	e, err := NewECDF([]float64{1, 2, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		x, want float64
	}{
		{0.5, 0},
		{1, 0.25},
		{2, 0.75},
		{2.5, 0.75},
		{3, 1},
		{99, 1},
	}
	for _, tt := range tests {
		if got := e.At(tt.x); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("At(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
	if got := e.Between(2, 3); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("Between(2,3) = %v, want 0.5", got)
	}
	if e.N() != 4 {
		t.Errorf("N = %d, want 4", e.N())
	}
}

func TestECDFPoints(t *testing.T) {
	e, _ := NewECDF([]float64{1, 2, 2, 3})
	xs, ps := e.Points()
	if len(xs) != 3 || len(ps) != 3 {
		t.Fatalf("Points: %v %v", xs, ps)
	}
	if xs[1] != 2 || !almostEqual(ps[1], 0.75, 1e-12) {
		t.Errorf("step at 2 = (%v, %v)", xs[1], ps[1])
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0.1, 0.2, 0.55, 0.9, 1.0, -5, 99}
	h, err := NewHistogram(xs, 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// -5 clamps into bin 0; 1.0 and 99 clamp into bin 1.
	if h.Bins[0].Count != 3 || h.Bins[1].Count != 4 {
		t.Errorf("bins = %+v", h.Bins)
	}
	total := 0
	for _, b := range h.Bins {
		total += b.Count
	}
	if total != len(xs) {
		t.Errorf("histogram loses mass: %d != %d", total, len(xs))
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(nil, 0, 1, 2); err != ErrEmptySample {
		t.Errorf("empty: %v", err)
	}
	if _, err := NewHistogram([]float64{1}, 0, 1, 0); err == nil {
		t.Error("nbins=0: expected error")
	}
	if _, err := NewHistogram([]float64{1}, 1, 0, 2); err == nil {
		t.Error("inverted range: expected error")
	}
}

// Property: Pearson is invariant under positive affine transforms of
// either variable and bounded in [-1, 1].
func TestPearsonPropertyAffineInvariance(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 4 {
			return true
		}
		n := len(raw) / 2
		xs := raw[:n]
		ys := raw[n : 2*n]
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				return true
			}
		}
		r1, err := Pearson(xs, ys)
		if err != nil || math.IsNaN(r1) {
			return true // degenerate sample; nothing to check
		}
		scaled := make([]float64, n)
		for i, x := range xs {
			scaled[i] = 3*x + 7
		}
		r2, err := Pearson(scaled, ys)
		if err != nil {
			return false
		}
		return almostEqual(r1, r2, 1e-6) && r1 <= 1+1e-9 && r1 >= -1-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuantilePropertyMonotone(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		qa := math.Abs(math.Mod(a, 1))
		qb := math.Abs(math.Mod(b, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		va, err1 := Quantile(raw, qa)
		vb, err2 := Quantile(raw, qb)
		if err1 != nil || err2 != nil {
			return false
		}
		mn, _ := Min(raw)
		mx, _ := Max(raw)
		return va <= vb+1e-9 && va >= mn-1e-9 && vb <= mx+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: ECDF is a valid CDF — nondecreasing, 0 below min, 1 at max.
func TestECDFPropertyValidCDF(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.Abs(v) > 1e12 {
				return true
			}
		}
		e, err := NewECDF(raw)
		if err != nil {
			return false
		}
		mn, _ := Min(raw)
		mx, _ := Max(raw)
		if e.At(mn-1) != 0 || e.At(mx) != 1 {
			return false
		}
		prev := 0.0
		for i := 0; i <= 10; i++ {
			x := mn + (mx-mn)*float64(i)/10
			p := e.At(x)
			if p < prev-1e-12 {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTheilSenExactLine(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{1, 3, 5, 7, 9} // y = 1 + 2x
	fit, err := TheilSen(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, 2, 1e-12) || !almostEqual(fit.Intercept, 1, 1e-12) {
		t.Errorf("fit = %+v", fit)
	}
	if !almostEqual(fit.Predict(10), 21, 1e-12) {
		t.Error("Predict")
	}
}

func TestTheilSenRobustToOutliers(t *testing.T) {
	// One wild outlier barely moves the Theil-Sen slope but wrecks OLS.
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	ys := []float64{0, 1, 2, 3, 4, 5, 6, 700}
	ts, err := TheilSen(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	ols, err := LinearRegression(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ts.Slope-1) > 0.2 {
		t.Errorf("Theil-Sen slope = %v, want ≈ 1", ts.Slope)
	}
	if ols.Slope < 10 {
		t.Errorf("OLS slope = %v; fixture no longer stresses robustness", ols.Slope)
	}
}

func TestTheilSenErrors(t *testing.T) {
	if _, err := TheilSen([]float64{1}, []float64{1, 2}); err != ErrLengthMismatch {
		t.Errorf("mismatch: %v", err)
	}
	if _, err := TheilSen([]float64{1}, []float64{1}); err != ErrEmptySample {
		t.Errorf("short: %v", err)
	}
	if _, err := TheilSen([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("constant x accepted")
	}
}

func TestTheilSenTiesInX(t *testing.T) {
	// Repeated x values are fine as long as some pairs differ.
	xs := []float64{1, 1, 2, 2, 3, 3}
	ys := []float64{2, 2.1, 4, 4.1, 6, 6.1}
	fit, err := TheilSen(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 0.2 {
		t.Errorf("slope = %v", fit.Slope)
	}
}
