package dataset

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// memoResult builds a small valid result for cache tests.
func memoResult(id string, idle float64) *Result {
	levels := make([]LoadLevel, 10)
	for i := range levels {
		u := float64(i+1) / 10
		levels[i] = LoadLevel{
			TargetLoad:    u,
			ActualLoad:    u,
			OpsPerSec:     1e6 * u,
			AvgPowerWatts: idle + (200-idle)*u,
		}
	}
	return &Result{
		ID:              id,
		Vendor:          "V",
		System:          "S",
		FormFactor:      FormRack,
		PublishedYear:   2016,
		HWAvailYear:     2016,
		Nodes:           1,
		Chips:           2,
		CoresPerChip:    8,
		NominalGHz:      2.2,
		MemoryGB:        64,
		ActiveIdleWatts: idle,
		Levels:          levels,
	}
}

// TestMetricsMemoized checks that repeated accessors return the same
// values and the same (shared) curve pointer.
func TestMetricsMemoized(t *testing.T) {
	r := memoResult("memo-1", 60)
	c1 := r.MustCurve()
	c2 := r.MustCurve()
	if c1 != c2 {
		t.Fatalf("MustCurve returned distinct curves across calls: %p vs %p", c1, c2)
	}
	if r.EP() != c1.EP() {
		t.Fatalf("memoized EP %.6f != curve EP %.6f", r.EP(), c1.EP())
	}
	if r.OverallEE() != c1.OverallEE() {
		t.Fatalf("memoized EE %.6f != curve EE %.6f", r.OverallEE(), c1.OverallEE())
	}
}

// TestMetricsInvalidCurve checks the zero-on-invalid contract survives
// memoization.
func TestMetricsInvalidCurve(t *testing.T) {
	r := memoResult("memo-bad", 60)
	r.Levels = r.Levels[:3] // too few levels: curve construction fails
	if _, err := r.Curve(); err == nil {
		t.Fatal("expected curve error for truncated result")
	}
	if r.EP() != 0 || r.OverallEE() != 0 || r.IdleFraction() != 0 {
		t.Fatalf("invalid result must report zero metrics, got EP=%v EE=%v idle=%v",
			r.EP(), r.OverallEE(), r.IdleFraction())
	}
	// The error must be memoized too: a second call returns the same.
	_, err1 := r.Curve()
	_, err2 := r.Curve()
	if err1 != err2 {
		t.Fatalf("curve error not memoized: %v vs %v", err1, err2)
	}
}

// TestConcurrentMetricAccess hammers the metric accessors from many
// goroutines. Run with -race: the memo publication must be safe even
// when every goroutine races on a cold cache.
func TestConcurrentMetricAccess(t *testing.T) {
	results := make([]*Result, 32)
	for i := range results {
		results[i] = memoResult("conc", 40+float64(i))
	}
	rp := NewRepository(results)

	const goroutines = 16
	var wg sync.WaitGroup
	eps := make([][]float64, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for _, r := range results {
				_ = r.MustCurve()
				eps[gi] = append(eps[gi], r.EP())
				_ = r.PeakEEValue()
				_ = r.IdleFraction()
			}
			_ = rp.EPs()
			_ = rp.SortByEP()
		}(gi)
	}
	wg.Wait()
	for gi := 1; gi < goroutines; gi++ {
		for i := range eps[0] {
			if eps[gi][i] != eps[0][i] {
				t.Fatalf("goroutine %d saw EP[%d]=%v, goroutine 0 saw %v",
					gi, i, eps[gi][i], eps[0][i])
			}
		}
	}
}

// TestCloneDoesNotShareCache verifies the memoization invalidation
// contract: a clone computes metrics from its own (possibly mutated)
// fields, and mutating the clone never disturbs the original's cache.
func TestCloneDoesNotShareCache(t *testing.T) {
	orig := memoResult("clone-src", 60)
	epBefore := orig.EP() // warm the original's cache first

	cl := orig.Clone()
	cl.ActiveIdleWatts = 20 // much lower idle → higher EP
	for i := range cl.Levels {
		cl.Levels[i].AvgPowerWatts = 20 + (200-20)*cl.Levels[i].TargetLoad
	}
	if cl.EP() == epBefore {
		t.Fatalf("clone EP %.6f equals original EP — cache shared across Clone", cl.EP())
	}
	if cl.EP() <= epBefore {
		t.Fatalf("lower idle should raise EP: clone %.6f vs original %.6f", cl.EP(), epBefore)
	}
	if orig.EP() != epBefore {
		t.Fatalf("original EP changed after clone mutation: %.6f vs %.6f", orig.EP(), epBefore)
	}
	// And the mutated original fields stay frozen in its cache: the
	// original's curve still reflects the pre-clone state.
	if got := orig.MustCurve().IdleFraction(); math.Abs(got-60.0/200.0) > 1e-12 {
		t.Fatalf("original idle fraction drifted: %v", got)
	}
}

// TestSortByEPMatchesDirectSort cross-checks the key-column sort
// against an independently computed ordering.
func TestSortByEPMatchesDirectSort(t *testing.T) {
	results := []*Result{
		memoResult("r1", 90),
		memoResult("r2", 30),
		memoResult("r3", 60),
		memoResult("r4", 45),
	}
	rp := NewRepository(results)
	sorted := rp.SortByEP()
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1].EP() > sorted[i].EP() {
			t.Fatalf("SortByEP out of order at %d: %.4f > %.4f",
				i, sorted[i-1].EP(), sorted[i].EP())
		}
	}
	if rp.All()[0].ID != "r1" {
		t.Fatal("SortByEP must not reorder the repository itself")
	}
	var _ *core.Curve = sorted[0].MustCurve() // sorted results stay usable
}

// TestMemoizeBuildsOnce starts eight first callers of one key at once:
// the build runs once, and every caller gets its value.
func TestMemoizeBuildsOnce(t *testing.T) {
	cs := BuildColumns([]*Result{memoResult("m", 60)})
	const callers = 8
	var builds atomic.Int32
	var ready sync.WaitGroup
	ready.Add(callers)
	got := make([]any, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ready.Done()
			got[g] = cs.Memoize("k", func() any {
				builds.Add(1)
				ready.Wait() // hold the build until every caller has arrived
				return new(int)
			})
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times, want 1", n)
	}
	for g := range got {
		if got[g] == nil || got[g] != got[0] {
			t.Fatalf("caller %d got %v, caller 0 got %v", g, got[g], got[0])
		}
	}
}

// TestMemoizePanicRepeats checks that a build that panics re-panics
// with its value in every caller, concurrent or later, instead of
// handing a later caller a nil value, and that it runs once.
func TestMemoizePanicRepeats(t *testing.T) {
	cs := BuildColumns([]*Result{memoResult("m", 60)})
	var builds atomic.Int32
	build := func() any {
		builds.Add(1)
		panic("memo build failed")
	}
	call := func() (v, recovered any) {
		defer func() { recovered = recover() }()
		return cs.Memoize("k", build), nil
	}
	const callers = 4
	recovered := make([]any, callers+1)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, recovered[g] = call()
		}()
	}
	wg.Wait()
	v, last := call()
	recovered[callers] = last
	if v != nil {
		t.Fatalf("a caller after the panic got %v", v)
	}
	for g, r := range recovered {
		if r != "memo build failed" {
			t.Fatalf("caller %d recovered %v, want the build's panic value", g, r)
		}
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times, want 1", n)
	}
}
