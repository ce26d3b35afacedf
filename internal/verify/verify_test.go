package verify

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/synth"
)

// seed1 builds (once per test binary) the canonical verification
// context the positive tests share. Tests that corrupt a corpus build
// their own.
func seed1(t *testing.T) *Context {
	t.Helper()
	ctx, err := SyntheticContext(1)
	if err != nil {
		t.Fatalf("SyntheticContext(1): %v", err)
	}
	return ctx
}

func TestRegistryShape(t *testing.T) {
	regs := Registry()
	if len(regs) < 20 {
		t.Fatalf("registry holds %d invariants, want at least 20", len(regs))
	}
	perCategory := make(map[Category]int)
	seen := make(map[string]bool)
	for _, inv := range regs {
		if inv.Name == "" || inv.Doc == "" || inv.Check == nil {
			t.Errorf("invariant %+v missing name, doc or check", inv)
		}
		if seen[inv.Name] {
			t.Errorf("duplicate invariant name %q", inv.Name)
		}
		seen[inv.Name] = true
		if !strings.HasPrefix(inv.Name, string(inv.Category)+"/") {
			t.Errorf("invariant %q not prefixed by its category %q", inv.Name, inv.Category)
		}
		perCategory[inv.Category]++
	}
	for _, c := range Categories() {
		if perCategory[c] < 3 {
			t.Errorf("category %s has %d invariants, want at least 3", c, perCategory[c])
		}
	}
}

func TestSyntheticSeed1AllPass(t *testing.T) {
	rep, err := Synthetic(1)
	if err != nil {
		t.Fatalf("Synthetic(1): %v", err)
	}
	if !rep.OK() {
		t.Fatalf("seed-1 corpus failed invariants %v:\n%s", rep.FailureNames(), rep.String())
	}
	run, passed, failed, skipped := rep.Counts()
	if run != len(Registry()) {
		t.Errorf("ran %d invariants, want %d", run, len(Registry()))
	}
	if failed != 0 || skipped != 0 || passed != run {
		t.Errorf("counts run=%d passed=%d failed=%d skipped=%d, want all passing", run, passed, failed, skipped)
	}
	if rep.Seed != 1 {
		t.Errorf("report seed %d, want 1", rep.Seed)
	}
}

func TestCorpusSkipsRegeneration(t *testing.T) {
	rp, err := synth.NewRepository(synth.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep := Corpus(rp, 1)
	if !rep.OK() {
		t.Fatalf("loaded corpus failed invariants %v", rep.FailureNames())
	}
	var skippedName string
	for _, f := range rep.Findings {
		if f.Skipped {
			if skippedName != "" {
				t.Errorf("more than one skipped finding: %s and %s", skippedName, f.Name)
			}
			skippedName = f.Name
		}
	}
	if skippedName != "differential/regenerate-determinism" {
		t.Errorf("skipped %q, want differential/regenerate-determinism", skippedName)
	}
}

func TestCategoryFilter(t *testing.T) {
	ctx := seed1(t)
	rep := Run(ctx, Structural)
	if len(rep.Findings) == 0 {
		t.Fatal("no structural findings")
	}
	for _, f := range rep.Findings {
		if f.Category != Structural {
			t.Errorf("finding %s has category %s, want structural only", f.Name, f.Category)
		}
	}
	both := Run(ctx, Structural, Metric)
	if len(both.Findings) <= len(rep.Findings) {
		t.Errorf("structural+metric ran %d checks, structural alone %d", len(both.Findings), len(rep.Findings))
	}
}

// TestCorruptedMetricsFail mutates one valid curve after the caches
// warmed: the cached metrics no longer match a cold recomputation, so
// the differential and metric invariants must catch it. It then
// tampers with the fields behind each Table I, peak-share and
// top-decile target in a fresh copy of the corpus, and that target's
// invariant must fail.
func TestCorruptedMetricsFail(t *testing.T) {
	ctx := seed1(t)
	victim := ctx.Valid.All()[3]
	victim.EP() // ensure the stale value is memoized before corruption
	victim.Levels[7].AvgPowerWatts *= 1.7

	rep := Run(ctx, Metric, Differential)
	if rep.OK() {
		t.Fatal("corrupted corpus passed every metric and differential invariant")
	}
	names := rep.FailureNames()
	want := "differential/cold-vs-memoized"
	found := false
	for _, n := range names {
		if n == want {
			found = true
		}
	}
	if !found {
		t.Errorf("failures %v do not include %s", names, want)
	}

	pristine := seed1(t).Valid.All()
	registry := make(map[string]Invariant)
	for _, inv := range Registry() {
		registry[inv.Name] = inv
	}
	for _, tc := range []struct {
		name   string
		tamper func([]*dataset.Result) []*dataset.Result
	}{
		{"structural/table-i-histogram", func(rs []*dataset.Result) []*dataset.Result {
			// Move one server from the 1.00 GB/core bucket to 2.00.
			for _, r := range rs {
				if math.Round(r.MemoryPerCore()*100)/100 == 1.00 {
					r.MemoryGB *= 2
					break
				}
			}
			return rs
		}},
		{"metric/peak-at-full-share", func(rs []*dataset.Result) []*dataset.Result {
			// Keep only the servers that peak at full load.
			var kept []*dataset.Result
			for _, r := range rs {
				if r.PeakEEUtilization() == 1.0 {
					kept = append(kept, r)
				}
			}
			return kept
		}},
		{"metric/top-decile-2012", func(rs []*dataset.Result) []*dataset.Result {
			// Relabel the 2012 hardware as 2013.
			for _, r := range rs {
				if r.HWAvailYear == 2012 {
					r.HWAvailYear = 2013
				}
			}
			return rs
		}},
	} {
		inv, ok := registry[tc.name]
		if !ok {
			t.Fatalf("no invariant %s registered", tc.name)
		}
		rs := make([]*dataset.Result, len(pristine))
		for i, r := range pristine {
			rs[i] = r.Clone()
		}
		tampered := NewContext(dataset.NewRepository(tc.tamper(rs)), 1, false)
		if f := runOne(inv, tampered); f.OK {
			t.Errorf("%s passed a tampered corpus: %s", tc.name, f.Detail)
		}
	}
}

// TestTruncatedCorpusFails drops submissions; the structural counting
// invariants must fail and the engine must exit cleanly rather than
// panic.
func TestTruncatedCorpusFails(t *testing.T) {
	rp, err := synth.NewRepository(synth.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	truncated := rp.All()[:100]
	rep := Corpus(dataset.NewRepository(truncated), 1)
	if rep.OK() {
		t.Fatal("truncated corpus passed verification")
	}
	failed := map[string]bool{}
	for _, n := range rep.FailureNames() {
		failed[n] = true
	}
	for _, want := range []string{"structural/total-submissions", "structural/valid-count"} {
		if !failed[want] {
			t.Errorf("failures %v do not include %s", rep.FailureNames(), want)
		}
	}
}

// TestMalformedCurvePanicsAreCaptured wrecks a curve badly enough that
// MustCurve panics; the runner must convert the panic into failed
// findings instead of crashing the run. The context is assembled by
// hand (bypassing NewContext's validation and curve precompute) so the
// malformed result reaches the checks with a cold cache, the way a
// corrupted deserialized corpus would.
func TestMalformedCurvePanicsAreCaptured(t *testing.T) {
	base := seed1(t)
	victim := base.Valid.All()[0].Clone()
	victim.Levels = victim.Levels[:2]
	ctx := &Context{
		Repo:  base.Repo,
		Valid: dataset.NewRepository([]*dataset.Result{victim}),
		Seed:  1,
	}

	rep := Run(ctx, Structural)
	if rep.OK() {
		t.Fatal("corpus with a malformed curve passed structural invariants")
	}
	sawPanic := false
	for _, f := range rep.Findings {
		if !f.OK && strings.Contains(f.Detail, "panicked") {
			sawPanic = true
		}
	}
	if !sawPanic {
		t.Errorf("no finding reports a captured panic; failures: %v", rep.FailureNames())
	}
}

func TestReportString(t *testing.T) {
	rep := &Report{Seed: 7, Findings: []Finding{
		{Name: "structural/x", Category: Structural, OK: true, Detail: "fine"},
		{Name: "metric/y", Category: Metric, OK: false, Detail: "off by one"},
		{Name: "differential/z", Category: Differential, OK: true, Skipped: true, Detail: "not applicable"},
	}}
	s := rep.String()
	for _, want := range []string{"FAIL", "skip", "off by one", "3 invariants: 1 ok, 1 failed, 1 skipped (seed 7)"} {
		if !strings.Contains(s, want) {
			t.Errorf("report string missing %q:\n%s", want, s)
		}
	}
	if rep.OK() {
		t.Error("report with a failure reports OK")
	}
	if got := rep.FailureNames(); len(got) != 1 || got[0] != "metric/y" {
		t.Errorf("FailureNames = %v, want [metric/y]", got)
	}
}

func TestRunOneCapturesPanic(t *testing.T) {
	inv := Invariant{
		Name: "test/boom", Category: Metric,
		Check: func(*Context) Finding { panic("kaboom") },
	}
	f := runOne(inv, nil)
	if f.OK {
		t.Fatal("panicking check reported OK")
	}
	if f.Name != "test/boom" || !strings.Contains(f.Detail, "kaboom") {
		t.Errorf("finding %+v does not carry the panic", f)
	}
}
