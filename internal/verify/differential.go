package verify

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/par"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/verify/tol"
)

// metricBits packs a result's cached metric bundle as exact float bits,
// so two computation paths compare bit-for-bit rather than "close".
func metricBits(r *dataset.Result) [5]uint64 {
	return [5]uint64{
		math.Float64bits(r.EP()),
		math.Float64bits(r.OverallEE()),
		math.Float64bits(r.IdleFraction()),
		math.Float64bits(r.DynamicRange()),
		math.Float64bits(r.PeakEEValue()),
	}
}

// analysisDigest rebuilds the analysis pipeline cold over a copy of the
// valid corpus and hashes every derived number exactly: the metric
// columns, the correlation set, and the Eq. 2 fit. Two invocations must
// produce identical digests no matter how the work was scheduled.
func analysisDigest(valid *dataset.Repository) (string, error) {
	rp := dataset.NewRepository(valid.All()) // a fresh store: cold columns
	rp.Precompute()

	h := sha256.New()
	write := func(vals ...float64) {
		for _, v := range vals {
			binary.Write(h, binary.LittleEndian, math.Float64bits(v))
		}
	}
	write(rp.EPs()...)
	write(rp.OverallEEs()...)
	write(rp.IdleFractions()...)
	write(rp.PeakEEs()...)
	corr, err := analysis.ComputeCorrelations(rp)
	if err != nil {
		return "", err
	}
	write(corr.EPvsOverallEE, corr.EPvsIdleFraction, corr.EPvsDynamicRange,
		corr.EPvsPeakOffset, corr.EPvsPeakOverFull)
	reg, err := analysis.FitIdleRegression(rp)
	if err != nil {
		return "", err
	}
	write(reg.Fit.A, reg.Fit.B, reg.Fit.R2)
	trend, err := analysis.YearlyTrend(rp)
	if err != nil {
		return "", err
	}
	for _, ys := range trend {
		binary.Write(h, binary.LittleEndian, int64(ys.Year))
		binary.Write(h, binary.LittleEndian, int64(ys.N))
		write(ys.EP.Mean, ys.EP.Median, ys.EE.Mean, ys.EE.Median)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// serveGET issues one in-process request against the server's handler.
func serveGET(srv *serve.Server, target string) (*httptest.ResponseRecorder, error) {
	req, err := http.NewRequest(http.MethodGet, target, nil)
	if err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	return rec, nil
}

// differentialInvariants pit two independent paths through the system
// against each other: caches versus cold recomputation, parallel
// schedules versus each other, the serving layer versus the library
// render, and regeneration versus the loaded corpus.
func differentialInvariants() []Invariant {
	return []Invariant{
		{
			Name: "differential/cold-vs-memoized", Category: Differential,
			Doc: "a fresh clone recomputes bit-identical metrics to the warm cache and columns",
			Check: func(ctx *Context) Finding {
				all := ctx.Valid.All()
				eps := ctx.Valid.EPs()
				for i, r := range all {
					cold := metricBits(r.Clone())
					if warm := metricBits(r); cold != warm {
						return fail("%s: cold clone metrics diverge from memoized bundle", r.ID)
					}
					if math.Float64bits(eps[i]) != cold[0] {
						return fail("%s: repository EP column diverges from cold recompute", r.ID)
					}
				}
				return pass("%d results bit-identical cold vs warm", len(all))
			},
		},
		{
			Name: "differential/worker-invariance", Category: Differential,
			Doc: "the analysis pipeline digests identically under worker caps 1, 2 and 8",
			Check: func(ctx *Context) Finding {
				digests := make(map[string][]int)
				var order []string
				for _, workers := range []int{1, 2, 8} {
					prev := par.SetMaxWorkers(workers)
					d, err := analysisDigest(ctx.Valid)
					par.SetMaxWorkers(prev)
					if err != nil {
						return fail("workers=%d: %v", workers, err)
					}
					if _, seen := digests[d]; !seen {
						order = append(order, d)
					}
					digests[d] = append(digests[d], workers)
				}
				if len(digests) != 1 {
					return fail("digests diverge across worker caps: %v", digests)
				}
				return pass("digest %s.. at workers 1/2/8", order[0][:12])
			},
		},
		{
			Name: "differential/ep-quadrature", Category: Differential,
			Doc: "trapezoid and Simpson quadratures of Eq. 1 agree within the ablation band",
			Check: func(ctx *Context) Finding {
				worst := 0.0
				for _, r := range ctx.Valid.All() {
					c := r.MustCurve()
					if d := math.Abs(c.EP() - c.EPSimpson()); d > tol.SimpsonTolerance {
						return fail("%s: |EP − EPSimpson| = %.4f > %v", r.ID, d, tol.SimpsonTolerance)
					} else if d > worst {
						worst = d
					}
				}
				return pass("max quadrature gap %.4f over %d curves", worst, ctx.Valid.Len())
			},
		},
		{
			Name: "differential/serve-report-golden", Category: Differential,
			Doc: "the HTTP-served report is byte-identical to the library render",
			Check: func(ctx *Context) Finding {
				srv, err := serve.New(serve.Config{
					Repo: ctx.Repo, Seed: ctx.Seed,
					Sweeps: ctx.Opts.Sweeps, SweepSeconds: ctx.Opts.SweepSeconds,
				})
				if err != nil {
					return fail("serve.New: %v", err)
				}
				snap := srv.Snapshot()
				want, err := report.Full(snap.Valid, snap.Opts)
				if err != nil {
					return fail("report.Full: %v", err)
				}
				rec, err := serveGET(srv, "/api/v1/report")
				if err != nil {
					return fail("request: %v", err)
				}
				if rec.Code != http.StatusOK {
					return fail("GET /api/v1/report: status %d", rec.Code)
				}
				if got := rec.Body.String(); got != want {
					return fail("served report (%d bytes) differs from report.Full (%d bytes)",
						len(got), len(want))
				}
				wantFig, err := report.Figure(snap.Valid, "3")
				if err != nil {
					return fail("report.Figure(3): %v", err)
				}
				recFig, err := serveGET(srv, "/api/v1/figures/3")
				if err != nil {
					return fail("figure request: %v", err)
				}
				if recFig.Code != http.StatusOK || recFig.Body.String() != wantFig {
					return fail("served figure 3 differs from report.Figure (status %d)", recFig.Code)
				}
				return pass("report (%d bytes) and figure 3 byte-identical over HTTP", len(want))
			},
		},
		{
			Name: "differential/serve-reload-stability", Category: Differential,
			Doc: "a reload at the same seed reproduces byte-identical served payloads",
			Check: func(ctx *Context) Finding {
				srv, err := serve.New(serve.Config{
					Repo: ctx.Repo, Seed: ctx.Seed,
					Sweeps: ctx.Opts.Sweeps, SweepSeconds: ctx.Opts.SweepSeconds,
				})
				if err != nil {
					return fail("serve.New: %v", err)
				}
				before, err := serveGET(srv, "/api/v1/report")
				if err != nil {
					return fail("request: %v", err)
				}
				etag1 := before.Header().Get("ETag")
				if _, err := srv.Reload(ctx.Seed); err != nil {
					return fail("reload: %v", err)
				}
				after, err := serveGET(srv, "/api/v1/report")
				if err != nil {
					return fail("request after reload: %v", err)
				}
				if !bytes.Equal(before.Body.Bytes(), after.Body.Bytes()) {
					return fail("report bytes changed across a same-seed reload (%d vs %d bytes)",
						before.Body.Len(), after.Body.Len())
				}
				if etag2 := after.Header().Get("ETag"); etag1 != etag2 {
					return fail("ETag changed across a same-seed reload: %s vs %s", etag1, etag2)
				}
				return pass("report stable across reload (ETag %s)", etag1)
			},
		},
		{
			Name: "differential/clone-independence", Category: Differential,
			Doc: "mutating a clone never disturbs the original's memoized metrics",
			Check: func(ctx *Context) Finding {
				all := ctx.Valid.All()
				if len(all) == 0 {
					return fail("empty valid corpus")
				}
				r := all[0]
				before := metricBits(r)
				mutant := r.Clone()
				mutant.Levels[5].AvgPowerWatts *= 1.5
				if mutant.EP() == r.EP() {
					return fail("%s: mutated clone still reports the original EP %.6f", r.ID, r.EP())
				}
				if after := metricBits(r); after != before {
					return fail("%s: original metrics changed after mutating a clone", r.ID)
				}
				if fresh := metricBits(r.Clone()); fresh != before {
					return fail("%s: unmutated clone diverges from original", r.ID)
				}
				return pass("clone of %s independent (EP %.3f vs mutant %.3f)",
					r.ID, r.EP(), mutant.EP())
			},
		},
		{
			Name: "differential/regenerate-determinism", Category: Differential,
			Doc: "regenerating the synthetic corpus at the same seed is byte-identical",
			Check: func(ctx *Context) Finding {
				if !ctx.Synthetic {
					return skip("corpus was loaded from a file, not generated")
				}
				encode := func(rs []*dataset.Result) ([]byte, error) {
					var buf bytes.Buffer
					if err := dataset.WriteCSV(&buf, rs); err != nil {
						return nil, err
					}
					return buf.Bytes(), nil
				}
				loaded, err := encode(ctx.Repo.All())
				if err != nil {
					return fail("encode corpus: %v", err)
				}
				for round := 1; round <= 2; round++ {
					regen, err := synth.Generate(synth.Config{Seed: ctx.Seed})
					if err != nil {
						return fail("regenerate (round %d): %v", round, err)
					}
					got, err := encode(regen)
					if err != nil {
						return fail("encode regeneration: %v", err)
					}
					if !bytes.Equal(loaded, got) {
						return fail("regeneration round %d differs from the loaded corpus (%d vs %d bytes)",
							round, len(got), len(loaded))
					}
				}
				return pass("2 regenerations byte-identical (%d CSV bytes, seed %d)",
					len(loaded), ctx.Seed)
			},
		},
	}
}

// SyntheticContext generates the calibrated corpus at seed and wraps it
// in a fully-enabled verification context.
func SyntheticContext(seed int64) (*Context, error) {
	rp, err := synth.NewRepository(synth.Config{Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("verify: synthesize corpus: %w", err)
	}
	return NewContext(rp, seed, true), nil
}

// SnapshotContext adapts a live serving snapshot for verification: the
// invariants run over exactly the corpus and report options the
// snapshot serves. synthetic enables the regeneration-determinism
// check for seed-backed servers.
func SnapshotContext(snap *serve.Snapshot, synthetic bool) *Context {
	return &Context{
		Repo:      snap.Repo,
		Valid:     snap.Valid,
		Seed:      snap.Seed,
		Synthetic: synthetic,
		Opts:      snap.Opts,
	}
}
