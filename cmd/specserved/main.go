// Command specserved serves the paper's artifacts — the full report,
// every figure, the EP/EE/correlation metrics, and the corpus listing —
// over HTTP from an immutable snapshot cache. Payloads render at most
// once per snapshot (concurrent identical misses coalesce into a single
// render) and are then served as pre-encoded bytes with ETag
// revalidation and gzip variants; POST /api/v1/reload swaps in a new
// corpus seed atomically without blocking readers.
//
// Synthetic servers also serve keyed scenarios: ?seed=N&servers=M on
// any cached endpoint addresses a generated corpus held in an
// LRU-bounded workspace (loads coalesce; evicted scenarios reload
// byte-identically). GET /metrics exposes corpus-, fleet- and
// serve-level gauges and counters as OpenMetrics, one corpus label per
// resident scenario, with a request-latency histogram per endpoint
// class.
//
// Usage:
//
//	specserved [-addr :8080] [-seed N] [-in FILE] [-no-sweeps] [-sweep-seconds S] [-workers N] [-workspace N]
//	specserved -selftest [-no-sweeps]   # API smoke check over a local listener
//
// Endpoints:
//
//	GET  /healthz
//	GET  /api/v1/report?format=text|html
//	GET  /api/v1/figures                      (index)
//	GET  /api/v1/figures/{id}?format=text|svg
//	GET  /api/v1/metrics/{ep|ee|correlations}
//	GET  /api/v1/servers?year=YYYY&arch=NAME
//	GET  /api/v1/summary
//	POST /api/v1/reload?seed=N
//	GET  /metrics                             (OpenMetrics exposition)
//
// Cached GET endpoints additionally accept ?seed=N and ?servers=M
// (synthetic servers only) to address workspace scenarios.
//
// SIGINT or SIGTERM stops accepting connections and lets in-flight
// requests finish for up to 30 seconds before the process exits.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/verify"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "specserved:", err)
		os.Exit(1)
	}
}

// Connection limits. A client gets readHeaderTimeout to send its
// request headers and may hold an idle keep-alive connection for
// idleTimeout. There is no write timeout: a cold report render runs
// inside the handler before the first byte is written, and with sweeps
// at -sweep-seconds 240 it takes far longer than any bound that would
// still catch a stuck client.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	// shutdownTimeout bounds how long in-flight requests may run once
	// the context is done.
	shutdownTimeout = 30 * time.Second
)

// run serves until ctx is done, then shuts the server down gracefully.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cli.New("specserved",
		"[-addr :8080] [-seed N] [-in FILE] [-no-sweeps] [-sweep-seconds S] [-selftest]",
		"serves the report, figures and metrics over HTTP from a snapshot cache", stderr)
	var (
		addr     = fs.String("addr", ":8080", "listen address")
		seed     = fs.Int64("seed", 1, "seed for the synthetic corpus and the report's hardware sweeps")
		in       = fs.String("in", "", "dataset file (.csv or .json); empty generates the synthetic corpus")
		noSweeps = fs.Bool("no-sweeps", false, "serve the report without the Fig. 18-21 hardware-sweep sections")
		sweepSec = fs.Int("sweep-seconds", 30, "simulated measurement interval for report sweeps (SPEC default 240)")
		workers  = fs.Int("workers", 0, "max parallel workers for renders (0 = all cores); output is identical at any count")
		wsCap    = fs.Int("workspace", 0, "max resident keyed corpus scenarios (LRU-bounded; 0 = default 8)")
		doVerify = fs.Bool("verify", false, "run the structural and metric paper invariants over the snapshot before serving; refuse to start on failure")
		selftest = fs.Bool("selftest", false, "start on a loopback listener, verify the API end to end, exit")
	)
	if done, err := cli.Parse(fs, args, stdout); done || err != nil {
		return err
	}
	if *sweepSec <= 0 {
		return fmt.Errorf("-sweep-seconds %d: want a positive interval", *sweepSec)
	}
	if *wsCap < 0 {
		return fmt.Errorf("-workspace %d: want a non-negative scenario count, or 0 for the default", *wsCap)
	}
	if *workers > 0 {
		defer par.SetMaxWorkers(par.SetMaxWorkers(*workers))
	}

	cfg := serve.Config{Seed: *seed, Sweeps: !*noSweeps, SweepSeconds: *sweepSec, WorkspaceCap: *wsCap}
	if *in != "" {
		rp, err := dataset.ReadPath(*in)
		if err != nil {
			return err
		}
		cfg.Repo = rp
		// File-backed corpora carry their dataset name as the corpus
		// label instead of the synthetic "seed=N".
		cfg.CorpusName = filepath.Base(*in)
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	snap := srv.Snapshot()
	fmt.Fprintf(stderr, "specserved: corpus %d submissions (%d valid), seed %d, sweeps %v\n",
		snap.Repo.Len(), snap.Valid.Len(), snap.Seed, snap.Opts.Sweeps)

	synthetic := *in == ""
	if *doVerify {
		if err := verifySnapshot(srv, synthetic, stderr); err != nil {
			return err
		}
	}

	if *selftest {
		return selfTest(srv, synthetic, stdout)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "specserved: listening on %s\n", ln.Addr())
	return serveHTTP(ctx, ln, srv.Handler(), stderr)
}

// serveHTTP serves h on ln until ctx is done, then stops accepting
// connections and waits up to shutdownTimeout for in-flight requests
// before closing whatever is left.
func serveHTTP(ctx context.Context, ln net.Listener, h http.Handler, stderr io.Writer) error {
	hs := &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stderr, "specserved: shutting down")
	sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), shutdownTimeout)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		hs.Close()
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// verifySnapshot runs the fast invariant categories (structural and
// metric — the differential ones re-render reports and belong to
// specverify) over the server's current snapshot, so a bad corpus is
// refused at startup and a reload can be re-checked live.
func verifySnapshot(srv *serve.Server, synthetic bool, out io.Writer) error {
	snap := srv.Snapshot()
	ctx := verify.SnapshotContext(snap, synthetic)
	rep := verify.Run(ctx, verify.Structural, verify.Metric)
	run, _, failed, _ := rep.Counts()
	if !rep.OK() {
		fmt.Fprint(out, rep.String())
		return fmt.Errorf("snapshot failed %d of %d paper invariants: %s",
			failed, run, strings.Join(rep.FailureNames(), ", "))
	}
	fmt.Fprintf(out, "specserved: snapshot passed %d paper invariants (seed %d)\n", run, snap.Seed)
	return nil
}

// selfTest starts the server on a loopback listener and verifies the
// API surface end to end: byte-identity with the library render, ETag
// revalidation, figure and metric endpoints, a re-verified reload and
// a linted scrape.
func selfTest(srv *serve.Server, synthetic bool, out io.Writer) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 5 * time.Minute}

	// 1. Liveness.
	if err := expectBody(client, base+"/healthz", "ok\n"); err != nil {
		return fmt.Errorf("selftest healthz: %w", err)
	}

	// 2. Cold miss: the first report request renders; time it and pin
	// byte-identity against the library render (what specreport prints
	// for the same corpus, seed and options).
	snap := srv.Snapshot()
	want, err := report.Full(snap.Valid, snap.Opts)
	if err != nil {
		return fmt.Errorf("selftest render: %w", err)
	}
	t0 := time.Now()
	resp, err := client.Get(base + "/api/v1/report")
	if err != nil {
		return fmt.Errorf("selftest report: %w", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	cold := time.Since(t0)
	if err != nil {
		return fmt.Errorf("selftest report: %w", err)
	}
	if string(body) != want {
		return fmt.Errorf("selftest: served report (%d bytes) differs from library render (%d bytes)", len(body), len(want))
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		return fmt.Errorf("selftest: report response has no ETag")
	}
	fmt.Fprintf(out, "report: %d bytes, byte-identical to report.Full, cold miss %s\n", len(body), cold.Round(time.Millisecond))

	// 3. Revalidation: a matching If-None-Match must 304 with no body.
	req, _ := http.NewRequest(http.MethodGet, base+"/api/v1/report", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = client.Do(req)
	if err != nil {
		return fmt.Errorf("selftest revalidate: %w", err)
	}
	n, _ := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified || n != 0 {
		return fmt.Errorf("selftest: revalidation gave %d with %d body bytes, want 304 with 0", resp.StatusCode, n)
	}
	fmt.Fprintln(out, "etag: revalidation returns 304 with empty body")

	// 4. Every figure in both advertised forms, plus the metric and
	// listing endpoints, counting the figures class's requests.
	figureRequests := 0
	for _, id := range report.FigureIDs() {
		if err := expectOK(client, base+"/api/v1/figures/"+id); err != nil {
			return fmt.Errorf("selftest figure %s: %w", id, err)
		}
		figureRequests++
		if report.FigureHasSVG(id) {
			if err := expectOK(client, base+"/api/v1/figures/"+id+"?format=svg"); err != nil {
				return fmt.Errorf("selftest figure %s svg: %w", id, err)
			}
			figureRequests++
		}
	}
	for _, p := range []string{"/api/v1/figures", "/api/v1/metrics/ep", "/api/v1/metrics/ee",
		"/api/v1/metrics/correlations", "/api/v1/servers?year=2016", "/api/v1/summary"} {
		if err := expectOK(client, base+p); err != nil {
			return fmt.Errorf("selftest %s: %w", p, err)
		}
	}
	figureRequests++ // the index
	fmt.Fprintf(out, "figures: %d selectors serve text (chart-backed ones serve SVG)\n", len(report.FigureIDs()))

	// 5. Reload at the same seed over HTTP, then re-run the paper
	// invariants against the live snapshot the swap installed: the
	// served corpus must satisfy them after every reload, and the
	// stable ETag proves the regenerated payload is byte-identical.
	resp, err = client.Post(base+fmt.Sprintf("/api/v1/reload?seed=%d", snap.Seed), "", nil)
	if err != nil {
		return fmt.Errorf("selftest reload: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("selftest reload: status %d", resp.StatusCode)
	}
	if err := verifySnapshot(srv, synthetic, out); err != nil {
		return fmt.Errorf("selftest after reload: %w", err)
	}
	req, _ = http.NewRequest(http.MethodGet, base+"/api/v1/report", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = client.Do(req)
	if err != nil {
		return fmt.Errorf("selftest reload revalidate: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		return fmt.Errorf("selftest: pre-reload ETag gave %d after same-seed reload, want 304", resp.StatusCode)
	}
	fmt.Fprintln(out, "reload: snapshot re-verified, pre-reload ETag still valid")

	// 6. OpenMetrics: every scrape must lint (the strict internal
	// parser is the openmetrics-lint equivalent), cover the corpus,
	// fleet and serve family groups, count the figure requests above in
	// the latency histogram, and — once the per-snapshot gauges are
	// memoized — answer warm in about a millisecond.
	if err := checkScrape(srv, client, base, synthetic, figureRequests, out); err != nil {
		return fmt.Errorf("selftest metrics: %w", err)
	}

	fmt.Fprintln(out, "selftest: ok")
	return nil
}

// checkScrape lints the /metrics exposition with the strict internal
// OpenMetrics parser, asserts the family groups the PR 9 contract
// names, requires the latency histogram to count at least the
// figureRequests the selftest made, exercises a keyed scenario
// (synthetic servers), and measures warm-scrape latency.
func checkScrape(srv *serve.Server, client *http.Client, base string, synthetic bool, figureRequests int, out io.Writer) error {
	if synthetic {
		// Load one keyed scenario first so the scrape spans two corpora.
		// The EP distribution answers for any non-empty fleet; a summary
		// would answer 422 whenever the 64 servers hold no 2016 server.
		if err := expectOK(client, base+fmt.Sprintf("/api/v1/metrics/ep?seed=%d&servers=64", srv.Snapshot().Seed)); err != nil {
			return fmt.Errorf("keyed scenario: %w", err)
		}
	}
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("scrape: status %d, read err %v", resp.StatusCode, err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.ContentType {
		return fmt.Errorf("scrape Content-Type %q", ct)
	}
	fams, err := metrics.Parse(body)
	if err != nil {
		return fmt.Errorf("exposition does not lint: %w", err)
	}
	for _, name := range []string{
		"spec_corpus_servers", "spec_corpus_ep", "spec_corpus_idle_fraction",
		"spec_fleet_ep", "spec_fleet_power_watts", "spec_fleet_active_servers",
		"spec_carbon_intensity_kg_per_kwh", "spec_fleet_carbon_rate_kg_per_hour",
		"spec_fleet_embodied_carbon_rate_kg_per_hour",
		"spec_serve_requests", "spec_serve_request_duration_seconds", "spec_serve_response_cache_entries",
		"spec_workspace_resident", "spec_serve_reload_generation",
	} {
		if metrics.Find(fams, name) == nil {
			return fmt.Errorf("exposition lacks family %s", name)
		}
	}
	duration := metrics.Find(fams, "spec_serve_request_duration_seconds")
	if n, ok := duration.Count(metrics.Label{Name: "endpoint", Value: "figures"}); !ok || n < float64(figureRequests) {
		return fmt.Errorf("latency histogram counts %v figure requests, want at least %d", n, figureRequests)
	}
	corpora := map[string]bool{}
	for _, smp := range metrics.Find(fams, "spec_corpus_servers").Samples {
		for _, l := range smp.Labels {
			if l.Name == "corpus" {
				corpora[l.Value] = true
			}
		}
	}
	if synthetic && len(corpora) < 2 {
		return fmt.Errorf("scrape covers %d corpora, want the default plus the keyed scenario", len(corpora))
	}

	// Warm-scrape latency: every snapshot's gauges are memoized by now,
	// so take the best of a few runs as the steady-state number.
	warm := time.Duration(1 << 62)
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		resp, err := client.Get(base + "/metrics")
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if d := time.Since(t0); d < warm {
			warm = d
		}
	}
	fmt.Fprintf(out, "metrics: %d families over %d corpora lint clean, warm scrape %s\n",
		len(fams), len(corpora), warm.Round(time.Microsecond))
	if warm > 5*time.Millisecond {
		return fmt.Errorf("warm scrape took %s, want about a millisecond", warm)
	}
	return nil
}

// expectOK issues one GET and requires a 200.
func expectOK(client *http.Client, url string) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

// expectBody issues one GET and requires a 200 with the exact body.
func expectBody(client *http.Client, url, want string) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || string(body) != want {
		return fmt.Errorf("status %d body %q, want 200 %q", resp.StatusCode, body, want)
	}
	return nil
}
