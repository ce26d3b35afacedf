package serve

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/synth"
)

// testSeed fixes the corpus every test serves.
const testSeed = 1

var (
	corpusOnce sync.Once
	corpusRepo *dataset.Repository
	corpusErr  error
)

// corpus returns the shared synthetic corpus; results are immutable so
// every test server can serve the same repository.
func corpus(t testing.TB) *dataset.Repository {
	t.Helper()
	corpusOnce.Do(func() {
		corpusRepo, corpusErr = synth.NewRepository(synth.Config{Seed: testSeed})
	})
	if corpusErr != nil {
		t.Fatalf("synthesize corpus: %v", corpusErr)
	}
	return corpusRepo
}

// newTestServer builds a sweepless server over the shared corpus.
func newTestServer(t testing.TB) *Server {
	t.Helper()
	s, err := New(Config{Seed: testSeed, Repo: corpus(t)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// get performs one in-process request against the server's handler.
func get(t testing.TB, s *Server, target string, header http.Header) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, target, nil)
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

// TestReportGolden pins the acceptance contract: the report endpoint's
// bytes equal report.Full's output for the same corpus and options —
// what specreport prints for the same seed.
func TestReportGolden(t *testing.T) {
	s := newTestServer(t)
	want, err := report.Full(corpus(t).Valid(), report.Options{Seed: testSeed})
	if err != nil {
		t.Fatalf("report.Full: %v", err)
	}

	w := get(t, s, "/api/v1/report", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, body %q", w.Code, w.Body.String())
	}
	if got := w.Body.String(); got != want {
		t.Fatalf("served report differs from report.Full output (%d vs %d bytes)", len(got), len(want))
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain", ct)
	}
	// The second request must be a cache hit serving identical bytes.
	w2 := get(t, s, "/api/v1/report", nil)
	if w2.Body.String() != want {
		t.Fatal("warm hit served different bytes")
	}
	st := s.Snapshot().Cache().Stats()
	if st.Hits < 1 || st.Entries != 1 {
		t.Fatalf("cache stats after two requests = %+v, want >=1 hit and 1 entry", st)
	}
}

// TestReportHTMLGolden does the same for the HTML form.
func TestReportHTMLGolden(t *testing.T) {
	s := newTestServer(t)
	want, err := report.FullHTML(corpus(t).Valid(), report.Options{Seed: testSeed})
	if err != nil {
		t.Fatalf("report.FullHTML: %v", err)
	}
	w := get(t, s, "/api/v1/report?format=html", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if w.Body.String() != want {
		t.Fatal("served HTML report differs from report.FullHTML output")
	}
}

// TestReportETagRevalidation: a matching If-None-Match returns 304 with
// an empty body; a stale one returns the full entity again.
func TestReportETagRevalidation(t *testing.T) {
	s := newTestServer(t)
	w := get(t, s, "/api/v1/report", nil)
	etag := w.Header().Get("ETag")
	if etag == "" || !strings.HasPrefix(etag, `"`) {
		t.Fatalf("missing or weak ETag %q", etag)
	}

	w304 := get(t, s, "/api/v1/report", http.Header{"If-None-Match": {etag}})
	if w304.Code != http.StatusNotModified {
		t.Fatalf("revalidation status %d, want 304", w304.Code)
	}
	if w304.Body.Len() != 0 {
		t.Fatalf("304 carried %d body bytes, want 0", w304.Body.Len())
	}
	if got := w304.Header().Get("ETag"); got != etag {
		t.Fatalf("304 ETag %q, want %q", got, etag)
	}

	wStale := get(t, s, "/api/v1/report", http.Header{"If-None-Match": {`"deadbeef"`}})
	if wStale.Code != http.StatusOK || wStale.Body.Len() == 0 {
		t.Fatalf("stale revalidation = %d with %d bytes, want 200 with entity", wStale.Code, wStale.Body.Len())
	}

	// List and wildcard forms match too.
	for _, h := range []string{`"deadbeef", ` + etag, "*", "W/" + etag} {
		if w := get(t, s, "/api/v1/report", http.Header{"If-None-Match": {h}}); w.Code != http.StatusNotModified {
			t.Fatalf("If-None-Match %q gave %d, want 304", h, w.Code)
		}
	}
}

// TestCacheCoalescesConcurrentMisses pins the acceptance criterion that
// N concurrent identical misses trigger exactly one render. The render
// is gated open only after every other caller is provably blocked on
// the same flight, so the count is deterministic.
func TestCacheCoalescesConcurrentMisses(t *testing.T) {
	const callers = 32
	var (
		c       Cache
		renders atomic.Int64
		gate    = make(chan struct{})
		ready   = make(chan struct{})
		wg      sync.WaitGroup
	)
	render := func() ([]byte, string, error) {
		renders.Add(1)
		close(ready)
		<-gate
		return []byte("payload"), "text/plain", nil
	}
	do := func() {
		defer wg.Done()
		e, _, err := c.Get("k", render)
		if err != nil || string(e.Body) != "payload" {
			t.Errorf("Get = (%v, %v)", e, err)
		}
	}
	wg.Add(1)
	go do()
	<-ready
	for i := 1; i < callers; i++ {
		wg.Add(1)
		go do()
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.flight.Waiters("k") < callers-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d waiters joined", c.flight.Waiters("k"))
		}
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if got := renders.Load(); got != 1 {
		t.Fatalf("%d concurrent misses rendered %d times, want exactly 1", callers, got)
	}
	st := c.Stats()
	if st.Entries != 1 || st.Misses != callers {
		t.Fatalf("stats = %+v, want 1 entry and %d misses", st, callers)
	}
	// Everyone after the fill is a pure hit.
	if _, hit, _ := c.Get("k", render); !hit {
		t.Fatal("post-fill Get was not a hit")
	}
}

// TestConcurrentReportRequests exercises the full HTTP path under
// concurrency on a cold cache: every response carries identical bytes
// and exactly one cache entry exists afterwards.
func TestConcurrentReportRequests(t *testing.T) {
	s := newTestServer(t)
	const clients = 16
	bodies := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := get(t, s, "/api/v1/report", nil)
			if w.Code != http.StatusOK {
				t.Errorf("client %d: status %d", i, w.Code)
			}
			bodies[i] = w.Body.String()
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("client %d saw different bytes", i)
		}
	}
	if st := s.Snapshot().Cache().Stats(); st.Entries != 1 {
		t.Fatalf("cache holds %d entries after identical concurrent requests, want 1", st.Entries)
	}
}

// TestFigureEndpoints covers both figure forms plus the error paths.
func TestFigureEndpoints(t *testing.T) {
	s := newTestServer(t)
	valid := corpus(t).Valid()

	wantText, err := report.Figure(valid, "3")
	if err != nil {
		t.Fatalf("report.Figure: %v", err)
	}
	if w := get(t, s, "/api/v1/figures/3", nil); w.Code != http.StatusOK || w.Body.String() != wantText {
		t.Fatalf("figure 3 text: status %d, match=%v", w.Code, w.Body.String() == wantText)
	}

	w := get(t, s, "/api/v1/figures/3?format=svg", nil)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "<svg") {
		t.Fatalf("figure 3 svg: status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "image/svg+xml" {
		t.Fatalf("svg Content-Type = %q", ct)
	}

	if w := get(t, s, "/api/v1/figures/nope", nil); w.Code != http.StatusNotFound {
		t.Fatalf("unknown figure: status %d, want 404", w.Code)
	}
	// Figure 17 is table-only: its SVG form is 406.
	if w := get(t, s, "/api/v1/figures/17?format=svg", nil); w.Code != http.StatusNotAcceptable {
		t.Fatalf("text-only figure as svg: status %d, want 406", w.Code)
	}
	if w := get(t, s, "/api/v1/figures/3?format=png", nil); w.Code != http.StatusBadRequest {
		t.Fatalf("bad format: status %d, want 400", w.Code)
	}

	// The index lists every registry selector with its SVG capability.
	var index []struct {
		ID    string `json:"id"`
		Title string `json:"title"`
		SVG   bool   `json:"svg"`
	}
	w = get(t, s, "/api/v1/figures", nil)
	if err := json.Unmarshal(w.Body.Bytes(), &index); err != nil {
		t.Fatalf("figure index: %v", err)
	}
	if len(index) != len(report.FigureIDs()) {
		t.Fatalf("index lists %d figures, want %d", len(index), len(report.FigureIDs()))
	}
}

// TestMetricsEndpoints sanity-checks the JSON metric payloads.
func TestMetricsEndpoints(t *testing.T) {
	s := newTestServer(t)
	for _, metric := range []string{"ep", "ee"} {
		var out struct {
			Metric  string `json:"metric"`
			Summary struct {
				N      int     `json:"N"`
				Median float64 `json:"Median"`
			} `json:"summary"`
			Yearly []struct {
				Year int `json:"year"`
				N    int `json:"n"`
			} `json:"yearly"`
		}
		w := get(t, s, "/api/v1/metrics/"+metric, nil)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d", metric, w.Code)
		}
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
			t.Fatalf("%s: %v", metric, err)
		}
		if out.Metric != metric || out.Summary.N == 0 || len(out.Yearly) == 0 {
			t.Fatalf("%s: empty payload %+v", metric, out)
		}
	}
	var corr struct {
		EPvsOverallEE    float64
		EPvsIdleFraction float64
		N                int
	}
	w := get(t, s, "/api/v1/metrics/correlations", nil)
	if err := json.Unmarshal(w.Body.Bytes(), &corr); err != nil {
		t.Fatalf("correlations: %v", err)
	}
	if corr.N == 0 || corr.EPvsOverallEE <= 0 || corr.EPvsIdleFraction >= 0 {
		t.Fatalf("correlations payload implausible: %+v", corr)
	}
	if w := get(t, s, "/api/v1/metrics/nope", nil); w.Code != http.StatusNotFound {
		t.Fatalf("unknown metric: status %d, want 404", w.Code)
	}
}

// TestServersFilter checks the year/arch filters against the corpus.
func TestServersFilter(t *testing.T) {
	s := newTestServer(t)
	var all, y2016 []serverJSON
	if err := json.Unmarshal(get(t, s, "/api/v1/servers", nil).Body.Bytes(), &all); err != nil {
		t.Fatalf("servers: %v", err)
	}
	valid := corpus(t).Valid()
	if len(all) != valid.Len() {
		t.Fatalf("unfiltered listing has %d servers, corpus has %d valid", len(all), valid.Len())
	}
	if err := json.Unmarshal(get(t, s, "/api/v1/servers?year=2016", nil).Body.Bytes(), &y2016); err != nil {
		t.Fatalf("servers?year: %v", err)
	}
	want := valid.YearRange(2016, 2016).Len()
	if len(y2016) != want || want == 0 {
		t.Fatalf("year=2016 listing has %d servers, want %d (nonzero)", len(y2016), want)
	}
	for _, sv := range y2016 {
		if sv.HWAvailYear != 2016 {
			t.Fatalf("year filter leaked %+v", sv)
		}
	}
	var haswell []serverJSON
	if err := json.Unmarshal(get(t, s, "/api/v1/servers?arch=haswell", nil).Body.Bytes(), &haswell); err != nil {
		t.Fatalf("servers?arch: %v", err)
	}
	if len(haswell) == 0 || len(haswell) >= len(all) {
		t.Fatalf("arch=haswell matched %d of %d", len(haswell), len(all))
	}
	for _, sv := range haswell {
		if !strings.EqualFold(sv.Codename, "haswell") && !strings.EqualFold(sv.Family, "haswell") {
			t.Fatalf("arch filter leaked %+v", sv)
		}
	}
	if w := get(t, s, "/api/v1/servers?year=x", nil); w.Code != http.StatusBadRequest {
		t.Fatalf("bad year: status %d, want 400", w.Code)
	}
}

// TestGzipNegotiation: clients advertising gzip get the pre-compressed
// variant; the bytes must decompress to the identity body.
func TestGzipNegotiation(t *testing.T) {
	s := newTestServer(t)
	plain := get(t, s, "/api/v1/report", nil)
	if enc := plain.Header().Get("Content-Encoding"); enc != "" {
		t.Fatalf("identity response had Content-Encoding %q", enc)
	}
	gz := get(t, s, "/api/v1/report", http.Header{"Accept-Encoding": {"gzip"}})
	if enc := gz.Header().Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("gzip response had Content-Encoding %q", enc)
	}
	if gz.Body.Len() >= plain.Body.Len() {
		t.Fatalf("gzip variant (%d B) not smaller than identity (%d B)", gz.Body.Len(), plain.Body.Len())
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz.Body.Bytes()))
	if err != nil {
		t.Fatalf("gzip reader: %v", err)
	}
	decoded, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gunzip: %v", err)
	}
	if !bytes.Equal(decoded, plain.Body.Bytes()) {
		t.Fatal("gzip variant does not decompress to the identity body")
	}
}

// TestReloadSwapsSnapshot: a reload must swap in a fresh generation
// with an empty cache while readers of the old snapshot stay valid.
func TestReloadSwapsSnapshot(t *testing.T) {
	s := newTestServer(t)
	before := s.Snapshot()
	get(t, s, "/api/v1/figures/3", nil)
	if before.Cache().Stats().Entries == 0 {
		t.Fatal("warm-up did not fill the old snapshot's cache")
	}

	req := httptest.NewRequest(http.MethodPost, "/api/v1/reload?seed=7", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("reload status %d: %s", w.Code, w.Body.String())
	}

	after := s.Snapshot()
	if after == before {
		t.Fatal("reload did not swap the snapshot")
	}
	if after.Seed != 7 {
		t.Fatalf("new snapshot seed %d, want 7", after.Seed)
	}
	if after.Cache().Stats().Entries != 0 {
		t.Fatal("new snapshot inherited cache entries")
	}
	// The old generation still serves the readers that hold it.
	if ent := before.Cache().Peek("figure\x003\x00text"); ent == nil || len(ent.Body) == 0 {
		t.Fatal("old snapshot lost its cached entry after the swap")
	}
	if w := get(t, s, "/healthz", nil); w.Code != http.StatusOK || w.Body.String() != "ok\n" {
		t.Fatalf("healthz after reload: %d %q", w.Code, w.Body.String())
	}
}

// TestEndpointRequestMetrics: /metrics reports the traffic each
// endpoint class observed — its request counters and its latency
// histogram.
func TestEndpointRequestMetrics(t *testing.T) {
	s := newTestServer(t)
	get(t, s, "/api/v1/figures/3", nil) // miss
	get(t, s, "/api/v1/figures/3", nil) // hit
	fams := scrape(t, s)
	figures := metrics.Label{Name: "endpoint", Value: "figures"}
	for name, want := range map[string]float64{
		"spec_serve_requests":       2,
		"spec_serve_cache_hits":     1,
		"spec_serve_cache_misses":   1,
		"spec_serve_request_errors": 0,
	} {
		if v, ok := metrics.Find(fams, name).Value(figures); !ok || v != want {
			t.Errorf("%s{figures} = %v/%v, want %v", name, v, ok, want)
		}
	}
	duration := metrics.Find(fams, "spec_serve_request_duration_seconds")
	if n, ok := duration.Count(figures); !ok || n != 2 {
		t.Errorf("request duration count{figures} = %v/%v, want 2", n, ok)
	}
	if sum, _ := duration.Value(figures); !(sum > 0) {
		t.Errorf("request duration sum{figures} = %v, want positive", sum)
	}
	entries := metrics.Find(fams, "spec_serve_response_cache_entries")
	if v, ok := entries.Value(metrics.Label{Name: "corpus", Value: "seed=1"}); !ok || v != 1 {
		t.Errorf("cache entries = %v/%v, want 1", v, ok)
	}
}

// TestEndpointStatsBuckets: a request lands in the first bucket whose
// upper bound is at least its latency, the +Inf bucket takes what no
// finite bound covers, and recording a request does not allocate.
func TestEndpointStatsBuckets(t *testing.T) {
	var e endpointStats
	for _, d := range []time.Duration{
		0, 400 * time.Microsecond, time.Millisecond, 1001 * time.Microsecond, 10 * time.Second, time.Minute,
	} {
		e.observe(d, false, false)
	}
	want := map[float64]uint64{0.0005: 2, 0.001: 1, 0.0025: 1, 10: 1, math.Inf(1): 1}
	for i, bound := range latencyBounds {
		if e.buckets[i] != want[bound] {
			t.Errorf("bucket le=%v holds %d, want %d", bound, e.buckets[i], want[bound])
		}
	}
	if n := testing.AllocsPerRun(100, func() { e.observe(time.Millisecond, true, false) }); n != 0 {
		t.Errorf("observe allocates %v objects per request", n)
	}
}

// TestSummaryEndpoint: the JSON summary equals the library render.
func TestSummaryEndpoint(t *testing.T) {
	s := newTestServer(t)
	want, err := report.MarshalJSONSummary(corpus(t))
	if err != nil {
		t.Fatalf("MarshalJSONSummary: %v", err)
	}
	w := get(t, s, "/api/v1/summary", nil)
	if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatalf("summary: status %d, match=%v", w.Code, bytes.Equal(w.Body.Bytes(), want))
	}
}

// figureIndexDigest pins the /api/v1/figures body: every selector, its
// title and its SVG capability, in FigureIDs order.
const figureIndexDigest = "c5204cc0222af5e5cdf53143fb8915829d3f09e8bd219ff451acb544a0719519"

func TestFigureIndexGolden(t *testing.T) {
	w := get(t, newTestServer(t), "/api/v1/figures", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(w.Body.Bytes())); got != figureIndexDigest {
		t.Errorf("figure index digest = %s, want %s (body drifted):\n%s", got, figureIndexDigest, w.Body.String())
	}
}
