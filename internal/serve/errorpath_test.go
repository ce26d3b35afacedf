package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/report"
)

// TestErrorStatuses pins the status code of every malformed-request
// path: unknown figure ids, bad query parameters, unsupported formats,
// and the SVG variant of a text-only figure.
func TestErrorStatuses(t *testing.T) {
	s := newTestServer(t)
	cases := []struct {
		name   string
		target string
		status int
		detail string // substring the error body must carry
	}{
		{"unknown figure id", "/api/v1/figures/99", http.StatusNotFound, "unknown figure"},
		{"figure id with junk", "/api/v1/figures/3x", http.StatusNotFound, "unknown figure"},
		{"bad figure format", "/api/v1/figures/3?format=png", http.StatusBadRequest, "unknown format"},
		{"bad report format", "/api/v1/report?format=pdf", http.StatusBadRequest, "unknown format"},
		{"unknown metric", "/api/v1/metrics/entropy", http.StatusNotFound, "unknown metric"},
		{"bad servers year", "/api/v1/servers?year=twenty", http.StatusBadRequest, "bad year"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := get(t, s, tc.target, nil)
			if w.Code != tc.status {
				t.Fatalf("GET %s: status %d, want %d", tc.target, w.Code, tc.status)
			}
			if !strings.Contains(w.Body.String(), tc.detail) {
				t.Errorf("GET %s: body %q missing %q", tc.target, w.Body.String(), tc.detail)
			}
		})
	}
}

// TestTooSmallScenarioIs422: a keyed scenario whose corpus is too small
// to analyze is a well-formed request the corpus cannot answer — 422
// with the analysis message, not 500 — while the smallest keyed fleet
// the serve benchmark asks for (128 servers) still renders.
func TestTooSmallScenarioIs422(t *testing.T) {
	s := newSyntheticServer(t, Config{Seed: testSeed})
	for _, tc := range []struct {
		target string
		status int
		detail string // substring the error body must carry
	}{
		{"/api/v1/report?servers=64", http.StatusUnprocessableEntity, "analysis: no year with ≥ 30 servers"},
		{"/api/v1/summary?seed=6&servers=16", http.StatusUnprocessableEntity, "analysis: era 2013-2016 has only 1 servers"},
		// No 2016 server among the first 147 of the seed-1 fleet.
		{"/api/v1/figures/1?servers=16", http.StatusUnprocessableEntity, "report: no 2016 sample server for Fig. 1"},
		{"/api/v1/figures/1?servers=16&format=svg", http.StatusUnprocessableEntity, "report: no 2016 sample server for Fig. 1"},
		// One valid server has no correlations.
		{"/api/v1/report?servers=1", http.StatusUnprocessableEntity, "analysis: correlations need at least 2 servers"},
		{"/api/v1/report?servers=1&format=html", http.StatusUnprocessableEntity, "analysis: correlations need at least 2 servers"},
		{"/api/v1/summary?servers=1", http.StatusUnprocessableEntity, "analysis: correlations need at least 2 servers"},
		{"/api/v1/metrics/correlations?servers=1", http.StatusUnprocessableEntity, "analysis: correlations need at least 2 servers"},
		// A metric with no variance leaves a coefficient undefined (NaN).
		{"/api/v1/metrics/correlations?seed=3&servers=2", http.StatusUnprocessableEntity, "a metric has no variance"},
		// Every 2013-2016 server shares one hardware year: no rate.
		{"/api/v1/summary?seed=6&servers=24", http.StatusUnprocessableEntity, "analysis: era 2013-2016 servers all date from 2013"},
		{"/api/v1/figures/e6?seed=6&servers=24", http.StatusUnprocessableEntity, "analysis: era 2013-2016 servers all date from 2013"},
		{"/api/v1/summary?servers=160", http.StatusOK, ""},
		{"/api/v1/metrics/ep?servers=160", http.StatusOK, ""},
	} {
		w := get(t, s, tc.target, nil)
		if w.Code != tc.status {
			t.Errorf("GET %s: status %d, want %d: %s", tc.target, w.Code, tc.status, w.Body.String())
			continue
		}
		if !strings.Contains(w.Body.String(), tc.detail) {
			t.Errorf("GET %s: body %q missing %q", tc.target, w.Body.String(), tc.detail)
		}
	}
}

// TestTextOnlyFigureSVGIs406 finds a figure without an SVG variant and
// requires the 406 mapping of report.ErrNoSVG.
func TestTextOnlyFigureSVGIs406(t *testing.T) {
	s := newTestServer(t)
	var id string
	for _, candidate := range report.FigureIDs() {
		if !report.FigureHasSVG(candidate) {
			id = candidate
			break
		}
	}
	if id == "" {
		t.Skip("every figure has an SVG variant")
	}
	w := get(t, s, "/api/v1/figures/"+id+"?format=svg", nil)
	if w.Code != http.StatusNotAcceptable {
		t.Fatalf("svg of text-only figure %s: status %d, want 406", id, w.Code)
	}
}

// TestReloadRejectsBadSeed pins the 400 path of the reload endpoint and
// that a failed reload leaves the serving snapshot untouched.
func TestReloadRejectsBadSeed(t *testing.T) {
	s := newTestServer(t)
	before := s.Snapshot()
	w := post(t, s, "/api/v1/reload?seed=banana")
	if w.Code != http.StatusBadRequest {
		t.Fatalf("reload with bad seed: status %d, want 400", w.Code)
	}
	if s.Snapshot() != before {
		t.Error("failed reload swapped the snapshot")
	}
}

// TestReloadUnderConcurrentReads hammers the report and figure
// endpoints while reloads swap snapshots, requiring every response to
// be a fully consistent payload from one generation or another. Run
// with -race this also proves the snapshot swap publishes safely.
func TestReloadUnderConcurrentReads(t *testing.T) {
	s := newTestServer(t)
	want, err := report.Full(s.Snapshot().Valid, s.Snapshot().Opts)
	if err != nil {
		t.Fatal(err)
	}

	const readers = 8
	const reads = 40
	stop := make(chan struct{})
	reloaderDone := make(chan struct{})

	go func() { // reloader: swap generations as fast as the readers read
		defer close(reloaderDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			w := post(t, s, fmt.Sprintf("/api/v1/reload?seed=%d", testSeed))
			if w.Code != http.StatusOK {
				t.Errorf("reload %d: status %d", i, w.Code)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				w := get(t, s, "/api/v1/report", nil)
				if w.Code != http.StatusOK {
					t.Errorf("report read: status %d", w.Code)
					return
				}
				// The server is file-backed, so every generation serves
				// the same corpus: each response must be the complete,
				// untorn render.
				if w.Body.String() != want {
					t.Errorf("read %d: torn or divergent report (%d bytes, want %d)",
						i, w.Body.Len(), len(want))
					return
				}
				if fw := get(t, s, "/api/v1/figures/3", nil); fw.Code != http.StatusOK {
					t.Errorf("figure read: status %d", fw.Code)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-reloaderDone
}

// post performs one in-process POST against the server's handler.
func post(t testing.TB, s *Server, target string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, target, nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

// TestGzipThreshold pins the 512-byte gzip boundary at the cache layer:
// a body one byte under the threshold gets no gzip variant, at the
// threshold (when compression pays) it gets one, and writeEntry serves
// the correct variant per Accept-Encoding.
func TestGzipThreshold(t *testing.T) {
	small := strings.Repeat("a", gzipMinBytes-1)
	large := strings.Repeat("a", gzipMinBytes)

	var c Cache
	entSmall, _, err := c.Get("small", func() ([]byte, string, error) {
		return []byte(small), "text/plain", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if entSmall.Gzip != nil {
		t.Errorf("%d-byte body (below %d threshold) got a gzip variant", len(small), gzipMinBytes)
	}
	entLarge, _, err := c.Get("large", func() ([]byte, string, error) {
		return []byte(large), "text/plain", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if entLarge.Gzip == nil {
		t.Fatalf("%d-byte compressible body (at threshold) got no gzip variant", len(large))
	}
	if len(entLarge.Gzip) >= len(entLarge.Body) {
		t.Errorf("gzip variant (%d bytes) not smaller than body (%d bytes)", len(entLarge.Gzip), len(entLarge.Body))
	}
}

// TestGzipThresholdOverHTTP drives the same boundary end to end through
// a handler: the under-threshold response must be identity-encoded even
// for a gzip-accepting client.
func TestGzipThresholdOverHTTP(t *testing.T) {
	s := newTestServer(t)
	gzHeader := http.Header{"Accept-Encoding": {"gzip"}}

	// healthz is tiny and uncached: always identity.
	w := get(t, s, "/healthz", gzHeader)
	if enc := w.Header().Get("Content-Encoding"); enc != "" {
		t.Errorf("healthz Content-Encoding %q, want identity", enc)
	}
	// The report is far above the threshold: gzip for accepting clients,
	// identity otherwise, same ETag both ways.
	wGz := get(t, s, "/api/v1/report", gzHeader)
	if enc := wGz.Header().Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("report Content-Encoding %q for gzip client, want gzip", enc)
	}
	wId := get(t, s, "/api/v1/report", nil)
	if enc := wId.Header().Get("Content-Encoding"); enc != "" {
		t.Fatalf("report Content-Encoding %q for identity client, want none", enc)
	}
	if wGz.Header().Get("ETag") != wId.Header().Get("ETag") {
		t.Error("ETag differs between encodings of the same entry")
	}
	if wGz.Body.Len() >= wId.Body.Len() {
		t.Errorf("gzip response (%d bytes) not smaller than identity (%d bytes)", wGz.Body.Len(), wId.Body.Len())
	}
}
