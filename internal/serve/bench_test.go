package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// benchRequest issues one in-process request, failing the benchmark on
// a non-2xx/304 status.
func benchRequest(b *testing.B, s *Server, target string, header http.Header) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, target, nil)
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK && w.Code != http.StatusNotModified {
		b.Fatalf("%s: status %d", target, w.Code)
	}
	return w
}

// BenchmarkReportColdMiss measures the first-request path: a full
// report render into a fresh snapshot cache. Reload swaps in an empty
// cache between iterations; the corpus and its metric memos are shared,
// so this isolates render + cache-fill cost.
func BenchmarkReportColdMiss(b *testing.B) {
	s, err := New(Config{Seed: testSeed, Repo: corpus(b)})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, err := s.Reload(testSeed); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		benchRequest(b, s, "/api/v1/report", nil)
	}
}

// BenchmarkReportWarmHit measures the steady-state hot path: cached
// bytes served with ETag and headers, no rendering.
func BenchmarkReportWarmHit(b *testing.B) {
	s, err := New(Config{Seed: testSeed, Repo: corpus(b)})
	if err != nil {
		b.Fatal(err)
	}
	benchRequest(b, s, "/api/v1/report", nil) // fill
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRequest(b, s, "/api/v1/report", nil)
	}
}

// BenchmarkReportWarm304 measures revalidation: a matching
// If-None-Match serves no body at all.
func BenchmarkReportWarm304(b *testing.B) {
	s, err := New(Config{Seed: testSeed, Repo: corpus(b)})
	if err != nil {
		b.Fatal(err)
	}
	etag := benchRequest(b, s, "/api/v1/report", nil).Header().Get("ETag")
	header := http.Header{"If-None-Match": {etag}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRequest(b, s, "/api/v1/report", header)
	}
}

// BenchmarkReportWarmGzip serves the pre-compressed variant.
func BenchmarkReportWarmGzip(b *testing.B) {
	s, err := New(Config{Seed: testSeed, Repo: corpus(b)})
	if err != nil {
		b.Fatal(err)
	}
	header := http.Header{"Accept-Encoding": {"gzip"}}
	benchRequest(b, s, "/api/v1/report", header)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRequest(b, s, "/api/v1/report", header)
	}
}

// BenchmarkFigureWarmHit measures a small cached payload (Fig. 3 text).
func BenchmarkFigureWarmHit(b *testing.B) {
	s, err := New(Config{Seed: testSeed, Repo: corpus(b)})
	if err != nil {
		b.Fatal(err)
	}
	benchRequest(b, s, "/api/v1/figures/3", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRequest(b, s, "/api/v1/figures/3", nil)
	}
}

// BenchmarkMetricsScrapeWarm measures the steady-state /metrics path:
// the per-snapshot corpus and fleet gauges are memoized, so each
// scrape only snapshots live counters, assembles samples and writes
// the exposition text. This is the number the PR 9 acceptance bound
// (warm scrape <= 1 ms on the seed-1 corpus) pins.
func BenchmarkMetricsScrapeWarm(b *testing.B) {
	s, err := New(Config{Seed: testSeed, Repo: corpus(b)})
	if err != nil {
		b.Fatal(err)
	}
	benchRequest(b, s, "/metrics", nil) // build the memoized gauges
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRequest(b, s, "/metrics", nil)
	}
}

// BenchmarkMetricsScrapeAfterTraffic measures a warm /metrics scrape
// once each cheap endpoint class has served 4,096 requests: a scrape
// reads every class's live request accounting, so its cost must not
// grow with the traffic served. Reloads and scrapes are left out of
// the traffic because each one costs a snapshot rebuild or a scrape.
func BenchmarkMetricsScrapeAfterTraffic(b *testing.B) {
	s, err := New(Config{Seed: testSeed, Repo: corpus(b)})
	if err != nil {
		b.Fatal(err)
	}
	for _, target := range []string{"/healthz", "/api/v1/report", "/api/v1/figures/3",
		"/api/v1/metrics/ep", "/api/v1/servers?year=2016", "/api/v1/summary"} {
		for i := 0; i < 4096; i++ {
			benchRequest(b, s, target, nil)
		}
	}
	benchRequest(b, s, "/metrics", nil) // build the memoized gauges
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRequest(b, s, "/metrics", nil)
	}
}

// BenchmarkMetricsScrapeMultiCorpus measures a warm scrape over a
// populated workspace: the default corpus plus three keyed fleet
// scenarios, every family carrying four corpus label values.
func BenchmarkMetricsScrapeMultiCorpus(b *testing.B) {
	s, err := New(Config{Seed: testSeed})
	if err != nil {
		b.Fatal(err)
	}
	for _, servers := range []int{64, 96, 128} {
		if _, err := s.Workspace().Get(Key{Seed: testSeed, Servers: servers}); err != nil {
			b.Fatal(err)
		}
	}
	benchRequest(b, s, "/metrics", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRequest(b, s, "/metrics", nil)
	}
}

// BenchmarkKeyedSummaryWarm measures the keyed warm path: one
// workspace hit (LRU touch under the mutex) on top of the byte-cache
// hit the unkeyed path pays.
func BenchmarkKeyedSummaryWarm(b *testing.B) {
	s, err := New(Config{Seed: testSeed})
	if err != nil {
		b.Fatal(err)
	}
	benchRequest(b, s, "/api/v1/summary?servers=64", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRequest(b, s, "/api/v1/summary?servers=64", nil)
	}
}
