package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/stats"
)

// newSyntheticServer builds a seed-backed server: unlike newTestServer
// it owns no pre-loaded repository, so the keyed ?seed=/?servers=
// selectors are live.
func newSyntheticServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// scrape fetches and lints one /metrics exposition.
func scrape(t testing.TB, s *Server) []metrics.Family {
	t.Helper()
	w := get(t, s, "/metrics", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("scrape status %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != metrics.ContentType {
		t.Fatalf("scrape Content-Type %q, want %q", ct, metrics.ContentType)
	}
	fams, err := metrics.Parse(w.Body.Bytes())
	if err != nil {
		t.Fatalf("scrape does not lint: %v\n%s", err, w.Body.String())
	}
	return fams
}

// corpusLabels collects the distinct corpus label values of a family.
func corpusLabels(f *metrics.Family) map[string]bool {
	out := map[string]bool{}
	if f == nil {
		return out
	}
	for _, smp := range f.Samples {
		for _, l := range smp.Labels {
			if l.Name == "corpus" {
				out[l.Value] = true
			}
		}
	}
	return out
}

// checkExposition asserts the internal consistency every scrape must
// hold, torn or not: each corpus's family values come from one
// immutable snapshot, so subset counts nest and distribution stats are
// ordered; and each endpoint class's counters and latency histogram
// are read together, so its histogram counts exactly its requests.
func checkExposition(t testing.TB, fams []metrics.Family) {
	t.Helper()
	requests := metrics.Find(fams, "spec_serve_requests")
	duration := metrics.Find(fams, "spec_serve_request_duration_seconds")
	if requests == nil || duration == nil || len(duration.Samples) != len(requests.Samples) {
		t.Error("exposition lacks a request counter or latency histogram per endpoint class")
		return
	}
	for _, smp := range duration.Samples {
		n, _ := requests.Value(smp.Labels...)
		if c, _ := duration.Count(smp.Labels...); c != n {
			t.Errorf("%v: latency histogram counts %v requests, the request counter %v", smp.Labels, c, n)
		}
	}
	servers := metrics.Find(fams, "spec_corpus_servers")
	if servers == nil {
		t.Fatal("exposition lacks spec_corpus_servers")
	}
	for corpus := range corpusLabels(servers) {
		c := metrics.Label{Name: "corpus", Value: corpus}
		all, ok1 := servers.Value(c, metrics.Label{Name: "subset", Value: "all"})
		valid, ok2 := servers.Value(c, metrics.Label{Name: "subset", Value: "valid"})
		if !ok1 || !ok2 || valid > all || all <= 0 {
			t.Fatalf("corpus %q: servers all=%v(%v) valid=%v(%v)", corpus, all, ok1, valid, ok2)
		}
		// Keyed fleet scenarios must report exactly the fleet size their
		// key names — a scrape mixing snapshot generations would not.
		var keyed int
		if n, _ := fmt.Sscanf(corpus[strings.LastIndex(corpus, "=")+1:], "%d", &keyed); n == 1 && strings.Contains(corpus, "servers=") {
			if all != float64(keyed) {
				t.Fatalf("corpus %q reports %v servers, key names %d", corpus, all, keyed)
			}
		}
	}
	if ep := metrics.Find(fams, "spec_corpus_ep"); ep != nil {
		for corpus := range corpusLabels(ep) {
			c := metrics.Label{Name: "corpus", Value: corpus}
			min, _ := ep.Value(c, metrics.Label{Name: "stat", Value: "min"})
			mean, _ := ep.Value(c, metrics.Label{Name: "stat", Value: "mean"})
			max, _ := ep.Value(c, metrics.Label{Name: "stat", Value: "max"})
			if !(min <= mean && mean <= max) {
				t.Fatalf("corpus %q: ep min=%v mean=%v max=%v not ordered", corpus, min, mean, max)
			}
		}
	}
}

// TestScrapeExposition: the exposition lints, covers the corpus, fleet
// and serve family groups, and its gauge values equal the library
// computations on the served snapshot.
func TestScrapeExposition(t *testing.T) {
	s := newSyntheticServer(t, Config{Seed: testSeed})
	fams := scrape(t, s)
	checkExposition(t, fams)

	snap := s.Snapshot()
	c := metrics.Label{Name: "corpus", Value: "seed=1"}
	servers := metrics.Find(fams, "spec_corpus_servers")
	if v, ok := servers.Value(c, metrics.Label{Name: "subset", Value: "all"}); !ok || v != float64(snap.Repo.Len()) {
		t.Fatalf("servers{all} = %v/%v, want %d", v, ok, snap.Repo.Len())
	}
	if v, ok := servers.Value(c, metrics.Label{Name: "subset", Value: "valid"}); !ok || v != float64(snap.Valid.Len()) {
		t.Fatalf("servers{valid} = %v/%v, want %d", v, ok, snap.Valid.Len())
	}
	sum, err := stats.Describe(snap.Valid.EPs())
	if err != nil {
		t.Fatalf("Describe: %v", err)
	}
	ep := metrics.Find(fams, "spec_corpus_ep")
	if v, ok := ep.Value(c, metrics.Label{Name: "stat", Value: "mean"}); !ok || v != sum.Mean {
		t.Fatalf("ep{mean} = %v/%v, want %v", v, ok, sum.Mean)
	}

	power := metrics.Find(fams, "spec_fleet_power_watts")
	if power == nil || power.Unit != "watts" {
		t.Fatalf("spec_fleet_power_watts missing or unitless: %+v", power)
	}
	if got, want := len(power.Samples), 4*4; got != want { // policies x demand points
		t.Fatalf("fleet power has %d samples, want %d", got, want)
	}
	// The carbon families price the fleet at the reference grid: the
	// operational rate must equal watts/1000 x intensity x PUE sample by
	// sample, and the hourly intensity curve must average to the 0.45
	// base.
	carbon := metrics.Find(fams, "spec_fleet_carbon_rate_kg_per_hour")
	if carbon == nil || len(carbon.Samples) != len(power.Samples) {
		t.Fatalf("carbon rate family missing or mis-sized: %+v", carbon)
	}
	for i, smp := range carbon.Samples {
		if want := power.Samples[i].Value / 1000 * 0.45 * 1.5; smp.Value != want {
			t.Fatalf("carbon sample %d = %v, want %v", i, smp.Value, want)
		}
	}
	intensity := metrics.Find(fams, "spec_carbon_intensity_kg_per_kwh")
	if intensity == nil || len(intensity.Samples) != 24 {
		t.Fatalf("intensity family missing or not hourly: %+v", intensity)
	}
	var meanIntensity float64
	for _, smp := range intensity.Samples {
		meanIntensity += smp.Value / 24
	}
	if meanIntensity < 0.45-1e-9 || meanIntensity > 0.45+1e-9 {
		t.Fatalf("intensity mean %v, want 0.45", meanIntensity)
	}
	embodied := metrics.Find(fams, "spec_fleet_embodied_carbon_rate_kg_per_hour")
	if embodied == nil {
		t.Fatal("exposition lacks spec_fleet_embodied_carbon_rate_kg_per_hour")
	}
	if v, ok := embodied.Value(c); !ok || v != float64(snap.Valid.Len())*1300/35064 {
		t.Fatalf("embodied rate = %v/%v, want %v", v, ok, float64(snap.Valid.Len())*1300/35064)
	}

	for _, name := range []string{
		"spec_corpus_overall_ee", "spec_corpus_idle_fraction",
		"spec_corpus_year_ep", "spec_corpus_year_overall_ee", "spec_corpus_year_servers",
		"spec_fleet_capacity_ops", "spec_fleet_ep", "spec_fleet_idle_fraction", "spec_fleet_active_servers",
		"spec_serve_requests", "spec_serve_request_errors",
		"spec_serve_cache_hits", "spec_serve_cache_misses", "spec_serve_request_duration_seconds",
		"spec_serve_response_cache_entries", "spec_serve_response_cache_bytes",
		"spec_serve_response_cache_hits", "spec_serve_response_cache_misses",
		"spec_serve_coalesced_renders", "spec_serve_reload_generation",
		"spec_workspace_resident", "spec_workspace_capacity",
		"spec_workspace_hits", "spec_workspace_misses", "spec_workspace_loads",
		"spec_workspace_coalesced", "spec_workspace_evictions",
	} {
		if metrics.Find(fams, name) == nil {
			t.Errorf("exposition lacks %s", name)
		}
	}

	// The second scrape observes the first in the live counters.
	fams = scrape(t, s)
	req := metrics.Find(fams, "spec_serve_requests")
	if v, ok := req.Value(metrics.Label{Name: "endpoint", Value: "scrape"}); !ok || v != 1 {
		t.Fatalf("requests{scrape} = %v/%v after one scrape, want 1", v, ok)
	}
	if v, ok := metrics.Find(fams, "spec_serve_reload_generation").Value(); !ok || v != 1 {
		t.Fatalf("reload generation = %v/%v, want 1", v, ok)
	}
}

// TestScrapeGolden pins the sha256 of the first scrape of a fresh
// seed-1 server. The exposition is canonically ordered and every
// contributing computation is deterministic at any worker count, so
// the digest is byte-stable at workers 1, 2 and 8. The request
// duration histogram measures wall time, so its lines are cut before
// hashing; a first scrape has seen no request, so they must all read 0.
func TestScrapeGolden(t *testing.T) {
	const want = "c5035d6237d84fc818253ec7fbe36a446a7f729e8eababbc92a7245b95eb7cc2"
	defer par.SetMaxWorkers(0)
	for _, workers := range []int{1, 2, 8} {
		par.SetMaxWorkers(workers)
		s := newSyntheticServer(t, Config{Seed: 1})
		w := get(t, s, "/metrics", nil)
		if w.Code != http.StatusOK {
			t.Fatalf("workers=%d: status %d", workers, w.Code)
		}
		var kept strings.Builder
		cut := 0
		for _, line := range strings.SplitAfter(w.Body.String(), "\n") {
			if !strings.Contains(line, "spec_serve_request_duration_seconds") {
				kept.WriteString(line)
				continue
			}
			cut++
			if !strings.HasPrefix(line, "#") && !strings.HasSuffix(line, " 0\n") {
				t.Errorf("workers=%d: first scrape has a nonzero latency line %q", workers, line)
			}
		}
		if want := 3 + len(endpointClasses)*(len(latencyBounds)+2); cut != want {
			t.Errorf("workers=%d: cut %d request duration lines, want %d", workers, cut, want)
		}
		sum := sha256.Sum256([]byte(kept.String()))
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("workers=%d: scrape digest %s, want %s", workers, got, want)
		}
	}
}

// TestKeyedEndpoints: ?seed=/?servers= selectors address workspace
// scenarios on every cached endpoint, the default scenario stays on
// the lock-free pointer, and malformed selectors are 400s.
func TestKeyedEndpoints(t *testing.T) {
	s := newSyntheticServer(t, Config{Seed: testSeed})

	// A bare ?seed= naming the current generation is the default
	// scenario: byte-identical to the unkeyed response, no workspace
	// traffic.
	plain := get(t, s, "/api/v1/summary", nil)
	keyedDefault := get(t, s, "/api/v1/summary?seed=1", nil)
	if plain.Code != http.StatusOK || keyedDefault.Body.String() != plain.Body.String() {
		t.Fatalf("?seed=1 (%d) differs from the default response (%d)", keyedDefault.Code, plain.Code)
	}
	if st := s.Workspace().Stats(); st.Loads != 0 {
		t.Fatalf("default-scenario request loaded the workspace: %+v", st)
	}

	// A fleet selector serves the generated fleet.
	w := get(t, s, "/api/v1/summary?servers=160", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("keyed summary: %d %s", w.Code, w.Body.String())
	}
	if w.Body.String() == plain.Body.String() {
		t.Fatal("fleet summary equals the full-corpus summary")
	}
	snap, err := s.Workspace().Get(Key{Seed: testSeed, Servers: 160})
	if err != nil || snap.Repo.Len() != 160 {
		t.Fatalf("workspace scenario: %v, %d servers", err, snap.Repo.Len())
	}

	// The scenario's metric families carry its own corpus label.
	fams := scrape(t, s)
	checkExposition(t, fams)
	servers := metrics.Find(fams, "spec_corpus_servers")
	if v, ok := servers.Value(
		metrics.Label{Name: "corpus", Value: "seed=1/servers=160"},
		metrics.Label{Name: "subset", Value: "all"},
	); !ok || v != 160 {
		t.Fatalf("fleet corpus gauge = %v/%v, want 160", v, ok)
	}

	// Keyed responses survive eviction byte-identically: same payload,
	// same ETag, so clients never observe the LRU.
	etag := w.Header().Get("ETag")
	if !s.Workspace().Evict(Key{Seed: testSeed, Servers: 160}) {
		t.Fatal("scenario not resident")
	}
	again := get(t, s, "/api/v1/summary?servers=160", nil)
	if again.Code != http.StatusOK || again.Body.String() != w.Body.String() || again.Header().Get("ETag") != etag {
		t.Fatalf("reloaded scenario differs: status %d, etag %q vs %q", again.Code, again.Header().Get("ETag"), etag)
	}

	for _, target := range []string{
		"/api/v1/summary?servers=0",
		"/api/v1/summary?servers=x",
		"/api/v1/summary?servers=-3",
		"/api/v1/summary?seed=abc",
		fmt.Sprintf("/api/v1/summary?servers=%d", DefaultMaxFleetServers+1),
	} {
		if w := get(t, s, target, nil); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", target, w.Code)
		}
	}

	// File-backed servers cannot re-derive corpora from keys.
	if w := get(t, newTestServer(t), "/api/v1/summary?servers=64", nil); w.Code != http.StatusBadRequest {
		t.Errorf("file-backed keyed request: status %d, want 400", w.Code)
	}
}

// TestScrapeRaceSafety hammers /metrics and keyed endpoints from many
// goroutines while reloads and LRU evictions run underneath (capacity
// 2, three fleet scenarios). Every scrape must lint as OpenMetrics and
// hold the per-corpus invariants; every keyed response must be
// byte-stable across eviction and reload. Run under -race this is the
// scrape-safety battery.
func TestScrapeRaceSafety(t *testing.T) {
	s := newSyntheticServer(t, Config{Seed: 1, WorkspaceCap: 2})

	// Every key pins its seed: a bare ?servers= inherits the *current*
	// generation's seed, so under a concurrent reloader it legitimately
	// addresses different scenarios over time. Fully-specified keys are
	// the byte-stability contract.
	keyedPaths := []string{
		"/api/v1/summary?seed=4&servers=48",
		"/api/v1/summary?seed=4&servers=64",
		"/api/v1/figures/3?seed=2&servers=96",
		"/api/v1/metrics/ep?seed=2&servers=48",
	}
	var (
		mu     sync.Mutex
		bodies = map[string]string{}
		etags  = map[string]string{}
	)

	const (
		readers = 6
		iters   = 12
	)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				w := get(t, s, "/metrics", nil)
				if w.Code != http.StatusOK {
					t.Errorf("scrape: status %d", w.Code)
					continue
				}
				fams, err := metrics.Parse(w.Body.Bytes())
				if err != nil {
					t.Errorf("torn scrape: %v", err)
					continue
				}
				checkExposition(t, fams)

				path := keyedPaths[(g+i)%len(keyedPaths)]
				kw := get(t, s, path, nil)
				if kw.Code != http.StatusOK {
					t.Errorf("%s: status %d: %s", path, kw.Code, kw.Body.String())
					continue
				}
				mu.Lock()
				if prev, ok := bodies[path]; !ok {
					bodies[path] = kw.Body.String()
					etags[path] = kw.Header().Get("ETag")
				} else if prev != kw.Body.String() || etags[path] != kw.Header().Get("ETag") {
					t.Errorf("%s: response changed across eviction/reload", path)
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Add(1)
	go func() { // reloader: swaps the default snapshot under the scrapers
		defer wg.Done()
		for i := 0; i < 4; i++ {
			req := httptest.NewRequest(http.MethodPost, fmt.Sprintf("/api/v1/reload?seed=%d", 1+i%2), nil)
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				t.Errorf("reload: status %d: %s", w.Code, w.Body.String())
			}
		}
	}()
	wg.Wait()

	if st := s.Workspace().Stats(); st.Evictions == 0 || st.Resident > st.Capacity {
		t.Fatalf("workspace stats %+v: want evictions under capacity pressure, resident <= capacity", st)
	}
	if gen := s.Generation(); gen != 5 { // New's initial load + 4 reloads
		t.Fatalf("generation %d, want 5", gen)
	}
	checkExposition(t, scrape(t, s))
}
