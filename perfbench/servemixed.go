package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	m "repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/serve"
)

// The serve-mixed load: one process, at most two connections, an
// open-loop seeded Poisson schedule at serveRPS. At that rate a 50 s run
// sends about 8,800 requests: eight tail windows of about 1,100, each
// with 11 requests beyond its p99. Warm reads dominate; scrapes and
// reloads come at fixed periods; keyed scenarios are drawn from three
// times more keys than the workspace's 8 slots, so loads and evictions
// recur through the run.
const (
	connections  = 2
	serveRPS     = 175.0
	keyedShare   = 0.04
	revalShare   = 0.10
	keyCount     = 24
	scrapeEvery  = time.Second
	reloadEvery  = 3 * time.Second
	scrapeSample = 4 // parse every 4th scrape body
	// latencyLimitMs is the p99 a max_rps ladder rung must meet; it sits
	// above the cost of a cold render.
	latencyLimitMs = 50.0
	// lateLimitMs bounds how late the generator may send: past it the
	// run measured the generator, not the server.
	lateLimitMs = 50.0
)

// ladderRates are the offered rates the max_rps ladder climbs.
var ladderRates = []float64{300, 600, 1200, 2400, 3600, 4800, 6000}

// serveSpans names each request kind's span; the order follows
// serveKinds.
var serveSpans = func() []string {
	out := make([]string, len(serveKinds))
	for i, k := range serveKinds {
		out[i] = "serve." + k
	}
	return out
}()

const (
	kindWarm = iota
	kindRevalidate
	kindScrape
	kindKeyed
	kindReload
)

// request is one scheduled request.
type request struct {
	due    time.Duration
	kind   int
	method string
	path   string
	gzip   bool
	etag   string // sent as If-None-Match
	want   int
	// traced marks every other request of each kind: a traced run
	// records spans for these only, so both halves carry the same mix.
	traced bool
}

// outcome is what happened to one request; times are offsets from the
// phase start.
type outcome struct {
	free, sent, done time.Duration
	status           int
	etag             string
	body             []byte // kept only for scrapes
	err              error
}

// serveMixed is specserved at its defaults, sweeps on, behind a
// loopback listener.
type serveMixed struct {
	seed   int64
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client

	warm  []string          // default-corpus read paths
	etags map[string]string // path → ETag seen at fill
	keys  []serve.Key
	keyed []string // path per key

	// retired sums the cache counters of default snapshots that reloads
	// replaced during a phase.
	retiredMu sync.Mutex
	retired   serve.CacheStats
}

// startServe builds the server, starts it on a loopback listener and
// fills the default snapshot's cache with every warm path.
func startServe(seed int64) (*serveMixed, error) {
	s := &serveMixed{seed: seed, served: make(chan error, 1), etags: map[string]string{}}
	srv, err := serve.New(serve.Config{Seed: seed, Sweeps: true, SweepSeconds: 30})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.srv, s.base = srv, "http://"+ln.Addr().String()
	s.hs = &http.Server{Handler: srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.client = &http.Client{Timeout: time.Minute, Transport: &http.Transport{
		MaxConnsPerHost: connections, MaxIdleConnsPerHost: connections, DisableCompression: true,
	}}

	s.warm = []string{"/api/v1/report", "/api/v1/metrics/ep", "/api/v1/metrics/ee",
		"/api/v1/metrics/correlations", "/api/v1/summary", "/api/v1/figures"}
	for _, y := range []int{2012, 2014, 2016} {
		s.warm = append(s.warm, fmt.Sprintf("/api/v1/servers?year=%d", y))
	}
	for _, fid := range report.FigureIDs() {
		s.warm = append(s.warm, "/api/v1/figures/"+fid)
		if report.FigureHasSVG(fid) {
			s.warm = append(s.warm, "/api/v1/figures/"+fid+"?format=svg")
		}
	}
	for k := 0; k < keyCount; k++ {
		key := serve.Key{Seed: seed*100 + 1 + int64(k)}
		if k%3 != 0 {
			key.Servers = 128 + 64*(k%7)
		}
		q := fmt.Sprintf("seed=%d", key.Seed)
		if key.Servers > 0 {
			q += fmt.Sprintf("&servers=%d", key.Servers)
		}
		s.keys = append(s.keys, key)
		s.keyed = append(s.keyed, []string{"/api/v1/summary?", "/api/v1/metrics/ep?"}[k%2]+q)
	}

	for _, p := range append(append([]string(nil), s.warm...), "/metrics") {
		o := s.do(&request{method: http.MethodGet, path: p, want: http.StatusOK})
		if o.err != nil {
			s.close()
			return nil, fmt.Errorf("fill %s: %w", p, o.err)
		}
		s.etags[p] = o.etag
	}
	return s, nil
}

// close stops the server and waits for it to exit.
func (s *serveMixed) close() {
	s.hs.Close()
	<-s.served
	s.client.CloseIdleConnections()
}

// do sends one request and reads its response.
func (s *serveMixed) do(r *request) outcome {
	var o outcome
	req, err := http.NewRequest(r.method, s.base+r.path, nil)
	if err != nil {
		o.err = err
		return o
	}
	if r.gzip {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	if r.etag != "" {
		req.Header.Set("If-None-Match", r.etag)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		o.err = err
		return o
	}
	defer resp.Body.Close()
	o.status, o.etag = resp.StatusCode, resp.Header.Get("ETag")
	if r.kind == kindScrape {
		o.body, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	if err == nil && o.status != r.want {
		err = fmt.Errorf("%s %s: status %d, want %d", r.method, r.path, o.status, r.want)
	}
	o.err = err
	return o
}

// schedule draws the open-loop schedule for d at rate rps.
func (s *serveMixed) schedule(rng *rand.Rand, d time.Duration, rps float64) []request {
	var reqs []request
	get := func(due time.Duration, kind int, path string) request {
		return request{due: due, kind: kind, method: http.MethodGet, path: path, want: http.StatusOK}
	}
	perKind := make([]int, len(serveKinds))
	add := func(r request) {
		r.traced = perKind[r.kind]%2 == 1
		perKind[r.kind]++
		reqs = append(reqs, r)
	}
	nextScrape := time.Duration(rng.Int63n(int64(scrapeEvery)))
	nextReload := time.Duration(rng.Int63n(int64(reloadEvery)))
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / rps * float64(time.Second))
		for nextScrape < t && nextScrape < d {
			add(get(nextScrape, kindScrape, "/metrics"))
			nextScrape += scrapeEvery
		}
		for nextReload < t && nextReload < d {
			add(request{due: nextReload, kind: kindReload, method: http.MethodPost,
				path: fmt.Sprintf("/api/v1/reload?seed=%d", s.seed), want: http.StatusOK})
			nextReload += reloadEvery
		}
		if t >= d {
			return reqs
		}
		switch x := rng.Float64(); {
		case x < keyedShare:
			add(get(t, kindKeyed, s.keyed[rng.Intn(len(s.keyed))]))
		case x < keyedShare+revalShare:
			r := get(t, kindRevalidate, s.warm[rng.Intn(len(s.warm))])
			r.etag, r.want = s.etags[r.path], http.StatusNotModified
			add(r)
		default:
			r := get(t, kindWarm, s.warm[rng.Intn(len(s.warm))])
			r.gzip = rng.Intn(2) == 0
			add(r)
		}
	}
}

// execute runs the schedule over the connections; each worker takes
// the next request in schedule order and sends it when due. With a
// tracer, the requests marked traced record spans.
func (s *serveMixed) execute(reqs []request, tr *tracer) []outcome {
	outs := make([]outcome, len(reqs))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(connections)
	for w := 0; w < connections; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				r := &reqs[i]
				free := time.Since(start)
				if wait := r.due - free; wait > 0 {
					time.Sleep(wait)
				}
				var old *serve.Snapshot
				if r.kind == kindReload {
					old = s.srv.Snapshot()
				}
				id := -1
				if r.traced {
					id = tr.begin(serveSpans[r.kind], int64(i), -1)
				}
				sent := time.Since(start)
				o := s.do(r)
				o.free, o.sent, o.done = free, sent, time.Since(start)
				tr.end(id)
				outs[i] = o
				if old != nil {
					s.retire(old)
				}
			}
		}()
	}
	wg.Wait()
	return outs
}

// retire adds the counters of a default snapshot a reload replaced.
// Requests still in flight on it when it is read are not counted.
func (s *serveMixed) retire(old *serve.Snapshot) {
	st := old.Cache().Stats()
	s.retiredMu.Lock()
	defer s.retiredMu.Unlock()
	s.retired.Hits += st.Hits
	s.retired.Misses += st.Misses
	s.retired.Coalesced += st.Coalesced
}

// phase is one measured stretch of the schedule and its counters.
type phase struct {
	reqs       []request
	outs       []outcome
	cache      serve.CacheStats
	ws         serve.WorkspaceStats
	allocBytes uint64
}

// run measures one phase: it executes the schedule and folds the
// default snapshots' cache counters and the workspace counters into
// deltas over the phase.
func (s *serveMixed) run(reqs []request, tr *tracer) *phase {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	alloc0 := sample[0].Value.Uint64()
	base, ws0 := s.srv.Snapshot().Cache().Stats(), s.srv.Workspace().Stats()
	s.retired = serve.CacheStats{}
	outs := s.execute(reqs, tr)
	metrics.Read(sample)
	p := &phase{reqs: reqs, outs: outs, allocBytes: sample[0].Value.Uint64() - alloc0}
	cur := s.srv.Snapshot().Cache().Stats()
	p.cache = serve.CacheStats{
		Hits:      s.retired.Hits + cur.Hits - base.Hits,
		Misses:    s.retired.Misses + cur.Misses - base.Misses,
		Coalesced: s.retired.Coalesced + cur.Coalesced - base.Coalesced,
	}
	ws := s.srv.Workspace().Stats()
	p.ws = serve.WorkspaceStats{Hits: ws.Hits - ws0.Hits, Misses: ws.Misses - ws0.Misses,
		Loads: ws.Loads - ws0.Loads, Coalesced: ws.Coalesced - ws0.Coalesced, Evictions: ws.Evictions - ws0.Evictions}
	return p
}

// latMs returns every request's due-time latency, in schedule order.
func (p *phase) latMs() []float64 {
	out := make([]float64, len(p.outs))
	for i, o := range p.outs {
		out[i] = ms(dueLatency(p.reqs[i].due, o.done))
	}
	return out
}

// check applies the per-request checks: the expected status, sampled
// scrapes that lint, and an ETag that never changes for a path — across
// cache refills, reloads, and workspace evictions and reloads.
func (s *serveMixed) check(p *phase, res *result, etags map[string]string) {
	scrapes := 0
	for i, o := range p.outs {
		r := &p.reqs[i]
		res.attempted++
		err := o.err
		if err == nil && r.kind == kindScrape {
			if scrapes%scrapeSample == 0 {
				if _, perr := m.Parse(o.body); perr != nil {
					err = fmt.Errorf("scrape does not lint: %w", perr)
				}
			}
			scrapes++
		}
		if err == nil && o.status == http.StatusOK && r.kind != kindReload && r.kind != kindScrape {
			if prev, ok := etags[r.path]; ok && prev != o.etag {
				err = fmt.Errorf("%s: ETag %s, earlier %s", r.path, o.etag, prev)
			}
			etags[r.path] = o.etag
		}
		if err != nil {
			res.fail("%v", err)
		}
	}
}

// checkReport compares the served default report with report.Full for
// the current snapshot.
func (s *serveMixed) checkReport() error {
	snap := s.srv.Snapshot()
	want, err := report.Full(snap.Valid, snap.Opts)
	if err != nil {
		return err
	}
	resp, err := s.client.Get(s.base + "/api/v1/report")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if string(body) != want {
		return fmt.Errorf("served report (%d bytes) differs from report.Full (%d bytes)", len(body), len(want))
	}
	return nil
}

// checkEvictedETag evicts a keyed scenario and requires the reloaded
// one to carry the ETag seen before.
func (s *serveMixed) checkEvictedETag(etags map[string]string) error {
	for i, key := range s.keys {
		prev, ok := etags[s.keyed[i]]
		if !ok {
			continue
		}
		s.srv.Workspace().Evict(key)
		o := s.do(&request{method: http.MethodGet, path: s.keyed[i], want: http.StatusOK})
		if o.err != nil {
			return o.err
		}
		if o.etag != prev {
			return fmt.Errorf("%s: ETag %s after eviction, %s before", s.keyed[i], o.etag, prev)
		}
		return nil
	}
	return errors.New("no keyed scenario was requested")
}

// ladder offers each rate of ladderRates for d and returns the highest
// that met latencyLimitMs at p99 without a backlog.
func (s *serveMixed) ladder(rng *rand.Rand, d time.Duration, res *result, etags map[string]string) float64 {
	var rungs []rung
	for _, rps := range ladderRates {
		p := s.run(s.schedule(rng, d, rps), nil)
		s.check(p, res, etags)
		lat := p.latMs()
		r := rung{RPS: rps, Backlog: backlogged(lat, latencyLimitMs)}
		r.P99Ms = percentile(lat, 99)
		rungs = append(rungs, r)
		fmt.Printf("ladder rps=%g p99_ms=%.3f backlog=%v n=%d\n", rps, r.P99Ms, r.Backlog, len(lat))
		if r.Backlog || r.P99Ms > latencyLimitMs {
			break
		}
	}
	return pickMaxRPS(rungs, latencyLimitMs)
}

func runServeMixed(rc runConfig) (*result, error) {
	res := &result{}
	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}
	var s *serveMixed
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		var err error
		if s, err = startServe(rc.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
	}
	defer s.close()

	rng := rand.New(rand.NewSource(rc.seed))
	etags := map[string]string{}
	for p, e := range s.etags {
		etags[p] = e
	}
	measure := func(d time.Duration, tr *tracer) *phase {
		p := s.run(s.schedule(rng, d, serveRPS), tr)
		s.check(p, res, etags)
		return p
	}
	var p *phase
	if rc.trace {
		// Two thirds at the nominal rate with half the requests traced,
		// then the max_rps ladder untraced.
		tr.setOn(true)
		p = measure(rc.dur*2/3, tr)
		tr.setOn(false)
		var untraced, traced []float64
		for i, l := range p.latMs() {
			if p.reqs[i].traced {
				traced = append(traced, l)
			} else {
				untraced = append(untraced, l)
			}
		}
		res.opMs = untraced
		res.layer = serveLayers(p, byLayer(tr.snapshot()), overheadPct(untraced, traced))
		res.layer["serve.max_rps"] = s.ladder(rng, rc.dur/3/time.Duration(len(ladderRates)), res, etags)
	} else {
		p = measure(rc.dur, nil)
		res.opMs = p.latMs()
	}
	res.peakRSSMB = peakRSSMB()

	var late []float64
	for i, o := range p.outs {
		late = append(late, ms(lateness(p.reqs[i].due, o.free, o.sent)))
	}
	lateP99 := percentile(late, 99)
	if res.layer != nil {
		res.layer["loadgen.late_ms.p99"] = lateP99
	}
	if lateP99 > lateLimitMs {
		return nil, fmt.Errorf("load generator ran %.1f ms late at p99 (limit %g ms): the run measured the generator, not the server", lateP99, lateLimitMs)
	}

	for _, check := range []func() error{s.checkReport, func() error { return s.checkEvictedETag(etags) }} {
		res.attempted++
		if err := check(); err != nil {
			res.fail("%v", err)
		}
	}
	return res, nil
}

// serveLayers derives the serve-mixed per-layer metrics of a traced
// phase. Per-kind latencies are span times, from send to response read:
// the server's time without the queue in front of it.
func serveLayers(p *phase, layers map[string]*layerTotals, overhead float64) map[string]float64 {
	l := map[string]float64{"tracing.overhead_pct": overhead}
	for k, name := range serveKinds {
		lt := layers[serveSpans[k]]
		if lt == nil {
			continue
		}
		var lat []float64
		for _, d := range lt.Self {
			lat = append(lat, ms(d))
		}
		l["serve.lat_ms."+name+".p50"] = percentile(lat, 50)
		l["serve.lat_ms."+name+".p99"] = percentile(lat, 99)
	}
	lookups := p.cache.Hits + p.cache.Misses
	l["serve.cache_hit_ratio"] = ratio(p.cache.Hits, lookups)
	l["serve.coalesced"] = float64(p.cache.Coalesced + p.ws.Coalesced)
	l["serve.workspace_hit_ratio"] = ratio(p.ws.Hits, p.ws.Hits+p.ws.Misses)
	l["serve.workspace_loads"] = float64(p.ws.Loads)
	l["serve.workspace_evictions"] = float64(p.ws.Evictions)
	n := int64(len(p.outs))
	l["serve.alloc_kb_per_req"] = float64(p.allocBytes) / 1e3 / float64(n)
	l["serve.cold_share"] = ratio(p.cache.Misses+p.ws.Loads, n)
	var scrapeBytes, scrapes float64
	for i, o := range p.outs {
		if p.reqs[i].kind == kindScrape && o.body != nil {
			scrapeBytes += float64(len(o.body))
			scrapes++
		}
	}
	if scrapes > 0 {
		l["metrics.scrape_kb"] = scrapeBytes / 1e3 / scrapes
	}
	return l
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
