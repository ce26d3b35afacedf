package serve

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/optimize"
	"repro/internal/placement"
	"repro/internal/stats"
	"repro/internal/trace"
)

// This file is the /metrics exposition: every resident corpus — the
// default snapshot plus the workspace's keyed scenarios — contributes
// gauge families labeled with its own corpus string, and the server's
// live counters ride along. Label cardinality is bounded by
// construction: corpus values by the workspace capacity (plus one),
// policy by cluster.AllPolicies, demand by demandFractions, year by
// the corpus's hardware-availability span, endpoint by
// endpointClasses. Nothing request-derived ever becomes a label value.

// demandFractions are the reference demand points, as fractions of
// fleet capacity, at which per-policy power and active-server gauges
// are sampled. The labels are the fixed strings below, never computed,
// so scrapes are byte-stable.
var demandFractions = []struct {
	frac  float64
	label string
}{
	{0.25, "0.25"},
	{0.50, "0.50"},
	{0.75, "0.75"},
	{1.00, "1.00"},
}

// latencyBounds are the upper bounds, in seconds, of the request
// duration histogram's buckets: from a warm cache hit, well under a
// millisecond, to a cold report render with full-length sweeps; the
// +Inf bucket takes the rest.
var latencyBounds = [...]float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, math.Inf(1)}

// endpointStats accounts one endpoint class's requests. buckets counts
// requests per latencyBounds bucket (not cumulatively), so their total
// is the class's request count. mu guards every field, so a scrape
// reads a class's request counters and latency histogram as of the
// same request.
type endpointStats struct {
	mu           sync.Mutex
	hits, errors uint64
	seconds      float64
	buckets      [len(latencyBounds)]uint64
}

// observe records one request: its latency, whether it was served from
// an already rendered payload (hit), and whether it failed. A failed
// request's latency counts too — a slow failure is still a slow
// response.
func (e *endpointStats) observe(d time.Duration, hit, failed bool) {
	secs := d.Seconds()
	i := sort.SearchFloat64s(latencyBounds[:], secs)
	e.mu.Lock()
	e.buckets[i]++
	e.seconds += secs
	if hit {
		e.hits++
	}
	if failed {
		e.errors++
	}
	e.mu.Unlock()
}

// Reference grid pricing for the carbon gauges: the same defaults the
// optimizer's carbon objective assumes — mean 2016-era US grid
// intensity and a typical facility PUE. Fixed constants, so the carbon
// families stay byte-stable across scrapes.
const (
	refKgPerKWh = 0.45
	refPUE      = 1.5
)

// gaugeFamilies returns the snapshot's corpus and fleet gauge
// families. They are a pure function of the immutable corpus, so they
// are built once per snapshot — under a sync.Once, so concurrent first
// scrapes block rather than duplicate the fleet composition — and
// shared by every scrape thereafter.
func (s *Snapshot) gaugeFamilies() ([]metrics.Family, error) {
	s.gaugesOnce.Do(func() {
		s.gauges, s.gaugesErr = buildGauges(s)
		if s.gaugesErr == nil {
			s.gaugesReady.Store(true)
		}
	})
	return s.gauges, s.gaugesErr
}

// buildGauges computes the corpus-level distribution gauges and the
// per-policy fleet gauges of one snapshot.
func buildGauges(snap *Snapshot) ([]metrics.Family, error) {
	corpus := metrics.Label{Name: "corpus", Value: snap.Corpus}
	servers := metrics.Family{
		Name: "spec_corpus_servers",
		Help: "Corpus size by subset (all submissions vs the compliant set every analysis uses).",
		Type: metrics.TypeGauge,
		Samples: []metrics.Sample{
			{Labels: []metrics.Label{corpus, {Name: "subset", Value: "all"}}, Value: float64(snap.Repo.Len())},
			{Labels: []metrics.Label{corpus, {Name: "subset", Value: "valid"}}, Value: float64(snap.Valid.Len())},
		},
	}
	out := []metrics.Family{servers}
	if snap.Valid.Len() == 0 {
		return out, nil
	}

	summaryGauge := func(name, help string, values []float64) (metrics.Family, error) {
		sum, err := stats.Describe(values)
		if err != nil {
			return metrics.Family{}, fmt.Errorf("serve: %s: %w", name, err)
		}
		return metrics.Family{
			Name: name, Help: help, Type: metrics.TypeGauge,
			Samples: []metrics.Sample{
				{Labels: []metrics.Label{corpus, {Name: "stat", Value: "min"}}, Value: sum.Min},
				{Labels: []metrics.Label{corpus, {Name: "stat", Value: "mean"}}, Value: sum.Mean},
				{Labels: []metrics.Label{corpus, {Name: "stat", Value: "max"}}, Value: sum.Max},
			},
		}, nil
	}
	ep, err := summaryGauge("spec_corpus_ep",
		"Energy proportionality (paper Eq. 1) over the valid corpus.", snap.Valid.EPs())
	if err != nil {
		return nil, err
	}
	ee, err := summaryGauge("spec_corpus_overall_ee",
		"Overall energy efficiency (ssj_ops per watt) over the valid corpus.", snap.Valid.OverallEEs())
	if err != nil {
		return nil, err
	}
	out = append(out, ep, ee)

	idle := metrics.Family{
		Name: "spec_corpus_idle_fraction",
		Help: "Idle power over peak power across the valid corpus, at fixed quantiles.",
		Type: metrics.TypeGauge,
	}
	fractions := snap.Valid.IdleFractions()
	for _, q := range []struct {
		q     float64
		label string
	}{{0.1, "0.1"}, {0.5, "0.5"}, {0.9, "0.9"}} {
		v, err := stats.Quantile(fractions, q.q)
		if err != nil {
			return nil, fmt.Errorf("serve: idle quantile %s: %w", q.label, err)
		}
		idle.Samples = append(idle.Samples, metrics.Sample{
			Labels: []metrics.Label{corpus, {Name: "quantile", Value: q.label}}, Value: v,
		})
	}
	out = append(out, idle)

	trend, err := analysis.YearlyTrend(snap.Valid)
	if err != nil {
		return nil, fmt.Errorf("serve: yearly trend: %w", err)
	}
	yearEP := metrics.Family{Name: "spec_corpus_year_ep",
		Help: "Mean energy proportionality of servers by hardware-availability year (Fig. 3 trend).",
		Type: metrics.TypeGauge}
	yearEE := metrics.Family{Name: "spec_corpus_year_overall_ee",
		Help: "Mean overall efficiency of servers by hardware-availability year (Fig. 4 trend).",
		Type: metrics.TypeGauge}
	yearN := metrics.Family{Name: "spec_corpus_year_servers",
		Help: "Valid servers per hardware-availability year.",
		Type: metrics.TypeGauge}
	for _, ys := range trend {
		year := metrics.Label{Name: "year", Value: fmt.Sprintf("%d", ys.Year)}
		yearEP.Samples = append(yearEP.Samples, metrics.Sample{Labels: []metrics.Label{corpus, year}, Value: ys.EP.Mean})
		yearEE.Samples = append(yearEE.Samples, metrics.Sample{Labels: []metrics.Label{corpus, year}, Value: ys.EE.Mean})
		yearN.Samples = append(yearN.Samples, metrics.Sample{Labels: []metrics.Label{corpus, year}, Value: float64(ys.N)})
	}
	out = append(out, yearEP, yearEE, yearN)

	fleet, err := fleetGauges(snap, corpus)
	if err != nil {
		return nil, err
	}
	return append(out, fleet...), nil
}

// fleetGauges composes the snapshot's valid servers into one cluster
// per placement policy and samples fleet-level EP, idle fraction,
// power draw and active-server counts at the reference demand points.
// Composition is par-sharded and deterministic at any worker count, so
// these gauges never perturb the scrape's golden digest.
func fleetGauges(snap *Snapshot, corpus metrics.Label) ([]metrics.Family, error) {
	results := snap.Valid.All()
	profiles, err := placement.Profiles(results)
	if err != nil {
		return nil, fmt.Errorf("serve: fleet profiles: %w", err)
	}

	capacity := metrics.Family{Name: "spec_fleet_capacity_ops",
		Help: "Fleet throughput at full load (sum of member capacities).",
		Type: metrics.TypeGauge, Unit: "ops"}
	fleetEP := metrics.Family{Name: "spec_fleet_ep",
		Help: "Cluster-level energy proportionality of the valid fleet under each placement policy (paper SS V).",
		Type: metrics.TypeGauge}
	fleetIdle := metrics.Family{Name: "spec_fleet_idle_fraction",
		Help: "Cluster idle power over cluster peak power under each placement policy.",
		Type: metrics.TypeGauge}
	power := metrics.Family{Name: "spec_fleet_power_watts",
		Help: "Fleet power draw at reference demand points (fraction of fleet capacity) under each placement policy.",
		Type: metrics.TypeGauge, Unit: "watts"}
	active := metrics.Family{Name: "spec_fleet_active_servers",
		Help: "Servers a policy must keep active to serve each reference demand point.",
		Type: metrics.TypeGauge}
	carbonRate := metrics.Family{Name: "spec_fleet_carbon_rate_kg_per_hour",
		Help: "Fleet operational carbon rate at reference demand points under each placement policy, priced at the reference grid (0.45 kgCO2/kWh, PUE 1.5).",
		Type: metrics.TypeGauge, Unit: "kg_per_hour"}
	embodied := metrics.Family{Name: "spec_fleet_embodied_carbon_rate_kg_per_hour",
		Help: "Embodied-carbon amortization rate of the valid fleet at the default per-server model (1300 kgCO2e over a 4-year life).",
		Type: metrics.TypeGauge, Unit: "kg_per_hour"}
	emb := optimize.DefaultEmbodied()
	embodied.Samples = append(embodied.Samples, metrics.Sample{
		Labels: []metrics.Label{corpus},
		Value:  float64(len(profiles)) * emb.KgCO2e / emb.LifetimeHours,
	})

	for pi, policy := range cluster.AllPolicies() {
		agg, err := cluster.Compose(profiles, policy)
		if err != nil {
			return nil, fmt.Errorf("serve: compose %s: %w", policy, err)
		}
		ev, err := cluster.NewEvaluator(profiles, policy)
		if err != nil {
			return nil, fmt.Errorf("serve: evaluator %s: %w", policy, err)
		}
		if pi == 0 {
			capacity.Samples = append(capacity.Samples, metrics.Sample{
				Labels: []metrics.Label{corpus}, Value: ev.Capacity(),
			})
		}
		pol := metrics.Label{Name: "policy", Value: policy.String()}
		fleetEP.Samples = append(fleetEP.Samples, metrics.Sample{
			Labels: []metrics.Label{corpus, pol}, Value: agg.EP(),
		})
		fleetIdle.Samples = append(fleetIdle.Samples, metrics.Sample{
			Labels: []metrics.Label{corpus, pol}, Value: agg.IdleFraction(),
		})
		for _, d := range demandFractions {
			demand := metrics.Label{Name: "demand", Value: d.label}
			ops := ev.Capacity() * d.frac
			watts := ev.PowerAt(ops)
			power.Samples = append(power.Samples, metrics.Sample{
				Labels: []metrics.Label{corpus, pol, demand}, Value: watts,
			})
			active.Samples = append(active.Samples, metrics.Sample{
				Labels: []metrics.Label{corpus, pol, demand}, Value: float64(ev.MinServers(ops)),
			})
			carbonRate.Samples = append(carbonRate.Samples, metrics.Sample{
				Labels: []metrics.Label{corpus, pol, demand}, Value: watts / 1000 * refKgPerKWh * refPUE,
			})
		}
	}
	return []metrics.Family{capacity, fleetEP, fleetIdle, power, active, carbonRate, embodied}, nil
}

// scrapeFamilies assembles one exposition: the memoized gauges of
// every resident snapshot (gathered once, at entry, so a scrape is
// internally consistent no matter what reloads or evictions run
// concurrently) merged family-by-family, then the server's live
// counters. warm reports whether every contributing snapshot already
// had its gauges built.
func (s *Server) scrapeFamilies() (fams []metrics.Family, warm bool, err error) {
	snaps := []*Snapshot{s.snap.Load()}
	seen := map[string]bool{snaps[0].Corpus: true}
	for _, sn := range s.workspace.Resident() {
		// The default scenario can also be workspace-resident (e.g. a
		// keyed seed that later became the reload target); one corpus
		// label must appear exactly once per family.
		if !seen[sn.Corpus] {
			seen[sn.Corpus] = true
			snaps = append(snaps, sn)
		}
	}
	warm = true
	for _, sn := range snaps {
		if !sn.gaugesReady.Load() {
			warm = false
		}
	}

	serve := s.serveFamilies(snaps)
	var out []metrics.Family
	var idx map[string]int
	add := func(f metrics.Family) {
		if i, ok := idx[f.Name]; ok {
			out[i].Samples = append(out[i].Samples, f.Samples...)
			return
		}
		// Cap the sample slice at its length: the family may be a
		// snapshot's memoized value, so the first merge into it must copy
		// its samples rather than append to the shared backing array,
		// which would race between concurrent scrapes.
		f.Samples = f.Samples[:len(f.Samples):len(f.Samples)]
		idx[f.Name] = len(out)
		out = append(out, f)
	}
	for i, sn := range snaps {
		gauges, err := sn.gaugeFamilies()
		if err != nil {
			return nil, warm, err
		}
		if i == 0 {
			// Every snapshot exports the same gauge families.
			out = make([]metrics.Family, 0, len(gauges)+len(serve))
			idx = make(map[string]int, cap(out))
		}
		for _, f := range gauges {
			add(f)
		}
	}
	for _, f := range serve {
		add(f)
	}
	return out, warm, nil
}

// serveFamilies snapshots the server's live counters: per-endpoint
// request accounting and latency, per-corpus byte-cache occupancy,
// workspace LRU accounting and the reload generation.
func (s *Server) serveFamilies(snaps []*Snapshot) []metrics.Family {
	requests := metrics.Family{Name: "spec_serve_requests",
		Help: "Requests handled, by endpoint class.", Type: metrics.TypeCounter}
	reqErrors := metrics.Family{Name: "spec_serve_request_errors",
		Help: "Requests that failed, by endpoint class.", Type: metrics.TypeCounter}
	hits := metrics.Family{Name: "spec_serve_cache_hits",
		Help: "Requests served from an already rendered payload, by endpoint class.", Type: metrics.TypeCounter}
	misses := metrics.Family{Name: "spec_serve_cache_misses",
		Help: "Requests that had to render (or join a render), by endpoint class.", Type: metrics.TypeCounter}
	duration := metrics.Family{Name: "spec_serve_request_duration_seconds",
		Help: "Request latency, by endpoint class.", Type: metrics.TypeHistogram, Unit: "seconds"}
	for _, f := range []*metrics.Family{&requests, &reqErrors, &hits, &misses, &duration} {
		f.Samples = make([]metrics.Sample, 0, len(endpointClasses))
	}
	for _, class := range endpointClasses {
		e := s.endpoints[class]
		hist := make([]metrics.Bucket, len(latencyBounds))
		var n uint64
		e.mu.Lock()
		for i, c := range e.buckets {
			n += c
			hist[i] = metrics.Bucket{UpperBound: latencyBounds[i], Count: float64(n)}
		}
		hitCount, errCount, seconds := e.hits, e.errors, e.seconds
		e.mu.Unlock()
		endpoint := []metrics.Label{{Name: "endpoint", Value: class}}
		requests.Samples = append(requests.Samples, metrics.Sample{Labels: endpoint, Value: float64(n)})
		reqErrors.Samples = append(reqErrors.Samples, metrics.Sample{Labels: endpoint, Value: float64(errCount)})
		hits.Samples = append(hits.Samples, metrics.Sample{Labels: endpoint, Value: float64(hitCount)})
		misses.Samples = append(misses.Samples, metrics.Sample{Labels: endpoint, Value: float64(n - hitCount)})
		duration.Samples = append(duration.Samples, metrics.Sample{Labels: endpoint, Value: seconds, Buckets: hist})
	}

	entries := metrics.Family{Name: "spec_serve_response_cache_entries",
		Help: "Rendered payloads resident in each corpus's response cache.", Type: metrics.TypeGauge}
	cacheBytes := metrics.Family{Name: "spec_serve_response_cache_bytes",
		Help: "Identity plus gzip payload bytes resident in each corpus's response cache.",
		Type: metrics.TypeGauge, Unit: "bytes"}
	cacheHits := metrics.Family{Name: "spec_serve_response_cache_hits",
		Help: "Byte-cache lookups that found a resident entry, by corpus.", Type: metrics.TypeCounter}
	cacheMisses := metrics.Family{Name: "spec_serve_response_cache_misses",
		Help: "Byte-cache lookups that rendered or joined a render, by corpus.", Type: metrics.TypeCounter}
	coalesced := metrics.Family{Name: "spec_serve_coalesced_renders",
		Help: "Byte-cache misses that joined another request's in-flight render instead of rendering, by corpus.",
		Type: metrics.TypeCounter}
	for _, f := range []*metrics.Family{&entries, &cacheBytes, &cacheHits, &cacheMisses, &coalesced} {
		f.Samples = make([]metrics.Sample, 0, len(snaps))
	}
	for _, sn := range snaps {
		cs := sn.cache.Stats()
		corpus := []metrics.Label{{Name: "corpus", Value: sn.Corpus}}
		entries.Samples = append(entries.Samples, metrics.Sample{Labels: corpus, Value: float64(cs.Entries)})
		cacheBytes.Samples = append(cacheBytes.Samples, metrics.Sample{Labels: corpus, Value: float64(cs.Bytes)})
		cacheHits.Samples = append(cacheHits.Samples, metrics.Sample{Labels: corpus, Value: float64(cs.Hits)})
		cacheMisses.Samples = append(cacheMisses.Samples, metrics.Sample{Labels: corpus, Value: float64(cs.Misses)})
		coalesced.Samples = append(coalesced.Samples, metrics.Sample{Labels: corpus, Value: float64(cs.Coalesced)})
	}

	ws := s.workspace.Stats()
	workspace := func(name, help string, t metrics.Type, v float64) metrics.Family {
		return metrics.Family{Name: name, Help: help, Type: t,
			Samples: []metrics.Sample{{Value: v}}}
	}
	return []metrics.Family{
		requests, reqErrors, hits, misses, duration,
		entries, cacheBytes, cacheHits, cacheMisses, coalesced, referenceIntensity(),
		workspace("spec_workspace_resident", "Keyed corpus scenarios resident in the workspace.",
			metrics.TypeGauge, float64(ws.Resident)),
		workspace("spec_workspace_capacity", "Workspace LRU capacity bound.",
			metrics.TypeGauge, float64(ws.Capacity)),
		workspace("spec_workspace_hits", "Keyed requests served by a resident snapshot.",
			metrics.TypeCounter, float64(ws.Hits)),
		workspace("spec_workspace_misses", "Keyed requests that had to load (or join a load).",
			metrics.TypeCounter, float64(ws.Misses)),
		workspace("spec_workspace_loads", "Corpus loads the workspace executed.",
			metrics.TypeCounter, float64(ws.Loads)),
		workspace("spec_workspace_coalesced", "Keyed misses that joined another request's in-flight load.",
			metrics.TypeCounter, float64(ws.Coalesced)),
		workspace("spec_workspace_evictions", "Snapshots evicted from the workspace (LRU overflow or explicit).",
			metrics.TypeCounter, float64(ws.Evictions)),
		workspace("spec_serve_reload_generation", "Completed snapshot reloads since the server started.",
			metrics.TypeGauge, float64(s.gen.Load())),
	}
}

// referenceIntensity is the reference grid-intensity curve. It is
// corpus-independent, so it is a server-level family — emitting it per
// snapshot would duplicate its series under the strict lint once a
// second corpus loads — and constant, so it is built once.
var referenceIntensity = sync.OnceValue(func() metrics.Family {
	intensity := metrics.Family{Name: "spec_carbon_intensity_kg_per_kwh",
		Help: "Reference diurnal grid carbon intensity by hour of day (0.45 kgCO2/kWh mean, 35% swing peaking at 19:00).",
		Type: metrics.TypeGauge, Unit: "kg_per_kwh"}
	if prof, err := trace.DiurnalIntensity(trace.IntensityConfig{}); err == nil {
		for h, r := range prof.Rates {
			intensity.Samples = append(intensity.Samples, metrics.Sample{
				Labels: []metrics.Label{{Name: "hour", Value: fmt.Sprintf("%02d", h)}}, Value: r,
			})
		}
	}
	return intensity
})

// handleScrape serves the OpenMetrics exposition. It is never cached
// in the byte cache — counters move between scrapes — but the
// expensive corpus and fleet gauges are memoized per snapshot, so a
// warm scrape only assembles samples and writes text.
func (s *Server) handleScrape(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	fams, warm, err := s.scrapeFamilies()
	if err == nil {
		// Write validates every family before it writes a byte, so a
		// failure here can still answer 500.
		w.Header().Set("Content-Type", metrics.ContentType)
		err = metrics.Write(w, fams)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
	s.endpoints["scrape"].observe(time.Since(start), warm && err == nil, err != nil)
}
