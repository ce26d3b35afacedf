package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/synth"
)

// Config parameterizes a Server.
type Config struct {
	// Seed generates the synthetic corpus when Repo is nil, and drives
	// the report's hardware-sweep sections either way.
	Seed int64
	// Repo serves a pre-loaded corpus instead of synthesizing one; it
	// must not be mutated after the server starts.
	Repo *dataset.Repository
	// Sweeps and SweepSeconds select the report's Fig. 18-21 sections,
	// exactly as specreport's flags do.
	Sweeps       bool
	SweepSeconds int
	// WorkspaceCap bounds the resident keyed scenarios served via
	// ?seed=/?servers= selectors (0 = DefaultWorkspaceCap). Scenarios
	// past the bound evict least-recently-used and reload on return.
	WorkspaceCap int
	// CorpusName overrides the corpus label the default snapshot's
	// metric families carry — file-backed servers name their dataset;
	// "" keeps the synthetic "seed=N" label.
	CorpusName string
}

// DefaultMaxFleetServers caps the ?servers= fleet size a request may
// ask for. Fleet corpora are generated on demand, so the cap bounds
// per-request work and resident memory.
const DefaultMaxFleetServers = 100_000

// endpointClasses label the per-endpoint request families of /metrics.
var endpointClasses = []string{"report", "figures", "metrics", "servers", "summary", "healthz", "reload", "scrape"}

// Server is the snapshot-cached HTTP API over the corpus. All request
// handling goes through a *Snapshot — the default generation on a
// lock-free atomic pointer (swappable via Reload), keyed
// ?seed=/?servers= scenarios through the LRU-bounded Workspace — and
// its per-snapshot byte cache; /metrics exposes everything as
// OpenMetrics, per-endpoint request counts and latency histograms
// included.
type Server struct {
	mux  *http.ServeMux
	snap atomic.Pointer[Snapshot]

	// workspace holds the keyed scenarios; synthetic gates them (a
	// file-backed corpus cannot be re-derived from a key).
	workspace *Workspace
	synthetic bool

	// source rebuilds the corpus for Reload: synthesis for seed-backed
	// servers, the retained repository for file-backed ones.
	source   func(seed int64) (*dataset.Repository, error)
	reloadMu sync.Mutex
	opts     report.Options
	// corpusName relabels the default snapshot (file-backed datasets).
	corpusName string
	// gen counts completed reloads; exposed as
	// spec_serve_reload_generation.
	gen atomic.Int64

	endpoints map[string]*endpointStats
}

// New builds the server and renders nothing: every payload is rendered
// on first request and cached in the snapshot.
func New(cfg Config) (*Server, error) {
	opts := report.Options{Sweeps: cfg.Sweeps, SweepSeconds: cfg.SweepSeconds, Seed: cfg.Seed}
	s := &Server{
		opts:       opts,
		synthetic:  cfg.Repo == nil,
		corpusName: cfg.CorpusName,
		endpoints:  make(map[string]*endpointStats, len(endpointClasses)),
	}
	s.workspace = NewWorkspace(cfg.WorkspaceCap, s.loadScenario)
	for _, class := range endpointClasses {
		s.endpoints[class] = &endpointStats{}
	}

	if cfg.Repo != nil {
		repo := cfg.Repo
		s.source = func(int64) (*dataset.Repository, error) { return repo, nil }
	} else {
		s.source = synthRepository
	}
	if _, err := s.Reload(cfg.Seed); err != nil {
		return nil, err
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /api/v1/report", s.handleReport)
	mux.HandleFunc("GET /api/v1/figures", s.handleFigureIndex)
	mux.HandleFunc("GET /api/v1/figures/{id}", s.handleFigure)
	mux.HandleFunc("GET /api/v1/metrics/{metric}", s.handleMetrics)
	mux.HandleFunc("GET /api/v1/servers", s.handleServers)
	mux.HandleFunc("GET /api/v1/summary", s.handleSummary)
	mux.HandleFunc("POST /api/v1/reload", s.handleReload)
	mux.HandleFunc("GET /metrics", s.handleScrape)
	s.mux = mux
	return s, nil
}

// Handler returns the root handler for an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Snapshot returns the current serving generation.
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// Workspace returns the keyed-scenario cache (tests and /metrics use
// it; read-mostly).
func (s *Server) Workspace() *Workspace { return s.workspace }

// Generation returns the number of completed reloads.
func (s *Server) Generation() int64 { return s.gen.Load() }

// Reload builds a fresh snapshot at seed — new corpus for seed-backed
// servers, new sweep seed and empty cache either way — and swaps it in
// atomically. Readers holding the old snapshot finish against it;
// reloads serialize among themselves but never block readers.
func (s *Server) Reload(seed int64) (*Snapshot, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	rp, err := s.source(seed)
	if err != nil {
		return nil, err
	}
	opts := s.opts
	opts.Seed = seed
	snap := NewSnapshot(rp, seed, opts)
	if s.corpusName != "" {
		snap.Corpus = s.corpusName
	}
	s.snap.Store(snap)
	s.gen.Add(1)
	return snap, nil
}

// loadScenario is the workspace loader: it materializes the corpus a
// Key describes. A bare seed regenerates the calibrated paper corpus;
// a fleet key generates the fleet straight into columns. The same key
// always yields a byte-identical corpus, so evicted scenarios reload
// transparently.
func (s *Server) loadScenario(key Key) (*Snapshot, error) {
	opts := s.opts
	opts.Seed = key.Seed
	if key.Servers == 0 {
		return SynthSnapshot(key.Seed, opts)
	}
	fleet, err := synth.GenerateFleetStore(synth.FleetConfig{Seed: key.Seed, Servers: key.Servers})
	if err != nil {
		return nil, fmt.Errorf("serve: generate fleet %s: %w", key, err)
	}
	snap := NewSnapshot(dataset.NewColumnRepository(fleet), key.Seed, opts)
	snap.Corpus = key.String()
	return snap, nil
}

// snapshotFor resolves the snapshot a request addresses. Requests
// without ?seed=/?servers= selectors — the whole PR 3 surface — stay
// on the lock-free default pointer. Keyed selectors go through the
// workspace; they are rejected on file-backed servers, whose corpus
// cannot be re-derived from a key.
func (s *Server) snapshotFor(r *http.Request) (*Snapshot, error) {
	q := r.URL.Query()
	seedStr, serversStr := q.Get("seed"), q.Get("servers")
	if seedStr == "" && serversStr == "" {
		return s.snap.Load(), nil
	}
	if !s.synthetic {
		return nil, fmt.Errorf("%w: corpus selectors need a synthetic server (this corpus is file-backed)", errBadRequest)
	}
	key := Key{Seed: s.snap.Load().Seed}
	if seedStr != "" {
		v, err := strconv.ParseInt(seedStr, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: bad seed %q", errBadRequest, seedStr)
		}
		key.Seed = v
	}
	if serversStr != "" {
		v, err := strconv.Atoi(serversStr)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("%w: bad servers %q (want a positive count)", errBadRequest, serversStr)
		}
		if v > DefaultMaxFleetServers {
			return nil, fmt.Errorf("%w: servers %d exceeds the limit %d", errBadRequest, v, DefaultMaxFleetServers)
		}
		key.Servers = v
	}
	// A bare ?seed= naming the current generation is the default
	// scenario: serve it from the pointer so the workspace holds only
	// genuinely distinct corpora.
	if cur := s.snap.Load(); key.Servers == 0 && key.Seed == cur.Seed {
		return cur, nil
	}
	return s.workspace.Get(key)
}

// renderFunc renders one payload inside a snapshot.
type renderFunc func(*Snapshot) (body []byte, contentType string, err error)

// cached serves one cacheable endpoint: resolve the addressed snapshot
// (default pointer or workspace key), fetch-or-render the entry
// (coalesced), write it with ETag revalidation, and record latency and
// hit-rate. The warm path does no rendering, no copying, and no
// allocation beyond response headers.
func (s *Server) cached(w http.ResponseWriter, r *http.Request, class, key string, render renderFunc) {
	start := time.Now()
	snap, err := s.snapshotFor(r)
	if err != nil {
		http.Error(w, err.Error(), errStatus(err))
		s.endpoints[class].observe(time.Since(start), false, true)
		return
	}
	ent, hit, err := snap.cache.Get(key, func() ([]byte, string, error) { return render(snap) })
	if err != nil {
		http.Error(w, err.Error(), errStatus(err))
	} else {
		writeEntry(w, r, ent)
	}
	s.endpoints[class].observe(time.Since(start), hit, err != nil)
}

// errNotFound classifies render errors that should map to 404;
// errBadRequest classifies malformed corpus selectors (400).
var (
	errNotFound   = errors.New("not found")
	errBadRequest = errors.New("bad request")
)

// errStatus maps a handler error to its HTTP status.
func errStatus(err error) int {
	switch {
	case errors.Is(err, errNotFound):
		return http.StatusNotFound
	case errors.Is(err, errBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, report.ErrNoSVG):
		return http.StatusNotAcceptable
	case errors.Is(err, analysis.ErrTooFewServers):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

// writeEntry writes a cached entry, honoring If-None-Match and
// Accept-Encoding. The entry's bytes are written as-is — they are
// immutable for the snapshot's lifetime.
func writeEntry(w http.ResponseWriter, r *http.Request, e *Entry) {
	h := w.Header()
	h.Set("ETag", e.ETag)
	// The cached representation is immutable but the snapshot can be
	// swapped by a reload, so clients must revalidate; 304s make that
	// free.
	h.Set("Cache-Control", "no-cache")
	if m := r.Header.Get("If-None-Match"); m != "" && etagMatches(m, e.ETag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h.Set("Content-Type", e.ContentType)
	body := e.Body
	if e.Gzip != nil {
		h.Set("Vary", "Accept-Encoding")
		if acceptsGzip(r) {
			h.Set("Content-Encoding", "gzip")
			body = e.Gzip
		}
	}
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// etagMatches implements the If-None-Match comparison for strong
// validators: a wildcard or any listed tag equal to etag.
func etagMatches(header, etag string) bool {
	if header == "*" {
		return true
	}
	for len(header) > 0 {
		tag := header
		if i := strings.IndexByte(header, ','); i >= 0 {
			tag, header = header[:i], header[i+1:]
		} else {
			header = ""
		}
		tag = strings.TrimSpace(tag)
		tag = strings.TrimPrefix(tag, "W/")
		if tag == etag {
			return true
		}
	}
	return false
}

// acceptsGzip reports whether the client advertises gzip support.
func acceptsGzip(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept-Encoding"), "gzip")
}

// handleHealthz is the liveness probe: no cache, no snapshot work.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("ok\n"))
	s.endpoints["healthz"].observe(time.Since(start), true, false)
}

// handleReport serves the full evaluation report, byte-identical to
// specreport's output for the same corpus, seed and options.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	format := queryDefault(r, "format", "text")
	if format != "text" && format != "html" {
		http.Error(w, fmt.Sprintf("unknown format %q (want text or html)", format), http.StatusBadRequest)
		return
	}
	s.cached(w, r, "report", "report\x00"+format, func(snap *Snapshot) ([]byte, string, error) {
		var (
			text string
			err  error
		)
		if format == "html" {
			text, err = report.FullHTML(snap.Valid, snap.Opts)
		} else {
			text, err = report.Full(snap.Valid, snap.Opts)
		}
		if err != nil {
			return nil, "", err
		}
		return []byte(text), contentTypeFor(format), nil
	})
}

// handleFigureIndex lists the figure selectors with their titles and
// available formats.
func (s *Server) handleFigureIndex(w http.ResponseWriter, r *http.Request) {
	s.cached(w, r, "figures", "figures\x00index", func(snap *Snapshot) ([]byte, string, error) {
		type figureInfo struct {
			ID    string `json:"id"`
			Title string `json:"title"`
			SVG   bool   `json:"svg"`
		}
		ids := report.FigureIDs()
		out := make([]figureInfo, 0, len(ids))
		for _, id := range ids {
			out = append(out, figureInfo{ID: id, Title: report.FigureTitle(id), SVG: report.FigureHasSVG(id)})
		}
		return marshalJSON(out)
	})
}

// handleFigure serves one figure as text or SVG.
func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	format := queryDefault(r, "format", "text")
	if format != "text" && format != "svg" {
		http.Error(w, fmt.Sprintf("unknown format %q (want text or svg)", format), http.StatusBadRequest)
		return
	}
	if report.FigureTitle(id) == "" {
		http.Error(w, fmt.Sprintf("unknown figure %q (see /api/v1/figures)", id), http.StatusNotFound)
		return
	}
	s.cached(w, r, "figures", "figure\x00"+id+"\x00"+format, func(snap *Snapshot) ([]byte, string, error) {
		var (
			text string
			err  error
		)
		if format == "svg" {
			text, err = report.FigureSVG(snap.Valid, id)
		} else {
			text, err = report.Figure(snap.Valid, id)
		}
		if err != nil {
			return nil, "", err
		}
		return []byte(text), contentTypeFor(format), nil
	})
}

// metricTrend is the JSON shape of /api/v1/metrics/{ep,ee}: the corpus
// distribution plus the per-year trend of one metric.
type metricTrend struct {
	Metric  string        `json:"metric"`
	Summary stats.Summary `json:"summary"`
	Yearly  []yearMetric  `json:"yearly"`
}

type yearMetric struct {
	Year    int           `json:"year"`
	N       int           `json:"n"`
	Summary stats.Summary `json:"summary"`
}

// handleMetrics serves the EP/EE trends (Eq. 1 over the corpus) and the
// correlation analysis as JSON.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	metric := r.PathValue("metric")
	switch metric {
	case "ep", "ee", "correlations":
	default:
		http.Error(w, fmt.Sprintf("unknown metric %q (want ep, ee or correlations)", metric), http.StatusNotFound)
		return
	}
	s.cached(w, r, "metrics", "metrics\x00"+metric, func(snap *Snapshot) ([]byte, string, error) {
		if metric == "correlations" {
			corr, err := analysis.ComputeCorrelations(snap.Valid)
			if err != nil {
				return nil, "", err
			}
			return marshalJSON(corr)
		}
		values := snap.Valid.EPs()
		pick := func(ys analysis.YearStats) stats.Summary { return ys.EP }
		if metric == "ee" {
			values = snap.Valid.OverallEEs()
			pick = func(ys analysis.YearStats) stats.Summary { return ys.EE }
		}
		summary, err := stats.Describe(values)
		if err != nil {
			return nil, "", err
		}
		trend, err := analysis.YearlyTrend(snap.Valid)
		if err != nil {
			return nil, "", err
		}
		out := metricTrend{Metric: metric, Summary: summary, Yearly: make([]yearMetric, len(trend))}
		for i, ys := range trend {
			out.Yearly[i] = yearMetric{Year: ys.Year, N: ys.N, Summary: pick(ys)}
		}
		return marshalJSON(out)
	})
}

// serverJSON is one corpus submission as listed by /api/v1/servers.
type serverJSON struct {
	ID            string  `json:"id"`
	Vendor        string  `json:"vendor"`
	System        string  `json:"system"`
	HWAvailYear   int     `json:"hw_avail_year"`
	Family        string  `json:"family"`
	Codename      string  `json:"codename"`
	Nodes         int     `json:"nodes"`
	Chips         int     `json:"chips"`
	TotalCores    int     `json:"total_cores"`
	MemoryGB      float64 `json:"memory_gb"`
	EP            float64 `json:"ep"`
	OverallEE     float64 `json:"overall_ee"`
	IdleFraction  float64 `json:"idle_fraction"`
	PeakEEAtUtil  float64 `json:"peak_ee_utilization"`
	PeakEE        float64 `json:"peak_ee"`
	DynamicRange  float64 `json:"dynamic_range"`
	MemoryPerCore float64 `json:"memory_per_core"`
}

// handleServers lists valid corpus servers, optionally filtered by
// hardware availability year and by microarchitecture (family or
// codename, case-insensitive).
func (s *Server) handleServers(w http.ResponseWriter, r *http.Request) {
	year := 0
	if y := r.URL.Query().Get("year"); y != "" {
		v, err := strconv.Atoi(y)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad year %q", y), http.StatusBadRequest)
			return
		}
		year = v
	}
	arch := strings.ToLower(strings.TrimSpace(r.URL.Query().Get("arch")))
	key := "servers\x00" + strconv.Itoa(year) + "\x00" + arch
	s.cached(w, r, "servers", key, func(snap *Snapshot) ([]byte, string, error) {
		out := []serverJSON{}
		for _, res := range snap.Valid.All() {
			if year != 0 && res.HWAvailYear != year {
				continue
			}
			family := res.Codename.Family().String()
			codename := res.Codename.String()
			if arch != "" && strings.ToLower(family) != arch && strings.ToLower(codename) != arch {
				continue
			}
			out = append(out, serverJSON{
				ID:            res.ID,
				Vendor:        res.Vendor,
				System:        res.System,
				HWAvailYear:   res.HWAvailYear,
				Family:        family,
				Codename:      codename,
				Nodes:         res.Nodes,
				Chips:         res.Chips,
				TotalCores:    res.TotalCores(),
				MemoryGB:      res.MemoryGB,
				EP:            res.EP(),
				OverallEE:     res.OverallEE(),
				IdleFraction:  res.IdleFraction(),
				PeakEEAtUtil:  res.PeakEEUtilization(),
				PeakEE:        res.PeakEEValue(),
				DynamicRange:  res.DynamicRange(),
				MemoryPerCore: res.MemoryPerCore(),
			})
		}
		return marshalJSON(out)
	})
}

// handleSummary serves the machine-readable analysis bundle — the same
// payload as specanalyze -json.
func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) {
	s.cached(w, r, "summary", "summary", func(snap *Snapshot) ([]byte, string, error) {
		data, err := report.MarshalJSONSummary(snap.Repo)
		if err != nil {
			return nil, "", err
		}
		return data, "application/json", nil
	})
}

// handleReload swaps in a fresh snapshot. ?seed=N selects the new
// corpus/sweep seed (default: keep the current one).
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	seed := s.snap.Load().Seed
	if q := r.URL.Query().Get("seed"); q != "" {
		v, err := strconv.ParseInt(q, 10, 64)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad seed %q", q), http.StatusBadRequest)
			s.endpoints["reload"].observe(time.Since(start), false, true)
			return
		}
		seed = v
	}
	snap, err := s.Reload(seed)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		s.endpoints["reload"].observe(time.Since(start), false, true)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"seed\": %d, \"corpus\": %d, \"valid\": %d}\n", snap.Seed, snap.Repo.Len(), snap.Valid.Len())
	s.endpoints["reload"].observe(time.Since(start), false, false)
}

// marshalJSON renders a cacheable JSON payload.
func marshalJSON(v any) ([]byte, string, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, "", err
	}
	return append(data, '\n'), "application/json", nil
}

// contentTypeFor maps a format selector to its media type.
func contentTypeFor(format string) string {
	switch format {
	case "html":
		return "text/html; charset=utf-8"
	case "svg":
		return "image/svg+xml"
	default:
		return "text/plain; charset=utf-8"
	}
}

// queryDefault reads a query parameter with a default.
func queryDefault(r *http.Request, name, def string) string {
	if v := r.URL.Query().Get(name); v != "" {
		return v
	}
	return def
}
