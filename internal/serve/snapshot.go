package serve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/synth"
)

// Snapshot is one immutable serving generation: a corpus, the report
// options every rendered payload derives from, and the byte cache those
// payloads live in. Handlers load the current snapshot once per request
// and work entirely inside it, so a concurrent reload — which builds a
// fresh snapshot and swaps the pointer — never blocks or corrupts an
// in-flight response; old generations drain and are collected.
type Snapshot struct {
	// Repo is the full corpus; Valid the compliant subset every
	// analysis endpoint serves (mirroring the report pipeline).
	Repo  *dataset.Repository
	Valid *dataset.Repository
	// Seed identifies the corpus generation (0 for file-backed repos).
	Seed int64
	// Opts parameterize the /api/v1/report render, exactly as
	// specreport passes them to report.Full.
	Opts report.Options
	// Corpus is the label every metric family derived from this
	// snapshot carries — the workspace Key string for keyed scenarios,
	// "seed=N" for the default synthetic corpus, the dataset name for
	// file-backed servers.
	Corpus string

	cache Cache

	// The corpus and fleet gauge families are pure functions of the
	// immutable corpus, so they are computed once per snapshot on first
	// scrape and shared by every /metrics render thereafter.
	gaugesOnce  sync.Once
	gauges      []metrics.Family
	gaugesErr   error
	gaugesReady atomic.Bool
}

// NewSnapshot freezes an already-loaded repository into a serving
// snapshot. The repository must not be mutated afterwards; its metric
// caches are precomputed so even the first request runs warm analyses.
func NewSnapshot(rp *dataset.Repository, seed int64, opts report.Options) *Snapshot {
	valid := rp.Valid()
	valid.Precompute()
	return &Snapshot{Repo: rp, Valid: valid, Seed: seed, Opts: opts, Corpus: Key{Seed: seed}.String()}
}

// SynthSnapshot generates the calibrated synthetic corpus at seed and
// freezes it, mirroring what the report CLIs do when no dataset file is
// given.
func SynthSnapshot(seed int64, opts report.Options) (*Snapshot, error) {
	opts.Seed = seed
	rp, err := synthRepository(seed)
	if err != nil {
		return nil, err
	}
	return NewSnapshot(rp, seed, opts), nil
}

// synthRepository generates the calibrated synthetic corpus at seed —
// the corpus alone, which Reload then freezes into one snapshot.
func synthRepository(seed int64) (*dataset.Repository, error) {
	rp, err := synth.NewRepository(synth.Config{Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("serve: synthesize corpus: %w", err)
	}
	return rp, nil
}

// Cache exposes the snapshot's response cache (read-mostly; tests use
// it to assert fill behaviour).
func (s *Snapshot) Cache() *Cache { return &s.cache }
