// Package serve is the repository's high-throughput serving layer: an
// HTTP daemon over an immutable corpus Snapshot whose figure, metric
// and report payloads are rendered at most once, stored as pre-encoded
// bytes (identity + gzip variants with strong ETags), and served from
// cache thereafter. Concurrent identical misses are coalesced through
// internal/par's singleflight, snapshot reloads swap atomically under
// readers, and /metrics exports per-endpoint request counters and
// latency histograms beside the corpus gauges.
package serve

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"sync/atomic"

	"repro/internal/par"
)

// Entry is one fully rendered response: immutable pre-encoded bytes
// plus the negotiation metadata written on every hit. Entries are
// shared between concurrent requests and must never be mutated.
type Entry struct {
	// Body is the identity-encoded payload.
	Body []byte
	// Gzip is the gzip variant, nil when compression did not pay
	// (tiny or incompressible payloads).
	Gzip []byte
	// ETag is the strong validator derived from Body.
	ETag string
	// ContentType is the payload's media type.
	ContentType string
}

// Cache is the byte-level response cache of one snapshot: a key →
// *Entry map filled through a singleflight so that N concurrent misses
// on one key render exactly once. The hot path is a single lock-free
// map read. Entries live for the snapshot's lifetime — invalidation is
// snapshot replacement, never per-key eviction, which is what makes
// serving them without copies safe.
type Cache struct {
	entries sync.Map // string → *Entry
	flight  par.Flight[string, *Entry]

	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64 // misses that joined another caller's render
	bytes     atomic.Int64 // identity+gzip payload bytes resident
	count     atomic.Int64 // entries resident
}

// Get returns the cached entry for key, rendering and caching it on
// first use. render runs at most once per key no matter how many
// requests miss concurrently; every caller gets the same *Entry. hit
// reports whether the entry was already resident.
func (c *Cache) Get(key string, render func() (body []byte, contentType string, err error)) (e *Entry, hit bool, err error) {
	if v, ok := c.entries.Load(key); ok {
		c.hits.Add(1)
		return v.(*Entry), true, nil
	}
	c.misses.Add(1)
	var shared bool
	e, err, shared = c.flight.Do(key, func() (*Entry, error) {
		// Double-check under the flight: a previous execution may have
		// filled the key between our Load and Do.
		if v, ok := c.entries.Load(key); ok {
			return v.(*Entry), nil
		}
		body, ctype, err := render()
		if err != nil {
			return nil, err
		}
		ent := newEntry(body, ctype)
		c.entries.Store(key, ent)
		c.count.Add(1)
		c.bytes.Add(int64(len(ent.Body) + len(ent.Gzip)))
		return ent, nil
	})
	if shared {
		c.coalesced.Add(1)
	}
	return e, false, err
}

// Peek returns the entry for key without rendering (nil when absent).
func (c *Cache) Peek(key string) *Entry {
	if v, ok := c.entries.Load(key); ok {
		return v.(*Entry)
	}
	return nil
}

// CacheStats is a cache's point-in-time accounting.
type CacheStats struct {
	Entries int64 `json:"entries"`
	Bytes   int64 `json:"bytes"`
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	// Coalesced counts misses that shared another caller's in-flight
	// render instead of rendering themselves.
	Coalesced int64 `json:"coalesced"`
}

// Stats reports the cache counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Entries:   c.count.Load(),
		Bytes:     c.bytes.Load(),
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
	}
}

// newEntry freezes a rendered body: computes the strong ETag and, when
// it pays, the gzip variant, using pooled compressors and buffers so
// concurrent fills do not allocate fresh 256 KiB gzip states.
func newEntry(body []byte, contentType string) *Entry {
	sum := sha256.Sum256(body)
	e := &Entry{
		Body:        body,
		ETag:        `"` + hex.EncodeToString(sum[:12]) + `"`,
		ContentType: contentType,
	}
	// Compressing tiny payloads costs more in headers than it saves.
	if len(body) >= gzipMinBytes {
		if gz := gzipBytes(body); len(gz) < len(body) {
			e.Gzip = gz
		}
	}
	return e
}

// gzipMinBytes is the payload size below which the gzip variant is not
// built.
const gzipMinBytes = 512

var (
	gzWriterPool = sync.Pool{New: func() any { return gzip.NewWriter(nil) }}
	gzBufPool    = sync.Pool{New: func() any { return new(bytes.Buffer) }}
)

// gzipBytes compresses body with a pooled writer and returns a fresh
// slice sized to the compressed length.
func gzipBytes(body []byte) []byte {
	buf := gzBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	zw := gzWriterPool.Get().(*gzip.Writer)
	zw.Reset(buf)
	_, werr := zw.Write(body)
	cerr := zw.Close()
	var out []byte
	if werr == nil && cerr == nil {
		out = append([]byte(nil), buf.Bytes()...)
	}
	gzWriterPool.Put(zw)
	gzBufPool.Put(buf)
	return out
}
