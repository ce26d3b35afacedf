package serve

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/par"
)

// Key identifies one served corpus scenario: a generation seed plus an
// optional fleet size. The zero Servers value selects the full
// calibrated 517-submission corpus at that seed; a positive value
// selects a synth.GenerateFleetStore corpus of that many servers. Keys are
// value types and the whole identity of a workspace snapshot — the
// same key always loads a byte-identical corpus, which is what makes
// eviction followed by a reload safe (the reloaded snapshot serves the
// same payloads under the same ETags).
type Key struct {
	Seed    int64
	Servers int
}

// String renders the key as the corpus label its metric families
// carry: "seed=N" or "seed=N/servers=M".
func (k Key) String() string {
	if k.Servers > 0 {
		return fmt.Sprintf("seed=%d/servers=%d", k.Seed, k.Servers)
	}
	return fmt.Sprintf("seed=%d", k.Seed)
}

// Workspace is the keyed multi-corpus generalization of the single
// atomic snapshot: an LRU-bounded Key → *Snapshot map whose misses
// load through a par.Flight singleflight, so N concurrent first
// requests for one scenario build its corpus exactly once while other
// keys keep serving. Each resident snapshot carries its own byte
// cache, so the PR 3 render-once/ETag machinery applies per key.
//
// Hits take one short critical section (map lookup + LRU list splice);
// loads run outside the lock so a slow corpus build never blocks
// serving resident keys.
type Workspace struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used; values are *wsEntry
	byKey map[Key]*list.Element

	flight par.Flight[Key, *Snapshot]
	loader func(Key) (*Snapshot, error)

	hits      atomic.Int64
	misses    atomic.Int64
	loads     atomic.Int64
	coalesced atomic.Int64
	evictions atomic.Int64
}

// wsEntry is one resident scenario.
type wsEntry struct {
	key  Key
	snap *Snapshot
}

// DefaultWorkspaceCap bounds the resident scenarios when the Config
// does not say otherwise. Snapshots retain whole corpora plus their
// rendered byte caches, so the bound is deliberately small; tenants
// beyond it evict least-recently-used scenarios and reload on return.
const DefaultWorkspaceCap = 8

// NewWorkspace builds a workspace that loads missing keys with loader
// and retains at most capacity snapshots (<= 0 selects
// DefaultWorkspaceCap).
func NewWorkspace(capacity int, loader func(Key) (*Snapshot, error)) *Workspace {
	if capacity <= 0 {
		capacity = DefaultWorkspaceCap
	}
	return &Workspace{
		cap:    capacity,
		ll:     list.New(),
		byKey:  make(map[Key]*list.Element, capacity),
		loader: loader,
	}
}

// Get returns the snapshot for key, loading it on first use. Loads
// for the same key coalesce: no matter how many requests miss
// concurrently, the loader runs once and every caller shares its
// snapshot. A successful load makes the key most recently used and may
// evict the least recently used resident; a failed load caches
// nothing, so the next request retries.
func (ws *Workspace) Get(key Key) (*Snapshot, error) {
	if snap := ws.touch(key); snap != nil {
		ws.hits.Add(1)
		return snap, nil
	}
	ws.misses.Add(1)
	snap, err, shared := ws.flight.Do(key, func() (*Snapshot, error) {
		// Double-check under the flight: a concurrent execution may have
		// inserted the key between our touch and Do.
		if snap := ws.touch(key); snap != nil {
			return snap, nil
		}
		snap, err := ws.loader(key)
		if err != nil {
			return nil, err
		}
		ws.loads.Add(1)
		ws.insert(key, snap)
		return snap, nil
	})
	if shared {
		ws.coalesced.Add(1)
	}
	return snap, err
}

// touch returns key's resident snapshot and marks it most recently
// used, or nil when absent.
func (ws *Workspace) touch(key Key) *Snapshot {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	el, ok := ws.byKey[key]
	if !ok {
		return nil
	}
	ws.ll.MoveToFront(el)
	return el.Value.(*wsEntry).snap
}

// insert makes key resident and most recently used, evicting from the
// LRU end past capacity.
func (ws *Workspace) insert(key Key, snap *Snapshot) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if el, ok := ws.byKey[key]; ok {
		// A racing load finished first; keep its snapshot resident and
		// refresh recency.
		ws.ll.MoveToFront(el)
		return
	}
	ws.byKey[key] = ws.ll.PushFront(&wsEntry{key: key, snap: snap})
	for ws.ll.Len() > ws.cap {
		back := ws.ll.Back()
		ent := back.Value.(*wsEntry)
		ws.ll.Remove(back)
		delete(ws.byKey, ent.key)
		ws.evictions.Add(1)
	}
}

// Evict removes key from the workspace, reporting whether it was
// resident. In-flight loads are not interrupted.
func (ws *Workspace) Evict(key Key) bool {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	el, ok := ws.byKey[key]
	if !ok {
		return false
	}
	ws.ll.Remove(el)
	delete(ws.byKey, key)
	ws.evictions.Add(1)
	return true
}

// Resident returns the resident scenarios in recency order, most
// recently used first, without touching recency. The /metrics scrape
// walks it to emit every resident corpus under its own label.
func (ws *Workspace) Resident() []*Snapshot {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	out := make([]*Snapshot, 0, ws.ll.Len())
	for el := ws.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*wsEntry).snap)
	}
	return out
}

// Keys returns the resident keys in recency order, most recently used
// first, without touching recency.
func (ws *Workspace) Keys() []Key {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	out := make([]Key, 0, ws.ll.Len())
	for el := ws.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*wsEntry).key)
	}
	return out
}

// Len reports the resident snapshot count.
func (ws *Workspace) Len() int {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.ll.Len()
}

// Cap reports the capacity bound.
func (ws *Workspace) Cap() int { return ws.cap }

// WorkspaceStats is a workspace's point-in-time accounting.
type WorkspaceStats struct {
	Resident  int   `json:"resident"`
	Capacity  int   `json:"capacity"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Loads     int64 `json:"loads"`
	Coalesced int64 `json:"coalesced"`
	Evictions int64 `json:"evictions"`
}

// Stats reports the workspace counters.
func (ws *Workspace) Stats() WorkspaceStats {
	return WorkspaceStats{
		Resident:  ws.Len(),
		Capacity:  ws.cap,
		Hits:      ws.hits.Load(),
		Misses:    ws.misses.Load(),
		Loads:     ws.loads.Load(),
		Coalesced: ws.coalesced.Load(),
		Evictions: ws.evictions.Load(),
	}
}
