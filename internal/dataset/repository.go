package dataset

import (
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/microarch"
)

// Repository is an in-memory collection of results with the filtering
// and grouping operations the analyses use. It is a read-only view over
// one ColumnStore: metric accessors (EPs, OverallEEs, SortByEP, …) and
// the internal analyses read struct-of-arrays columns, while All and
// the grouping helpers return []*Result adapter views (see
// ColumnStore.Result) that materialize on first row access.
//
// Concurrency contract: the store is immutable, and the row views are
// published once with a compare-and-swap, so readers never block and
// every caller sees the same row pointers.
type Repository struct {
	cs   *ColumnStore
	rows atomic.Pointer[[]*Result]
}

// NewRepository copies results into a new column store and wraps it.
// Later edits to results are not seen, and the repository's row views
// are its own copies, not the given pointers.
func NewRepository(results []*Result) *Repository {
	return NewColumnRepository(BuildColumns(results))
}

// NewColumnRepository builds a repository directly over a column store;
// []*Result views materialize lazily on first row access.
func NewColumnRepository(cs *ColumnStore) *Repository {
	return &Repository{cs: cs}
}

// resultsSlice returns the row views, materializing and publishing them
// on first use. The returned slice is shared: callers must not mutate
// it.
func (rp *Repository) resultsSlice() []*Result {
	if rows := rp.rows.Load(); rows != nil {
		return *rows
	}
	mat := rp.cs.Materialize()
	// If another goroutine won the race, adopt its view so row pointer
	// identity stays stable across calls.
	rp.rows.CompareAndSwap(nil, &mat)
	return *rp.rows.Load()
}

// Columns returns the repository's column store. The store and every
// column it exposes are read-only; the analyses iterate these columns
// directly instead of walking []*Result.
func (rp *Repository) Columns() *ColumnStore { return rp.cs }

// Precompute eagerly builds the derived metric columns in parallel. It
// is never required — the columns build themselves on first use — but
// lets callers pay the cold cost up front, e.g. before serving queries.
func (rp *Repository) Precompute() { rp.cs.derivedCols() }

func copyColumn(col []float64) []float64 {
	return append([]float64(nil), col...)
}

// Len returns the number of stored results.
func (rp *Repository) Len() int { return rp.cs.Len() }

// All returns the row views (shared pointers, fresh slice).
func (rp *Repository) All() []*Result {
	return append([]*Result(nil), rp.resultsSlice()...)
}

// Valid returns a repository containing only compliant results — the
// paper's 517 → 477 step — reading the compliance column (computed in
// parallel on the cold build) and preserving repository order. It
// returns the receiver when every result is compliant.
func (rp *Repository) Valid() *Repository {
	if rp.cs.AllCompliant() {
		return rp
	}
	comp := rp.cs.ComplianceCol()
	return rp.filter(func(i int) bool { return comp[i] })
}

// NonCompliant returns the results that fail validation.
func (rp *Repository) NonCompliant() *Repository {
	comp := rp.cs.ComplianceCol()
	return rp.filter(func(i int) bool { return !comp[i] })
}

// filter returns a repository over the rows keep accepts, in order.
func (rp *Repository) filter(keep func(i int) bool) *Repository {
	n := rp.cs.Len()
	rows := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if keep(i) {
			rows = append(rows, int32(i))
		}
	}
	return NewColumnRepository(rp.cs.Gather(rows))
}

// SingleNode returns only single-node results.
func (rp *Repository) SingleNode() *Repository {
	nodes := rp.cs.nodes
	return rp.filter(func(i int) bool { return nodes[i] == 1 })
}

// MultiNode returns only results with more than one node.
func (rp *Repository) MultiNode() *Repository {
	nodes := rp.cs.nodes
	return rp.filter(func(i int) bool { return nodes[i] > 1 })
}

// YearRange returns results whose hardware availability year lies in
// [from, to] inclusive.
func (rp *Repository) YearRange(from, to int) *Repository {
	years := rp.cs.hwYears
	return rp.filter(func(i int) bool {
		y := int(years[i])
		return y >= from && y <= to
	})
}

// YearMismatched returns results whose published year differs from their
// hardware availability year — the 74 results (15.5%) the paper calls
// out.
func (rp *Repository) YearMismatched() *Repository {
	pub, hw := rp.cs.pubYears, rp.cs.hwYears
	return rp.filter(func(i int) bool { return pub[i] != hw[i] })
}

// ByHWYear groups results by hardware availability year.
func (rp *Repository) ByHWYear() map[int][]*Result {
	return rp.groupInt(func(r *Result) int { return r.HWAvailYear })
}

// ByNodes groups results by total node count.
func (rp *Repository) ByNodes() map[int][]*Result {
	return rp.groupInt(func(r *Result) int { return r.Nodes })
}

// ByChips groups results by total chip count.
func (rp *Repository) ByChips() map[int][]*Result {
	return rp.groupInt(func(r *Result) int { return r.Chips })
}

func (rp *Repository) groupInt(key func(*Result) int) map[int][]*Result {
	out := make(map[int][]*Result)
	for _, r := range rp.resultsSlice() {
		k := key(r)
		out[k] = append(out[k], r)
	}
	return out
}

// ByFamily groups results by microarchitecture family (Fig. 6).
func (rp *Repository) ByFamily() map[microarch.Family][]*Result {
	out := make(map[microarch.Family][]*Result)
	for _, r := range rp.resultsSlice() {
		f := r.Codename.Family()
		out[f] = append(out[f], r)
	}
	return out
}

// ByCodename groups results by processor codename (Fig. 7).
func (rp *Repository) ByCodename() map[microarch.Codename][]*Result {
	out := make(map[microarch.Codename][]*Result)
	for _, r := range rp.resultsSlice() {
		out[r.Codename] = append(out[r.Codename], r)
	}
	return out
}

// HWYears returns the distinct hardware availability years in ascending
// order.
func (rp *Repository) HWYears() []int {
	years := distinctInt32(rp.cs.hwYears)
	sort.Ints(years)
	return years
}

func distinctInt32(col []int32) []int {
	seen := make(map[int]bool)
	for _, v := range col {
		seen[int(v)] = true
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	return out
}

// EPs returns the energy proportionality of every result, in repository
// order. The values come from the metric columns; only the returned
// slice is freshly allocated.
func (rp *Repository) EPs() []float64 {
	return copyColumn(rp.cs.EPCol())
}

// OverallEEs returns the SPECpower score of every result, in repository
// order.
func (rp *Repository) OverallEEs() []float64 {
	return copyColumn(rp.cs.OverallEECol())
}

// PeakEEs returns every result's peak energy efficiency, in repository
// order.
func (rp *Repository) PeakEEs() []float64 {
	return copyColumn(rp.cs.PeakEECol())
}

// PeakEEUtilizations returns, for every result in repository order, the
// lowest utilization at which its peak efficiency occurs.
func (rp *Repository) PeakEEUtilizations() []float64 {
	return copyColumn(rp.cs.PeakEEUtilCol())
}

// IdleFractions returns every result's idle-to-peak power ratio, in
// repository order.
func (rp *Repository) IdleFractions() []float64 {
	return copyColumn(rp.cs.IdleFractionCol())
}

// DynamicRanges returns every result's normalized power swing, in
// repository order.
func (rp *Repository) DynamicRanges() []float64 {
	return copyColumn(rp.cs.DynamicRangeCol())
}

// PeakOverFullRatios returns every result's peak-over-full-load
// efficiency ratio, in repository order.
func (rp *Repository) PeakOverFullRatios() []float64 {
	return copyColumn(rp.cs.PeakOverFullCol())
}

// SortByEP returns the results sorted by ascending EP (stable, copy).
// The sort compares precomputed column keys, so it costs O(n log n)
// float comparisons rather than O(n log n) curve rebuilds.
func (rp *Repository) SortByEP() []*Result {
	return rp.sortByKey(rp.cs.EPCol())
}

// sortByKey stable-sorts a copy of the results by the given column,
// which must be index-aligned with the repository order.
func (rp *Repository) sortByKey(keys []float64) []*Result {
	idx := ArgsortStable(keys)
	all := rp.resultsSlice()
	out := make([]*Result, len(idx))
	for i, j := range idx {
		out[i] = all[j]
	}
	return out
}

// ArgsortStable returns the index permutation that stable-sorts keys
// ascending: out[k] is the row index of the k-th smallest key, equal
// keys staying in row order. NaNs compare equal to everything, matching
// a stable sort under the < comparator.
func ArgsortStable(keys []float64) []int32 {
	for _, k := range keys {
		if k != k { // NaN: the < comparator is no longer a total preorder
			return argsortStableSlow(keys)
		}
	}
	// NaN-free keys: an unstable sort of (key, index) pairs under the
	// lexicographic order produces exactly the stable permutation —
	// ties break on the original index — and runs well ahead of a
	// stable merge over an index slice, because the comparator touches
	// adjacent pair memory instead of random key positions.
	pairs := make([]argsortPair, len(keys))
	for i := range pairs {
		pairs[i] = argsortPair{k: keys[i], i: int32(i)}
	}
	slices.SortFunc(pairs, func(a, b argsortPair) int {
		if a.k < b.k {
			return -1
		}
		if a.k > b.k {
			return 1
		}
		return int(a.i) - int(b.i)
	})
	idx := make([]int32, len(pairs))
	for i := range pairs {
		idx[i] = pairs[i].i
	}
	return idx
}

type argsortPair struct {
	k float64
	i int32
}

// argsortStableSlow is the reference stable argsort, kept for samples
// containing NaN (where the comparator below is not a strict weak
// order and only a stable sort pins the output).
func argsortStableSlow(keys []float64) []int32 {
	idx := make([]int32, len(keys))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortStableFunc(idx, func(a, b int32) int {
		ka, kb := keys[a], keys[b]
		if ka < kb {
			return -1
		}
		if ka > kb {
			return 1
		}
		return 0
	})
	return idx
}

// IDs returns every result ID in repository order.
func (rp *Repository) IDs() []string {
	return append([]string(nil), rp.cs.ids...)
}
