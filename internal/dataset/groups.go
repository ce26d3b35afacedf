package dataset

import (
	"cmp"
	"slices"
	"sort"
)

// Groups partitions rows by an integer key: Rows lists them by
// ascending key, each key's rows in store order (so a sum over a group
// adds in the order a filtered row scan would), and group g holds key
// Keys[g] and rows Rows[Off[g]:Off[g+1]].
type Groups struct {
	Keys []int
	Off  []int32 // len(Keys)+1
	Rows []int32
}

// At returns the rows of group g, in store order.
func (g *Groups) At(i int) []int32 { return g.Rows[g.Off[i]:g.Off[i+1]] }

// Span returns the rows whose keys lie in [from, to], by key, then row.
func (g *Groups) Span(from, to int) []int32 {
	lo := sort.SearchInts(g.Keys, from)
	hi := sort.Search(len(g.Keys), func(i int) bool { return g.Keys[i] > to })
	return g.Rows[g.Off[lo]:g.Off[max(lo, hi)]]
}

// GroupRows groups the rows of key by a stable counting sort, or, for
// keys spread wider than the rows (no disclosure column's), a stable
// comparison sort.
func GroupRows[K ~int | ~int32](key []K) *Groups {
	n := len(key)
	g := &Groups{Rows: make([]int32, n), Off: []int32{0}}
	if n == 0 {
		return g
	}
	lo, hi := slices.Min(key), slices.Max(key)
	if span := int64(hi) - int64(lo) + 1; span > int64(n)+256 {
		for i := range g.Rows {
			g.Rows[i] = int32(i)
		}
		slices.SortStableFunc(g.Rows, func(a, b int32) int { return cmp.Compare(key[a], key[b]) })
		g.Off = g.Off[:0]
		for i, r := range g.Rows {
			if i == 0 || key[r] != key[g.Rows[i-1]] {
				g.Keys, g.Off = append(g.Keys, int(key[r])), append(g.Off, int32(i))
			}
		}
		g.Off = append(g.Off, int32(n))
		return g
	}
	// next[k-lo] counts key k, then holds where its next row goes.
	next := make([]int32, int(hi-lo)+1)
	for _, k := range key {
		next[k-lo]++
	}
	at := int32(0)
	for i, c := range next {
		if c > 0 {
			g.Keys = append(g.Keys, int(lo)+i)
			next[i] = at
			at += c
			g.Off = append(g.Off, at)
		}
	}
	for i, k := range key {
		g.Rows[next[k-lo]] = int32(i)
		next[k-lo]++
	}
	return g
}

// HWYearGroups returns the rows grouped by hardware availability year,
// built once per store; treat it as read-only.
func (cs *ColumnStore) HWYearGroups() *Groups {
	return cs.Memoize("dataset.hwYearGroups", func() any { return GroupRows(cs.hwYears) }).(*Groups)
}
