// Package analysis implements the paper's analyses as pure functions
// over a dataset.Repository: yearly EP/EE trends (Fig. 2-4), the EP
// distribution (Fig. 5), microarchitecture groupings (Fig. 6-8), the
// pencil-head and almond envelopes (Fig. 9-12), economies of scale
// (Fig. 13-15), the peak-efficiency shift (Fig. 16), the memory-per-core
// breakdown (Table I / Fig. 17), the metric correlations and the idle-
// power regression (Eq. 2), the EP/EE asynchronization (§IV.B), and the
// published-vs-availability-year reorganization deltas (§I).
//
// Every analysis iterates the repository's columnar metric store
// (struct-of-arrays columns, see dataset.ColumnStore) instead of walking
// []*Result adapter views, so the suite scales to million-server fleet
// corpora; the arithmetic and iteration orders are exactly those of the
// original per-result loops, keeping the output bit-identical.
package analysis

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/dataset"
	"repro/internal/microarch"
	"repro/internal/par"
	"repro/internal/stats"
)

// ErrTooFewServers marks an analysis the corpus is too small to
// answer: the request was well-formed, the corpus cannot support it.
// The errors that carry it keep their own messages; match with
// errors.Is.
var ErrTooFewServers = errors.New("analysis: too few servers")

// tooFewError is a message-bearing error that unwraps to
// ErrTooFewServers.
type tooFewError struct{ msg string }

func (e *tooFewError) Error() string { return e.msg }
func (e *tooFewError) Unwrap() error { return ErrTooFewServers }

func tooFew(format string, args ...any) error {
	return &tooFewError{msg: fmt.Sprintf(format, args...)}
}

// mean returns the mean of col over the non-empty rows, adding in row
// order as stats.Mean over the gathered values does.
func mean(col []float64, rows []int32) float64 {
	var s float64
	for _, r := range rows {
		s += col[r]
	}
	return s / float64(len(rows))
}

// meanMedian returns mean(col, rows) and the rows' median.
func meanMedian(col []float64, rows []int32) (float64, float64) {
	xs := make([]float64, len(rows))
	for i, r := range rows {
		xs[i] = col[r]
	}
	median, _ := stats.MedianInPlace(xs)
	return mean(col, rows), median
}

// memoResult is a memoized (value, error) pair.
type memoResult[T any] struct {
	v   T
	err error
}

// memo returns build's result, built once per store under key (see
// dataset.ColumnStore.Memoize); callers share it and must treat it as
// read-only.
func memo[T any](cs *dataset.ColumnStore, key string, build func() (T, error)) (T, error) {
	m := cs.Memoize(key, func() any {
		v, err := build()
		return memoResult[T]{v, err}
	}).(memoResult[T])
	return m.v, m.err
}

// YearStats aggregates one hardware-availability year.
type YearStats struct {
	Year int
	N    int
	// EP and EE summarize energy proportionality and the overall
	// efficiency score; PeakEE summarizes the per-server best level
	// efficiency (the second family of series in Fig. 4).
	EP     stats.Summary
	EE     stats.Summary
	PeakEE stats.Summary
}

// YearlyTrend computes the Fig. 2-4 series grouped by hardware
// availability year, ascending. The series is memoized on the corpus
// (several report sections and the reorganization deltas all need it),
// so callers share one slice and must treat it as read-only.
func YearlyTrend(rp *dataset.Repository) ([]YearStats, error) {
	cs := rp.Columns()
	return memo(cs, "analysis.yearlyTrend.hw", func() ([]YearStats, error) {
		return yearlyTrend(cs, cs.HWYearGroups())
	})
}

// YearlyTrendByPublished computes the same series grouped by published
// year — the baseline the paper's reorganization argument (§I) compares
// against. Memoized like YearlyTrend; treat the result as read-only.
func YearlyTrendByPublished(rp *dataset.Repository) ([]YearStats, error) {
	cs := rp.Columns()
	return memo(cs, "analysis.yearlyTrend.pub", func() ([]YearStats, error) {
		return yearlyTrend(cs, dataset.GroupRows(cs.PubYearCol()))
	})
}

// yearlyTrend summarizes each group's EP, EE and peak EE, gathered in
// store order into one buffer per group and sorted there.
func yearlyTrend(cs *dataset.ColumnStore, years *dataset.Groups) ([]YearStats, error) {
	cols := [3][]float64{cs.EPCol(), cs.OverallEECol(), cs.PeakEECol()}
	out := make([]YearStats, len(years.Keys))
	err := par.ForEachErr(len(years.Keys), func(i int) error {
		rows := years.At(i)
		buf := make([]float64, len(rows))
		var sum [3]stats.Summary
		for c, col := range cols {
			for k, r := range rows {
				buf[k] = col[r]
			}
			var err error
			if sum[c], err = stats.DescribeInPlace(buf); err != nil {
				return fmt.Errorf("analysis: year %d: %w", years.Keys[i], err)
			}
		}
		out[i] = YearStats{Year: years.Keys[i], N: len(rows), EP: sum[0], EE: sum[1], PeakEE: sum[2]}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// EPDistribution returns the empirical CDF of energy proportionality
// (Fig. 5) and a decile histogram over [0, 1.1].
func EPDistribution(rp *dataset.Repository) (*stats.ECDF, *stats.Histogram, error) {
	eps := rp.Columns().EPCol()
	cdf, err := stats.NewECDF(eps)
	if err != nil {
		return nil, nil, fmt.Errorf("analysis: ep distribution: %w", err)
	}
	hist, err := stats.NewHistogram(eps, 0, 1.1, 11)
	if err != nil {
		return nil, nil, fmt.Errorf("analysis: ep distribution: %w", err)
	}
	return cdf, hist, nil
}

// FamilyCount is one Fig. 6 bar: servers per microarchitecture family.
type FamilyCount struct {
	Family microarch.Family
	Count  int
	MeanEP float64
}

// ByFamily groups servers by microarchitecture family in chronological
// family order (Fig. 6). Rows take their family from their codename
// group; each family's EPs add in store order, as a gathered mean does.
func ByFamily(rp *dataset.Repository) []FamilyCount {
	cs := rp.Columns()
	fams := microarch.AllFamilies()
	slot := make([]int8, cs.Len())
	codes := dataset.GroupRows(cs.CodenameCol())
	for i, code := range codes.Keys {
		f := int8(slices.Index(fams, microarch.Codename(code).Family()))
		for _, r := range codes.At(i) {
			slot[r] = f
		}
	}
	count := make([]int, len(fams))
	sum := make([]float64, len(fams))
	for r, ep := range cs.EPCol() {
		if f := slot[r]; f >= 0 {
			count[f]++
			sum[f] += ep
		}
	}
	out := make([]FamilyCount, 0, len(fams))
	for f, fam := range fams {
		if count[f] > 0 {
			out = append(out, FamilyCount{Family: fam, Count: count[f], MeanEP: sum[f] / float64(count[f])})
		}
	}
	return out
}

// CodenameStats is one Fig. 7 entry: servers and EP per processor
// generation.
type CodenameStats struct {
	Codename microarch.Codename
	Count    int
	MeanEP   float64
	MedianEP float64
}

// ByCodename groups servers by processor codename in chronological
// order (Fig. 7). The per-codename aggregation fans out across CPUs.
func ByCodename(rp *dataset.Repository) []CodenameStats {
	cs := rp.Columns()
	groups := dataset.GroupRows(cs.CodenameCol())
	var codes []microarch.Codename
	var members [][]int32
	for _, code := range append(microarch.AllCodenames(), microarch.UnknownCodename) {
		if rows := groups.Span(int(code), int(code)); len(rows) > 0 {
			codes, members = append(codes, code), append(members, rows)
		}
	}
	epCol := cs.EPCol()
	return par.Map(len(codes), func(i int) CodenameStats {
		mean, med := meanMedian(epCol, members[i])
		return CodenameStats{Codename: codes[i], Count: len(members[i]), MeanEP: mean, MedianEP: med}
	})
}

// MarchMixRow is one year of Fig. 8: the family mix of that year's
// servers.
type MarchMixRow struct {
	Year   int
	Counts map[microarch.Family]int
	Total  int
}

// MarchMix reports the per-year microarchitecture mix over [from, to]
// (Fig. 8 uses 2012-2016 to explain the specious stagnation). One pass
// over the year and codename columns tallies every year.
func MarchMix(rp *dataset.Repository, from, to int) []MarchMixRow {
	cs := rp.Columns()
	out := make([]MarchMixRow, 0, to-from+1)
	for y := from; y <= to; y++ {
		out = append(out, MarchMixRow{Year: y, Counts: make(map[microarch.Family]int)})
	}
	codes := cs.CodenameCol()
	for i, y := range cs.HWYearCol() {
		if int(y) < from || int(y) > to {
			continue
		}
		row := &out[int(y)-from]
		row.Total++
		row.Counts[codes[i].Family()]++
	}
	return out
}

// GroupStats aggregates servers sharing an integer key (node count or
// chip count).
type GroupStats struct {
	Key      int
	N        int
	MeanEP   float64
	MedianEP float64
	MeanEE   float64
	MedianEE float64
}

// ByNodes aggregates by total node count, ascending (Fig. 13). Groups
// smaller than minCount are dropped, mirroring the paper's ">2 counts"
// rule.
func ByNodes(rp *dataset.Repository, minCount int) []GroupStats {
	cs := rp.Columns()
	return groupStats(cs, dataset.GroupRows(cs.NodesCol()), nil, minCount)
}

// ByChips aggregates single-node servers by chip count (Fig. 14).
func ByChips(rp *dataset.Repository, minCount int) []GroupStats {
	cs := rp.Columns()
	nodes := cs.NodesCol()
	return groupStats(cs, dataset.GroupRows(cs.ChipsCol()), func(r int32) bool { return nodes[r] == 1 }, minCount)
}

// groupStats aggregates the rows keep accepts (nil: all) of each group
// left with at least minCount rows.
func groupStats(cs *dataset.ColumnStore, g *dataset.Groups, keep func(int32) bool, minCount int) []GroupStats {
	var keys []int
	var members [][]int32
	for i, k := range g.Keys {
		rows := g.At(i)
		if keep != nil {
			rows = slices.DeleteFunc(slices.Clone(rows), func(r int32) bool { return !keep(r) })
		}
		if len(rows) > 0 && len(rows) >= minCount {
			keys, members = append(keys, k), append(members, rows)
		}
	}
	epCol, eeCol := cs.EPCol(), cs.OverallEECol()
	return par.Map(len(keys), func(i int) GroupStats {
		rows := members[i]
		g := GroupStats{Key: keys[i], N: len(rows)}
		g.MeanEP, g.MedianEP = meanMedian(epCol, rows)
		g.MeanEE, g.MedianEE = meanMedian(eeCol, rows)
		return g
	})
}

// TwoChipComparison is the Fig. 15 aggregate: how 2-chip single-node
// servers compare with the whole corpus at the same hardware
// availability year, averaged over years.
type TwoChipComparison struct {
	// Per-year series, ascending by year.
	Years []TwoChipYear
	// Aggregate percentage advantages of the 2-chip group, averaged
	// over the years where both groups exist (paper: +2.94% mean EP,
	// +4.13% mean EE, +1.18% median EP, +6.26% median EE).
	MeanEPAdvantagePct   float64
	MeanEEAdvantagePct   float64
	MedianEPAdvantagePct float64
	MedianEEAdvantagePct float64
}

// TwoChipYear is one year of the Fig. 15 comparison.
type TwoChipYear struct {
	Year                         int
	TwoChipN                     int
	TwoChipMeanEP, AllMeanEP     float64
	TwoChipMeanEE, AllMeanEE     float64
	TwoChipMedianEP, AllMedianEP float64
	TwoChipMedianEE, AllMedianEE float64
}

// TwoChipVsAll compares 2-chip single-node servers against all servers
// per hardware availability year (Fig. 15).
func TwoChipVsAll(rp *dataset.Repository) TwoChipComparison {
	cs := rp.Columns()
	years := cs.HWYearGroups()
	nodes, chips := cs.NodesCol(), cs.ChipsCol()
	var at []int
	var two [][]int32
	for i := range years.Keys {
		rows := slices.DeleteFunc(slices.Clone(years.At(i)), func(r int32) bool { return nodes[r] != 1 || chips[r] != 2 })
		if len(rows) > 0 {
			at, two = append(at, i), append(two, rows)
		}
	}

	// The all-server medians are the year trend's (Describe and Median
	// read the same middle); its means add in sorted order, not row order.
	trend, _ := YearlyTrend(rp) // fails only on an empty year; none is
	epCol, eeCol := cs.EPCol(), cs.OverallEECol()
	var cmp TwoChipComparison
	var sumMeanEP, sumMeanEE, sumMedEP, sumMedEE float64
	cmp.Years = par.Map(len(at), func(i int) TwoChipYear {
		all := years.At(at[i])
		ty := TwoChipYear{Year: years.Keys[at[i]], TwoChipN: len(two[i])}
		ty.TwoChipMeanEP, ty.TwoChipMedianEP = meanMedian(epCol, two[i])
		ty.TwoChipMeanEE, ty.TwoChipMedianEE = meanMedian(eeCol, two[i])
		ty.AllMeanEP, ty.AllMeanEE = mean(epCol, all), mean(eeCol, all)
		ty.AllMedianEP, ty.AllMedianEE = trend[at[i]].EP.Median, trend[at[i]].EE.Median
		return ty
	})
	for _, ty := range cmp.Years {
		sumMeanEP += ty.TwoChipMeanEP/ty.AllMeanEP - 1
		sumMeanEE += ty.TwoChipMeanEE/ty.AllMeanEE - 1
		sumMedEP += ty.TwoChipMedianEP/ty.AllMedianEP - 1
		sumMedEE += ty.TwoChipMedianEE/ty.AllMedianEE - 1
	}
	if n := float64(len(cmp.Years)); n > 0 {
		cmp.MeanEPAdvantagePct = 100 * sumMeanEP / n
		cmp.MeanEEAdvantagePct = 100 * sumMeanEE / n
		cmp.MedianEPAdvantagePct = 100 * sumMedEP / n
		cmp.MedianEEAdvantagePct = 100 * sumMedEE / n
	}
	return cmp
}

// PeakShiftRow is one year of Fig. 16: at which utilization the year's
// servers reach peak efficiency. A server tying at two levels
// contributes two spots, which is why the corpus has 478 spots for 477
// servers.
type PeakShiftRow struct {
	Year   int
	Counts map[float64]int
	Spots  int
}

// PeakShift computes the Fig. 16 series by hardware availability year.
// Each year's tally reads the flattened peak-spot column in parallel.
func PeakShift(rp *dataset.Repository) []PeakShiftRow {
	cs := rp.Columns()
	years := cs.HWYearGroups()
	return par.Map(len(years.Keys), func(i int) PeakShiftRow {
		var t spotTally
		spots := t.add(cs, years.At(i))
		return PeakShiftRow{Year: years.Keys[i], Counts: t.counts(), Spots: spots}
	})
}

// PeakShiftShares aggregates peak-spot shares over a year interval,
// keyed by utilization level; shares are over servers (not spots),
// matching the paper's percentages.
func PeakShiftShares(rp *dataset.Repository, from, to int) map[float64]float64 {
	cs := rp.Columns()
	rows := cs.HWYearGroups().Span(from, to)
	var t spotTally
	t.add(cs, rows)
	counts := t.counts()
	out := make(map[float64]float64, len(counts))
	for u, c := range counts {
		out[u] = float64(c) / float64(len(rows))
	}
	return out
}

// spotTally counts peak-efficiency spots by utilization rounded to a
// tenth: by grid index, or for a spot off [0, 1] (a NaN utilization
// that passed the curve check) in a map keyed by its rounded value.
type spotTally struct {
	grid [11]int
	off  map[float64]int
}

// add tallies the spots of rows and returns how many there were.
func (t *spotTally) add(cs *dataset.ColumnStore, rows []int32) int {
	spotOff, spots := cs.PeakSpotOffsets(), cs.PeakSpotCol()
	n := 0
	for _, r := range rows {
		for s := spotOff[r]; s < spotOff[r+1]; s++ {
			if k := math.Round(spots[s] * 10); k >= 0 && k <= 10 {
				t.grid[int(k)]++
			} else {
				if t.off == nil {
					t.off = make(map[float64]int)
				}
				t.off[roundLevel(spots[s])]++
			}
			n++
		}
	}
	return n
}

// counts returns the tally keyed by rounded utilization.
func (t *spotTally) counts() map[float64]int {
	out := make(map[float64]int, len(t.off)+len(t.grid))
	for k, c := range t.grid {
		if c > 0 {
			out[float64(k)/10] = c
		}
	}
	for u, c := range t.off {
		out[u] = c
	}
	return out
}

func roundLevel(u float64) float64 { return math.Round(u*10) / 10 }

// MPCBucket is one Table I / Fig. 17 row.
type MPCBucket struct {
	GBPerCore float64
	Count     int
	MeanEP    float64
	MeanEE    float64
}

// MemoryPerCore buckets servers by memory-per-core ratio (rounded to
// two decimals) and keeps buckets with at least minCount servers —
// Table I uses 10, which keeps 430 of the 477 servers. The buckets are
// memoized per minCount (Table I and Fig. 17 share them); treat them as
// read-only.
func MemoryPerCore(rp *dataset.Repository, minCount int) []MPCBucket {
	cs := rp.Columns()
	buckets, _ := memo(cs, fmt.Sprintf("analysis.memoryPerCore.%d", minCount), func() ([]MPCBucket, error) {
		keys, ids := mpcBuckets(cs)
		g := dataset.GroupRows(ids)
		var kept []int
		for i := range g.Keys {
			if len(g.At(i)) >= minCount {
				kept = append(kept, i)
			}
		}
		// A bucket's key is its last row's (a float-keyed map assignment
		// rewrites the key, so ±0 keep the last sign); the first-seen ids
		// need this sort into sort.Float64s order, hundredths are in it.
		key := func(i int) float64 { rows := g.At(i); return keys[rows[len(rows)-1]] }
		slices.SortStableFunc(kept, func(a, b int) int { return cmp.Compare(key(a), key(b)) })
		epCol, eeCol := cs.EPCol(), cs.OverallEECol()
		return par.Map(len(kept), func(i int) MPCBucket {
			rows := g.At(kept[i])
			return MPCBucket{GBPerCore: key(kept[i]), Count: len(rows), MeanEP: mean(epCol, rows), MeanEE: mean(eeCol, rows)}
		}), nil
	})
	return buckets
}

// mpcBuckets returns each row's memory-per-core bucket key and id: the
// key in hundredths when every key fits an int32, as real disclosures'
// do, else the key's first-seen number (each NaN apart, as in a map).
func mpcBuckets(cs *dataset.ColumnStore) (keys []float64, ids []int32) {
	memGB, chips, cores := cs.MemoryGBCol(), cs.ChipsCol(), cs.CoresPerChipCol()
	keys = make([]float64, len(memGB))
	ids = make([]int32, len(memGB))
	hundredths := true
	for i := range memGB {
		mpc := 0.0
		if total := int(chips[i]) * int(cores[i]); total != 0 {
			mpc = memGB[i] / float64(total)
		}
		h := math.Round(mpc * 100)
		keys[i] = h / 100
		if hundredths = hundredths && h > math.MinInt32 && h < math.MaxInt32; hundredths {
			ids[i] = int32(h)
		}
	}
	if !hundredths {
		seen := make(map[float64]int32)
		next := int32(0)
		for i, k := range keys {
			id, ok := seen[k]
			if !ok { // always so for a NaN, which no lookup finds
				id, next = next, next+1
				seen[k] = id
			}
			ids[i] = id
		}
	}
	return keys, ids
}
