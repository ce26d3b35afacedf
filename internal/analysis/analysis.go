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
	"errors"
	"fmt"
	"math"
	"sort"

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

// gather copies the column values at the given rows, in order.
func gather(col []float64, rows []int32) []float64 {
	out := make([]float64, len(rows))
	for i, r := range rows {
		out[i] = col[r]
	}
	return out
}

// groupRowsByInt buckets row indices by an int32 key column, preserving
// row order inside each bucket, and returns the sorted keys.
func groupRowsByInt(col []int32) (map[int][]int32, []int) {
	groups := make(map[int][]int32)
	for i, v := range col {
		groups[int(v)] = append(groups[int(v)], int32(i))
	}
	keys := make([]int, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return groups, keys
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
	return memoYearlyTrend(cs, "analysis.yearlyTrend.hw", cs.HWYearCol())
}

// YearlyTrendByPublished computes the same series grouped by published
// year — the baseline the paper's reorganization argument (§I) compares
// against. Memoized like YearlyTrend; treat the result as read-only.
func YearlyTrendByPublished(rp *dataset.Repository) ([]YearStats, error) {
	cs := rp.Columns()
	return memoYearlyTrend(cs, "analysis.yearlyTrend.pub", cs.PubYearCol())
}

// trendMemo is the cached (trend, error) pair for one grouping column.
type trendMemo struct {
	trend []YearStats
	err   error
}

func memoYearlyTrend(cs *dataset.ColumnStore, key string, yearCol []int32) ([]YearStats, error) {
	m := cs.Memoize(key, func() any {
		t, err := yearlyTrendBy(cs, yearCol)
		return trendMemo{trend: t, err: err}
	}).(trendMemo)
	return m.trend, m.err
}

func yearlyTrendBy(cs *dataset.ColumnStore, yearCol []int32) ([]YearStats, error) {
	groups, years := groupRowsByInt(yearCol)
	epCol, eeCol, peakCol := cs.EPCol(), cs.OverallEECol(), cs.PeakEECol()
	out := make([]YearStats, len(years))
	err := par.ForEachErr(len(years), func(i int) error {
		y := years[i]
		g := groups[y]
		epSum, err := stats.Describe(gather(epCol, g))
		if err != nil {
			return fmt.Errorf("analysis: year %d: %w", y, err)
		}
		eeSum, err := stats.Describe(gather(eeCol, g))
		if err != nil {
			return fmt.Errorf("analysis: year %d: %w", y, err)
		}
		peakSum, err := stats.Describe(gather(peakCol, g))
		if err != nil {
			return fmt.Errorf("analysis: year %d: %w", y, err)
		}
		out[i] = YearStats{Year: y, N: len(g), EP: epSum, EE: eeSum, PeakEE: peakSum}
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
	eps := rp.EPs()
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
// family order (Fig. 6).
func ByFamily(rp *dataset.Repository) []FamilyCount {
	cs := rp.Columns()
	groups := make(map[microarch.Family][]int32)
	for i, code := range cs.CodenameCol() {
		f := code.Family()
		groups[f] = append(groups[f], int32(i))
	}
	fams := make([]microarch.Family, 0, len(groups))
	for _, fam := range microarch.AllFamilies() {
		if _, ok := groups[fam]; ok {
			fams = append(fams, fam)
		}
	}
	epCol := cs.EPCol()
	return par.Map(len(fams), func(i int) FamilyCount {
		g := groups[fams[i]]
		return FamilyCount{Family: fams[i], Count: len(g), MeanEP: stats.MustMean(gather(epCol, g))}
	})
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
	groups := make(map[microarch.Codename][]int32)
	for i, code := range cs.CodenameCol() {
		groups[code] = append(groups[code], int32(i))
	}
	order := append(microarch.AllCodenames(), microarch.UnknownCodename)
	codes := make([]microarch.Codename, 0, len(groups))
	for _, code := range order {
		if _, ok := groups[code]; ok {
			codes = append(codes, code)
		}
	}
	epCol := cs.EPCol()
	return par.Map(len(codes), func(i int) CodenameStats {
		eps := gather(epCol, groups[codes[i]])
		med, _ := stats.Median(eps)
		return CodenameStats{
			Codename: codes[i],
			Count:    len(eps),
			MeanEP:   stats.MustMean(eps),
			MedianEP: med,
		}
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
	groups, _ := groupRowsByInt(cs.NodesCol())
	return groupStats(cs, groups, minCount)
}

// ByChips aggregates single-node servers by chip count (Fig. 14).
func ByChips(rp *dataset.Repository, minCount int) []GroupStats {
	cs := rp.Columns()
	nodes, chips := cs.NodesCol(), cs.ChipsCol()
	groups := make(map[int][]int32)
	for i, n := range nodes {
		if n == 1 {
			groups[int(chips[i])] = append(groups[int(chips[i])], int32(i))
		}
	}
	return groupStats(cs, groups, minCount)
}

func groupStats(cs *dataset.ColumnStore, groups map[int][]int32, minCount int) []GroupStats {
	keys := make([]int, 0, len(groups))
	for k := range groups {
		if len(groups[k]) >= minCount {
			keys = append(keys, k)
		}
	}
	sort.Ints(keys)
	epCol, eeCol := cs.EPCol(), cs.OverallEECol()
	return par.Map(len(keys), func(i int) GroupStats {
		k := keys[i]
		eps := gather(epCol, groups[k])
		ees := gather(eeCol, groups[k])
		medEP, _ := stats.Median(eps)
		medEE, _ := stats.Median(ees)
		return GroupStats{
			Key:      k,
			N:        len(eps),
			MeanEP:   stats.MustMean(eps),
			MedianEP: medEP,
			MeanEE:   stats.MustMean(ees),
			MedianEE: medEE,
		}
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
	hwYears, nodes, chips := cs.HWYearCol(), cs.NodesCol(), cs.ChipsCol()
	byYearAll := make(map[int][]int32)
	byYearTwo := make(map[int][]int32)
	for i, y := range hwYears {
		byYearAll[int(y)] = append(byYearAll[int(y)], int32(i))
		if nodes[i] == 1 && chips[i] == 2 {
			byYearTwo[int(y)] = append(byYearTwo[int(y)], int32(i))
		}
	}
	years := make([]int, 0, len(byYearTwo))
	for y := range byYearTwo {
		years = append(years, y)
	}
	sort.Ints(years)

	epCol, eeCol := cs.EPCol(), cs.OverallEECol()
	var cmp TwoChipComparison
	var sumMeanEP, sumMeanEE, sumMedEP, sumMedEE float64
	cmp.Years = par.Map(len(years), func(i int) TwoChipYear {
		y := years[i]
		twoEPs, twoEEs := gather(epCol, byYearTwo[y]), gather(eeCol, byYearTwo[y])
		allEPs, allEEs := gather(epCol, byYearAll[y]), gather(eeCol, byYearAll[y])
		ty := TwoChipYear{Year: y, TwoChipN: len(twoEPs)}
		ty.TwoChipMeanEP = stats.MustMean(twoEPs)
		ty.AllMeanEP = stats.MustMean(allEPs)
		ty.TwoChipMeanEE = stats.MustMean(twoEEs)
		ty.AllMeanEE = stats.MustMean(allEEs)
		ty.TwoChipMedianEP, _ = stats.Median(twoEPs)
		ty.AllMedianEP, _ = stats.Median(allEPs)
		ty.TwoChipMedianEE, _ = stats.Median(twoEEs)
		ty.AllMedianEE, _ = stats.Median(allEEs)
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
	byYear, years := groupRowsByInt(cs.HWYearCol())
	spotOff, spots := cs.PeakSpotOffsets(), cs.PeakSpotCol()
	return par.Map(len(years), func(i int) PeakShiftRow {
		y := years[i]
		row := PeakShiftRow{Year: y, Counts: make(map[float64]int)}
		for _, r := range byYear[y] {
			for s := spotOff[r]; s < spotOff[r+1]; s++ {
				row.Counts[roundLevel(spots[s])]++
				row.Spots++
			}
		}
		return row
	})
}

// PeakShiftShares aggregates peak-spot shares over a year interval,
// keyed by utilization level; shares are over servers (not spots),
// matching the paper's percentages.
func PeakShiftShares(rp *dataset.Repository, from, to int) map[float64]float64 {
	cs := rp.Columns()
	spotOff, spots := cs.PeakSpotOffsets(), cs.PeakSpotCol()
	counts := make(map[float64]int)
	servers := 0
	for i, y := range cs.HWYearCol() {
		if int(y) < from || int(y) > to {
			continue
		}
		servers++
		for s := spotOff[i]; s < spotOff[i+1]; s++ {
			counts[roundLevel(spots[s])]++
		}
	}
	out := make(map[float64]float64, len(counts))
	for u, c := range counts {
		out[u] = float64(c) / float64(servers)
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
// Table I uses 10, which keeps 430 of the 477 servers.
func MemoryPerCore(rp *dataset.Repository, minCount int) []MPCBucket {
	cs := rp.Columns()
	memGB, chips, cores := cs.MemoryGBCol(), cs.ChipsCol(), cs.CoresPerChipCol()
	groups := make(map[float64][]int32)
	for i := range memGB {
		mpc := 0.0
		if total := int(chips[i]) * int(cores[i]); total != 0 {
			mpc = memGB[i] / float64(total)
		}
		k := math.Round(mpc*100) / 100
		groups[k] = append(groups[k], int32(i))
	}
	keys := make([]float64, 0, len(groups))
	for k, g := range groups {
		if len(g) >= minCount {
			keys = append(keys, k)
		}
	}
	sort.Float64s(keys)
	epCol, eeCol := cs.EPCol(), cs.OverallEECol()
	return par.Map(len(keys), func(i int) MPCBucket {
		k := keys[i]
		return MPCBucket{
			GBPerCore: k,
			Count:     len(groups[k]),
			MeanEP:    stats.MustMean(gather(epCol, groups[k])),
			MeanEE:    stats.MustMean(gather(eeCol, groups[k])),
		}
	})
}
