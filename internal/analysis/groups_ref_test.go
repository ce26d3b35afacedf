package analysis

import (
	"math"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/synth"
)

// refMemoryPerCore and refPeakShift are MemoryPerCore and PeakShift as
// they grouped rows before the year index: one map entry per key,
// appended to in row order.
func refMemoryPerCore(cs *dataset.ColumnStore, minCount int) []MPCBucket {
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
	out := make([]MPCBucket, len(keys))
	for i, k := range keys {
		g := groups[k]
		out[i] = MPCBucket{GBPerCore: k, Count: len(g), MeanEP: refMean(cs.EPCol(), g), MeanEE: refMean(cs.OverallEECol(), g)}
	}
	return out
}

func refMean(col []float64, rows []int32) float64 {
	xs := make([]float64, len(rows))
	for i, r := range rows {
		xs[i] = col[r]
	}
	m, _ := stats.Mean(xs)
	return m
}

func refPeakShift(cs *dataset.ColumnStore) []PeakShiftRow {
	byYear := make(map[int][]int32)
	for i, y := range cs.HWYearCol() {
		byYear[int(y)] = append(byYear[int(y)], int32(i))
	}
	var years []int
	for y := range byYear {
		years = append(years, y)
	}
	sort.Ints(years)
	spotOff, spots := cs.PeakSpotOffsets(), cs.PeakSpotCol()
	var out []PeakShiftRow
	for _, y := range years {
		row := PeakShiftRow{Year: y, Counts: make(map[float64]int)}
		for _, r := range byYear[y] {
			for s := spotOff[r]; s < spotOff[r+1]; s++ {
				row.Counts[math.Round(spots[s]*10)/10]++
				row.Spots++
			}
		}
		out = append(out, row)
	}
	return out
}

// TestGroupingsMatchMaps pins MemoryPerCore and PeakShift to the map
// groupings they replaced, bit for bit, on the corpus, a fleet, and a
// corpus edited to reach their fallbacks: memory-per-core ratios past
// an int32 of hundredths, ±0 ratios, and a peak-efficiency spot at a NaN
// utilization, which passes the curve check.
func TestGroupingsMatchMaps(t *testing.T) {
	corpus := validCorpus(t).All()
	edited := make([]*dataset.Result, len(corpus))
	for i, r := range corpus {
		edited[i] = r.Clone()
	}
	for i := 0; i < 12; i++ {
		edited[i].MemoryGB = 1e12 // the same ratio on every 2-chip, 8-core row
	}
	edited[20].MemoryGB = math.Copysign(0, -1)
	edited[21].MemoryGB = 0
	edited[22].MemoryGB = 1e300
	// Raise level 2's throughput so it holds the peak, then blank its
	// utilization: the spot lands at NaN.
	edited[30].Levels[2].OpsPerSec = edited[30].Levels[9].OpsPerSec * 10
	edited[30].Levels[2].TargetLoad = math.NaN()
	fleet, err := synth.GenerateFleetStore(synth.FleetConfig{Seed: 2, Servers: 3000})
	if err != nil {
		t.Fatal(err)
	}
	for name, rp := range map[string]*dataset.Repository{
		"corpus": validCorpus(t),
		"fleet":  dataset.NewColumnRepository(fleet),
		"edited": dataset.NewRepository(edited),
	} {
		cs := rp.Columns()
		for _, minCount := range []int{1, 2, 10} {
			got, want := MemoryPerCore(rp, minCount), refMemoryPerCore(cs, minCount)
			if !sameBuckets(got, want) {
				t.Errorf("%s: MemoryPerCore(%d) = %+v, want %+v", name, minCount, got, want)
			}
		}
		if got, want := PeakShift(rp), refPeakShift(cs); !sameShift(got, want) {
			t.Errorf("%s: PeakShift = %+v, want %+v", name, got, want)
		}
	}
}

// sameBuckets compares two bucket lists bit for bit, so that a NaN
// mean matches itself and a zero key's sign counts.
func sameBuckets(a, b []MPCBucket) bool {
	if len(a) != len(b) {
		return false
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i := range a {
		if a[i].Count != b[i].Count || !same(a[i].GBPerCore, b[i].GBPerCore) ||
			!same(a[i].MeanEP, b[i].MeanEP) || !same(a[i].MeanEE, b[i].MeanEE) {
			return false
		}
	}
	return true
}

// sameShift compares two Fig. 16 series, NaN keys by count.
func sameShift(a, b []PeakShiftRow) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Year != b[i].Year || a[i].Spots != b[i].Spots || len(a[i].Counts) != len(b[i].Counts) {
			return false
		}
		for u, c := range b[i].Counts {
			if u == u && a[i].Counts[u] != c {
				return false
			}
		}
	}
	return true
}
