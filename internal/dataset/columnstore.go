package dataset

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/microarch"
	"repro/internal/par"
)

// ColumnStore is the struct-of-arrays primary representation of a
// corpus: every disclosure field lives in its own index-aligned column,
// and the variable-length measurement levels are flattened into shared
// arrays addressed by a prefix-sum offset column. Analyses iterate the
// columns directly — no pointer chasing, no per-result slices — which
// is what keeps million-server corpora in the low-single-digit-second
// range on the repository's hot paths.
//
// A ColumnStore is immutable after construction. The raw columns are
// fixed at build time; the derived metric layer (EP, overall EE, peak
// EE and its spots, idle fraction, dynamic range, compliance flags) is
// computed once on first use, by core.Curve over each row's level
// columns, and published atomically, so concurrent readers are safe.
// All *Col accessors return the backing arrays without copying, and
// Curve wraps them: callers must treat them as read-only.
type ColumnStore struct {
	n int

	// String columns.
	ids, vendors, systems, cpuModels, jvms, oss []string

	// Integer columns.
	formFactors  []FormFactor
	pubYears     []int32
	pubQuarters  []int32
	hwYears      []int32
	hwQuarters   []int32
	nodes        []int32
	chips        []int32
	coresPerChip []int32
	codenames    []microarch.Codename

	// Float columns.
	nominalGHz []float64
	memoryGB   []float64
	idleWatts  []float64

	// Flattened level columns: row i's levels occupy
	// [levelOff[i], levelOff[i+1]) in each of the four arrays.
	levelOff    []int32 // length n+1
	levelTarget []float64
	levelActual []float64
	levelOps    []float64
	levelPower  []float64

	mu      sync.Mutex // serializes the derived build
	derived atomic.Pointer[derivedColumns]

	// memo caches corpus-level analysis artifacts (yearly trends,
	// the year index, …) keyed by name; see Memoize.
	memo sync.Map
}

// derivedColumns is the metric layer computed from the raw columns: the
// scalars Result's memoized bundle holds, plus a flattened peak-spot
// array, plus validity flags.
type derivedColumns struct {
	eps          []float64
	ees          []float64
	peakEEs      []float64
	peakEEUtils  []float64 // lowest peak-efficiency utilization per row
	idleFracs    []float64
	dynRanges    []float64
	peakOverFull []float64

	// Peak-efficiency spots (ties included, ascending): row i's spots
	// occupy [spotOff[i], spotOff[i+1]).
	spotOff []int32
	spots   []float64

	curveOK   []bool
	compliant []bool

	allCurvesOK  bool
	allCompliant bool
}

// Len returns the number of rows.
func (cs *ColumnStore) Len() int { return cs.n }

// Levels returns the total flattened level count.
func (cs *ColumnStore) Levels() int { return int(cs.levelOff[cs.n]) }

// Raw column accessors (no copy; treat as read-only).

func (cs *ColumnStore) IDCol() []string                   { return cs.ids }
func (cs *ColumnStore) PubYearCol() []int32               { return cs.pubYears }
func (cs *ColumnStore) HWYearCol() []int32                { return cs.hwYears }
func (cs *ColumnStore) NodesCol() []int32                 { return cs.nodes }
func (cs *ColumnStore) ChipsCol() []int32                 { return cs.chips }
func (cs *ColumnStore) CoresPerChipCol() []int32          { return cs.coresPerChip }
func (cs *ColumnStore) CodenameCol() []microarch.Codename { return cs.codenames }
func (cs *ColumnStore) MemoryGBCol() []float64            { return cs.memoryGB }

// Derived column accessors. Each builds the metric layer on first use.

func (cs *ColumnStore) EPCol() []float64           { return cs.derivedCols().eps }
func (cs *ColumnStore) OverallEECol() []float64    { return cs.derivedCols().ees }
func (cs *ColumnStore) PeakEECol() []float64       { return cs.derivedCols().peakEEs }
func (cs *ColumnStore) PeakEEUtilCol() []float64   { return cs.derivedCols().peakEEUtils }
func (cs *ColumnStore) IdleFractionCol() []float64 { return cs.derivedCols().idleFracs }
func (cs *ColumnStore) DynamicRangeCol() []float64 { return cs.derivedCols().dynRanges }
func (cs *ColumnStore) PeakOverFullCol() []float64 { return cs.derivedCols().peakOverFull }
func (cs *ColumnStore) PeakSpotOffsets() []int32   { return cs.derivedCols().spotOff }
func (cs *ColumnStore) PeakSpotCol() []float64     { return cs.derivedCols().spots }
func (cs *ColumnStore) CurveOKCol() []bool         { return cs.derivedCols().curveOK }
func (cs *ColumnStore) ComplianceCol() []bool      { return cs.derivedCols().compliant }

// AllCurvesOK reports whether every row builds a valid curve.
func (cs *ColumnStore) AllCurvesOK() bool { return cs.derivedCols().allCurvesOK }

// AllCompliant reports whether every row passes Validate.
func (cs *ColumnStore) AllCompliant() bool { return cs.derivedCols().allCompliant }

// Memoize returns the store-lifetime cached value under key, building
// it on first use, so report sections that share an aggregate (e.g. the
// per-year trend) compute it once per corpus. Each key builds once:
// concurrent first callers wait for that build (a sync.OnceValue) and
// share its value — treat it as read-only — and a build that panics
// re-panics with its value in every caller. A build may memoize other
// keys but must never reach its own, which would wait on itself.
func (cs *ColumnStore) Memoize(key string, build func() any) any {
	f, ok := cs.memo.Load(key)
	if !ok {
		f, _ = cs.memo.LoadOrStore(key, sync.OnceValue(build))
	}
	return f.(func() any)()
}

// Result materializes row i as a standalone *Result with a fresh metric
// cache. The returned result is an adapter view: it carries copies of
// the row's fields, so mutating it never affects the store.
func (cs *ColumnStore) Result(i int) *Result {
	lo, hi := cs.levelOff[i], cs.levelOff[i+1]
	levels := make([]LoadLevel, hi-lo)
	for j := range levels {
		k := lo + int32(j)
		levels[j] = LoadLevel{
			TargetLoad:    cs.levelTarget[k],
			ActualLoad:    cs.levelActual[k],
			OpsPerSec:     cs.levelOps[k],
			AvgPowerWatts: cs.levelPower[k],
		}
	}
	return &Result{
		ID:               cs.ids[i],
		Vendor:           cs.vendors[i],
		System:           cs.systems[i],
		FormFactor:       cs.formFactors[i],
		PublishedYear:    int(cs.pubYears[i]),
		PublishedQuarter: int(cs.pubQuarters[i]),
		HWAvailYear:      int(cs.hwYears[i]),
		HWAvailQuarter:   int(cs.hwQuarters[i]),
		Nodes:            int(cs.nodes[i]),
		Chips:            int(cs.chips[i]),
		CoresPerChip:     int(cs.coresPerChip[i]),
		CPUModel:         cs.cpuModels[i],
		Codename:         cs.codenames[i],
		NominalGHz:       cs.nominalGHz[i],
		MemoryGB:         cs.memoryGB[i],
		JVM:              cs.jvms[i],
		OS:               cs.oss[i],
		ActiveIdleWatts:  cs.idleWatts[i],
		Levels:           levels,
	}
}

// Materialize builds the full []*Result adapter view in parallel.
func (cs *ColumnStore) Materialize() []*Result {
	return par.Map(cs.n, cs.Result)
}

// derivedCols returns the metric layer, deriving it (derive.go) from
// the raw columns on first use. Concurrent first
// callers are serialized; the winner publishes atomically.
func (cs *ColumnStore) derivedCols() *derivedColumns {
	if d := cs.derived.Load(); d != nil {
		return d
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if d := cs.derived.Load(); d != nil {
		return d
	}
	d := newDerivedColumns(cs.n)
	cs.fillDerived(d)
	cs.derived.Store(d)
	return d
}

// newDerivedColumns allocates a metric layer for n rows. The peak spots
// are sized by the caller.
func newDerivedColumns(n int) *derivedColumns {
	return &derivedColumns{
		eps:          make([]float64, n),
		ees:          make([]float64, n),
		peakEEs:      make([]float64, n),
		peakEEUtils:  make([]float64, n),
		idleFracs:    make([]float64, n),
		dynRanges:    make([]float64, n),
		peakOverFull: make([]float64, n),
		spotOff:      make([]int32, n+1),
		curveOK:      make([]bool, n),
		compliant:    make([]bool, n),
	}
}

// Curve wraps row i's level columns in a core.Curve without copying
// them. The row's curve must be valid (CurveOKCol); CurveErr says why
// it is not.
func (cs *ColumnStore) Curve(i int) *core.Curve {
	lo, hi := cs.levelOff[i], cs.levelOff[i+1]
	return core.LevelCurve(cs.idleWatts[i], cs.levelTarget[lo:hi], cs.levelOps[lo:hi], cs.levelPower[lo:hi])
}

// CurveErr returns the curve-construction error of row i (nil for valid
// rows), worded as Result.Curve words it.
func (cs *ColumnStore) CurveErr(i int) error {
	if err := cs.checkCurve(i); err != nil {
		return curveError(cs.ids[i], err)
	}
	return nil
}

// FirstCurveErr returns the first invalid row's curve error, the one a
// curve-building row loop meets first, or nil when every curve is valid.
func (cs *ColumnStore) FirstCurveErr() error {
	if cs.AllCurvesOK() {
		return nil
	}
	return cs.CurveErr(slices.Index(cs.CurveOKCol(), false))
}

// ColumnBuilder accumulates results into a ColumnStore row by row.
type ColumnBuilder struct {
	cs *ColumnStore
}

// NewColumnBuilder returns a builder with capacity hints for rows and
// flattened levels (either may be zero).
func NewColumnBuilder(rowCap, levelCap int) *ColumnBuilder {
	return &ColumnBuilder{
		cs: &ColumnStore{
			ids:          make([]string, 0, rowCap),
			vendors:      make([]string, 0, rowCap),
			systems:      make([]string, 0, rowCap),
			cpuModels:    make([]string, 0, rowCap),
			jvms:         make([]string, 0, rowCap),
			oss:          make([]string, 0, rowCap),
			formFactors:  make([]FormFactor, 0, rowCap),
			pubYears:     make([]int32, 0, rowCap),
			pubQuarters:  make([]int32, 0, rowCap),
			hwYears:      make([]int32, 0, rowCap),
			hwQuarters:   make([]int32, 0, rowCap),
			nodes:        make([]int32, 0, rowCap),
			chips:        make([]int32, 0, rowCap),
			coresPerChip: make([]int32, 0, rowCap),
			codenames:    make([]microarch.Codename, 0, rowCap),
			nominalGHz:   make([]float64, 0, rowCap),
			memoryGB:     make([]float64, 0, rowCap),
			idleWatts:    make([]float64, 0, rowCap),
			levelOff:     append(make([]int32, 0, rowCap+1), 0),
			levelTarget:  make([]float64, 0, levelCap),
			levelActual:  make([]float64, 0, levelCap),
			levelOps:     make([]float64, 0, levelCap),
			levelPower:   make([]float64, 0, levelCap),
		},
	}
}

// Append adds one result's fields as a new row.
func (b *ColumnBuilder) Append(r *Result) {
	cs := b.cs
	cs.ids = append(cs.ids, r.ID)
	cs.vendors = append(cs.vendors, r.Vendor)
	cs.systems = append(cs.systems, r.System)
	cs.cpuModels = append(cs.cpuModels, r.CPUModel)
	cs.jvms = append(cs.jvms, r.JVM)
	cs.oss = append(cs.oss, r.OS)
	cs.formFactors = append(cs.formFactors, r.FormFactor)
	cs.pubYears = append(cs.pubYears, int32(r.PublishedYear))
	cs.pubQuarters = append(cs.pubQuarters, int32(r.PublishedQuarter))
	cs.hwYears = append(cs.hwYears, int32(r.HWAvailYear))
	cs.hwQuarters = append(cs.hwQuarters, int32(r.HWAvailQuarter))
	cs.nodes = append(cs.nodes, int32(r.Nodes))
	cs.chips = append(cs.chips, int32(r.Chips))
	cs.coresPerChip = append(cs.coresPerChip, int32(r.CoresPerChip))
	cs.codenames = append(cs.codenames, r.Codename)
	cs.nominalGHz = append(cs.nominalGHz, r.NominalGHz)
	cs.memoryGB = append(cs.memoryGB, r.MemoryGB)
	cs.idleWatts = append(cs.idleWatts, r.ActiveIdleWatts)
	for _, lv := range r.Levels {
		cs.levelTarget = append(cs.levelTarget, lv.TargetLoad)
		cs.levelActual = append(cs.levelActual, lv.ActualLoad)
		cs.levelOps = append(cs.levelOps, lv.OpsPerSec)
		cs.levelPower = append(cs.levelPower, lv.AvgPowerWatts)
	}
	cs.levelOff = append(cs.levelOff, int32(len(cs.levelTarget)))
	cs.n++
}

// Store finalizes the builder. The builder must not be used afterwards.
func (b *ColumnBuilder) Store() *ColumnStore { return b.cs }

// BuildColumns copies the results' raw disclosure fields into a new
// ColumnStore. The derived metric layer is computed from the columns on
// first use, so the store never reads the results' memoized metrics.
func BuildColumns(results []*Result) *ColumnStore {
	levels := 0
	for _, r := range results {
		levels += len(r.Levels)
	}
	b := NewColumnBuilder(len(results), levels)
	for _, r := range results {
		b.Append(r)
	}
	return b.Store()
}

// Gather builds a new store holding the given rows, in order. The
// derived layer is gathered too when it has already been built, so
// filtering a warm store never recomputes a metric.
func (cs *ColumnStore) Gather(rows []int32) *ColumnStore {
	n := len(rows)
	out := &ColumnStore{
		n:            n,
		ids:          make([]string, n),
		vendors:      make([]string, n),
		systems:      make([]string, n),
		cpuModels:    make([]string, n),
		jvms:         make([]string, n),
		oss:          make([]string, n),
		formFactors:  make([]FormFactor, n),
		pubYears:     make([]int32, n),
		pubQuarters:  make([]int32, n),
		hwYears:      make([]int32, n),
		hwQuarters:   make([]int32, n),
		nodes:        make([]int32, n),
		chips:        make([]int32, n),
		coresPerChip: make([]int32, n),
		codenames:    make([]microarch.Codename, n),
		nominalGHz:   make([]float64, n),
		memoryGB:     make([]float64, n),
		idleWatts:    make([]float64, n),
		levelOff:     make([]int32, n+1),
	}
	levels := 0
	for i, r := range rows {
		levels += int(cs.levelOff[r+1] - cs.levelOff[r])
		out.levelOff[i+1] = int32(levels)
	}
	out.levelTarget = make([]float64, levels)
	out.levelActual = make([]float64, levels)
	out.levelOps = make([]float64, levels)
	out.levelPower = make([]float64, levels)
	d := cs.derived.Load()
	var od *derivedColumns
	if d != nil {
		od = newDerivedColumns(n)
		spots := 0
		for i, r := range rows {
			spots += int(d.spotOff[r+1] - d.spotOff[r])
			od.spotOff[i+1] = int32(spots)
		}
		od.spots = make([]float64, spots)
	}
	// Contiguous row ranges per worker: interleaved indices would have
	// the workers writing the same cache lines of every output column.
	chunks := par.Chunks(n)
	par.ForEach(len(chunks), func(ci int) {
		for i := chunks[ci].Lo; i < chunks[ci].Hi; i++ {
			r := rows[i]
			out.ids[i] = cs.ids[r]
			out.vendors[i] = cs.vendors[r]
			out.systems[i] = cs.systems[r]
			out.cpuModels[i] = cs.cpuModels[r]
			out.jvms[i] = cs.jvms[r]
			out.oss[i] = cs.oss[r]
			out.formFactors[i] = cs.formFactors[r]
			out.pubYears[i] = cs.pubYears[r]
			out.pubQuarters[i] = cs.pubQuarters[r]
			out.hwYears[i] = cs.hwYears[r]
			out.hwQuarters[i] = cs.hwQuarters[r]
			out.nodes[i] = cs.nodes[r]
			out.chips[i] = cs.chips[r]
			out.coresPerChip[i] = cs.coresPerChip[r]
			out.codenames[i] = cs.codenames[r]
			out.nominalGHz[i] = cs.nominalGHz[r]
			out.memoryGB[i] = cs.memoryGB[r]
			out.idleWatts[i] = cs.idleWatts[r]
			dst, src := out.levelOff[i], cs.levelOff[r]
			width := out.levelOff[i+1] - dst
			copy(out.levelTarget[dst:dst+width], cs.levelTarget[src:src+width])
			copy(out.levelActual[dst:dst+width], cs.levelActual[src:src+width])
			copy(out.levelOps[dst:dst+width], cs.levelOps[src:src+width])
			copy(out.levelPower[dst:dst+width], cs.levelPower[src:src+width])
			if od != nil {
				od.eps[i] = d.eps[r]
				od.ees[i] = d.ees[r]
				od.peakEEs[i] = d.peakEEs[r]
				od.peakEEUtils[i] = d.peakEEUtils[r]
				od.idleFracs[i] = d.idleFracs[r]
				od.dynRanges[i] = d.dynRanges[r]
				od.peakOverFull[i] = d.peakOverFull[r]
				od.curveOK[i] = d.curveOK[r]
				od.compliant[i] = d.compliant[r]
				sdst, ssrc := od.spotOff[i], d.spotOff[r]
				swidth := od.spotOff[i+1] - sdst
				copy(od.spots[sdst:sdst+swidth], d.spots[ssrc:ssrc+swidth])
			}
		}
	})
	if od != nil {
		od.allCurvesOK, od.allCompliant = true, true
		for i := 0; i < n; i++ {
			od.allCurvesOK = od.allCurvesOK && od.curveOK[i]
			od.allCompliant = od.allCompliant && od.compliant[i]
		}
		out.derived.Store(od)
	}
	return out
}

// ConcatColumns joins stores end to end. The result carries raw
// columns only; its derived layer builds on first use.
func ConcatColumns(stores []*ColumnStore) *ColumnStore {
	rows, levels := 0, 0
	for _, s := range stores {
		rows += s.n
		levels += s.Levels()
	}
	out := NewColumnBuilder(rows, levels).cs
	for _, s := range stores {
		out.ids = append(out.ids, s.ids...)
		out.vendors = append(out.vendors, s.vendors...)
		out.systems = append(out.systems, s.systems...)
		out.cpuModels = append(out.cpuModels, s.cpuModels...)
		out.jvms = append(out.jvms, s.jvms...)
		out.oss = append(out.oss, s.oss...)
		out.formFactors = append(out.formFactors, s.formFactors...)
		out.pubYears = append(out.pubYears, s.pubYears...)
		out.pubQuarters = append(out.pubQuarters, s.pubQuarters...)
		out.hwYears = append(out.hwYears, s.hwYears...)
		out.hwQuarters = append(out.hwQuarters, s.hwQuarters...)
		out.nodes = append(out.nodes, s.nodes...)
		out.chips = append(out.chips, s.chips...)
		out.coresPerChip = append(out.coresPerChip, s.coresPerChip...)
		out.codenames = append(out.codenames, s.codenames...)
		out.nominalGHz = append(out.nominalGHz, s.nominalGHz...)
		out.memoryGB = append(out.memoryGB, s.memoryGB...)
		out.idleWatts = append(out.idleWatts, s.idleWatts...)
		base := int32(len(out.levelTarget))
		for i := 1; i <= s.n; i++ {
			out.levelOff = append(out.levelOff, base+s.levelOff[i])
		}
		out.levelTarget = append(out.levelTarget, s.levelTarget...)
		out.levelActual = append(out.levelActual, s.levelActual...)
		out.levelOps = append(out.levelOps, s.levelOps...)
		out.levelPower = append(out.levelPower, s.levelPower...)
		out.n += s.n
	}
	return out
}

// checkConsistent validates the internal invariants of a decoded store
// (offsets monotone, columns index-aligned); decoders call it before
// returning untrusted data.
func (cs *ColumnStore) checkConsistent() error {
	n := cs.n
	if len(cs.ids) != n || len(cs.vendors) != n || len(cs.systems) != n ||
		len(cs.cpuModels) != n || len(cs.jvms) != n || len(cs.oss) != n ||
		len(cs.formFactors) != n || len(cs.pubYears) != n || len(cs.pubQuarters) != n ||
		len(cs.hwYears) != n || len(cs.hwQuarters) != n || len(cs.nodes) != n ||
		len(cs.chips) != n || len(cs.coresPerChip) != n || len(cs.codenames) != n ||
		len(cs.nominalGHz) != n || len(cs.memoryGB) != n || len(cs.idleWatts) != n ||
		len(cs.levelOff) != n+1 {
		return fmt.Errorf("dataset: column store columns not aligned at %d rows", n)
	}
	if cs.levelOff[0] != 0 {
		return fmt.Errorf("dataset: level offsets start at %d, want 0", cs.levelOff[0])
	}
	for i := 0; i < n; i++ {
		if cs.levelOff[i+1] < cs.levelOff[i] {
			return fmt.Errorf("dataset: level offsets decrease at row %d", i)
		}
	}
	total := int(cs.levelOff[n])
	if len(cs.levelTarget) != total || len(cs.levelActual) != total ||
		len(cs.levelOps) != total || len(cs.levelPower) != total {
		return fmt.Errorf("dataset: level columns not aligned at %d levels", total)
	}
	return nil
}
