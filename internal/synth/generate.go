package synth

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/dataset"
	"repro/internal/microarch"
	"repro/internal/par"
)

// Config controls generation. The zero value is valid and produces the
// default corpus with seed 0; every statistic of the output is a pure
// function of the seed.
type Config struct {
	// Seed drives all sampling.
	Seed int64
}

// Generate produces the full synthetic submission corpus: 517 results
// of which 477 pass dataset.Validate and 40 are non-compliant, ordered
// by result ID.
func Generate(cfg Config) ([]*dataset.Result, error) {
	g := &generator{rng: rand.New(rand.NewSource(cfg.Seed))}
	valid, err := g.validResults()
	if err != nil {
		return nil, err
	}
	out := append(valid, g.nonCompliantResults()...)
	return out, nil
}

// NewRepository generates the corpus and wraps it in a repository.
func NewRepository(cfg Config) (*dataset.Repository, error) {
	all, err := Generate(cfg)
	if err != nil {
		return nil, err
	}
	return dataset.NewRepository(all), nil
}

type generator struct {
	rng *rand.Rand
	seq int
}

// blueprint carries one server's sampled plan before curve synthesis.
type blueprint struct {
	year         int
	code         microarch.Codename
	nodes        int
	chips        int
	coresPerChip int
	mpc          float64
	epTarget     float64
	// epQuantile is Φ(z) of the standard normal draw behind epTarget:
	// the server's rank within its EP distribution, before the clamps.
	// Only the fleet path reads it, to choose the peak spot.
	epQuantile float64
	spot       float64
	anchor     *anchorSpec
}

type popSpec struct {
	nodes, chips int
}

func (g *generator) validResults() ([]*dataset.Result, error) {
	blueprints := g.planBlueprints()
	g.assignAnchors(blueprints)
	g.assignSpots(blueprints)

	// Stage 1 (sequential): consume the seeded rng for every submission
	// in exactly the order the fully sequential generator did, so the
	// corpus stays byte-identical regardless of worker count.
	draws := make([]resultDraws, len(blueprints))
	for i, bp := range blueprints {
		d, err := g.drawResult(bp)
		if err != nil {
			return nil, err
		}
		draws[i] = d
	}
	// Stage 2 (parallel): pure curve materialization, fanned out across
	// CPUs. Metric caches stay cold here — the repository warms them in
	// parallel on first analysis — so generation never pays for metrics
	// the caller may not read.
	results := par.Map(len(blueprints), func(i int) *dataset.Result {
		r := &dataset.Result{}
		materializeResult(blueprints[i], draws[i], corpusID(draws[i].seq), r)
		return r
	})
	g.assignPublishedYears(results)
	return results, nil
}

// classSpec is a pool class to distribute across years: the items,
// plus a year-affinity profile (exp(−|y − peak|/tau)). A zero peak
// means no preference (proportional to remaining capacity).
type classSpec[T any] struct {
	items []T
	peak  float64
	tau   float64
}

func (c classSpec[T]) affinity(year int) float64 {
	if c.peak == 0 {
		return 1
	}
	return math.Exp(-math.Abs(float64(year)-c.peak) / c.tau)
}

// allocateClasses distributes class items over the years honoring the
// per-year capacities exactly. Smaller classes allocate first (largest-
// remainder on affinity-weighted quotas) so their era preferences are
// honored; the biggest class absorbs what remains. The per-year output
// lists are shuffled.
func allocateClasses[T any](rng *rand.Rand, classes []classSpec[T], capacity map[int]int) map[int][]T {
	years := sortedYears()
	remaining := make(map[int]int, len(capacity))
	for y, n := range capacity {
		remaining[y] = n
	}
	order := make([]int, len(classes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(classes[order[a]].items) < len(classes[order[b]].items)
	})

	out := make(map[int][]T, len(years))
	for _, ci := range order {
		class := classes[ci]
		counts := make(map[int]int, len(years))
		left := len(class.items)
		// Iterate quota rounds until the class is fully placed; capacity
		// caps can leave a remainder that re-spreads over open years.
		for left > 0 {
			var totalW float64
			for _, y := range years {
				totalW += class.affinity(y) * float64(remaining[y]-counts[y])
			}
			if totalW <= 0 {
				break
			}
			type frac struct {
				year int
				f    float64
			}
			var fracs []frac
			placedThisRound := 0
			for _, y := range years {
				w := class.affinity(y) * float64(remaining[y]-counts[y])
				q := float64(left) * w / totalW
				n := int(q)
				if max := remaining[y] - counts[y]; n > max {
					n = max
				}
				counts[y] += n
				placedThisRound += n
				fracs = append(fracs, frac{y, q - float64(int(q))})
			}
			left -= placedThisRound
			if left > 0 {
				// Distribute the remainder by largest fractional part.
				sort.SliceStable(fracs, func(a, b int) bool { return fracs[a].f > fracs[b].f })
				for _, fr := range fracs {
					if left == 0 {
						break
					}
					if counts[fr.year] < remaining[fr.year] {
						counts[fr.year]++
						left--
					}
				}
			}
			if placedThisRound == 0 && left > 0 {
				break // no capacity anywhere; unreachable when totals match
			}
		}
		idx := 0
		for _, y := range years {
			for i := 0; i < counts[y]; i++ {
				out[y] = append(out[y], class.items[idx])
				idx++
			}
			remaining[y] -= counts[y]
		}
	}
	for _, y := range years {
		rng.Shuffle(len(out[y]), func(i, j int) { out[y][i], out[y][j] = out[y][j], out[y][i] })
	}
	return out
}

// planBlueprints samples year, codename, population, memory, and EP
// targets for all 477 valid servers.
func (g *generator) planBlueprints() []*blueprint {
	// Population classes with era affinities: many-socket singles peak
	// early (big SMP boxes faded after Nehalem), multi-node submissions
	// cluster around 2011-2013, and 2-socket fills the rest. The
	// affinities keep the cross-year EE/EP comparisons of Fig. 13-14
	// stable: a class whose six members scattered at random could land
	// entirely in one era and invert the figure.
	popClass := func(row struct{ Chips, Count int }, peak, tau float64) classSpec[popSpec] {
		items := make([]popSpec, row.Count)
		for i := range items {
			items[i] = popSpec{nodes: 1, chips: row.Chips}
		}
		return classSpec[popSpec]{items: items, peak: peak, tau: tau}
	}
	popClasses := []classSpec[popSpec]{
		popClass(singleNodeChipPlan[0], 2010, 3.0),   // 1 chip
		popClass(singleNodeChipPlan[1], 0, 0),        // 2 chips: remainder
		popClass(singleNodeChipPlan[2], 2010, 2.5),   // 4 chips
		popClass(singleNodeChipPlan[3], 2009.5, 2.0), // 8 chips
	}
	nodePeaks := map[int]struct{ peak, tau float64 }{
		2:  {2011, 3.0},
		4:  {2012, 2.0},
		8:  {2012, 2.0},
		16: {2013, 1.5},
	}
	for _, row := range nodePlan {
		items := make([]popSpec, row.Count)
		for i := range items {
			chipsPerNode := 1
			if g.rng.Float64() < 0.6 {
				chipsPerNode = 2
			}
			items[i] = popSpec{nodes: row.Nodes, chips: row.Nodes * chipsPerNode}
		}
		p := nodePeaks[row.Nodes]
		popClasses = append(popClasses, classSpec[popSpec]{items: items, peak: p.peak, tau: p.tau})
	}
	popByYear := allocateClasses(g.rng, popClasses, yearPlan)

	// Memory-per-core classes: ratios track DIMM-size eras — 0.67 GB/core
	// is a 2008-ish configuration, 1.5 GB/core peaks with Sandy Bridge EP
	// (2012), 1.78 GB/core is a late-corpus ratio, 4 GB/core mid-late.
	// This is what makes Fig. 17's "best EP at 1.5, best EE at 1.78"
	// reproducible rather than a coin flip over 13 samples.
	mpcPeaks := map[float64]struct{ peak, tau float64 }{
		0.67: {2008, 2.0},
		1.00: {2009, 4.0},
		1.33: {2010, 2.5},
		1.50: {2012, 1.5},
		1.78: {2015, 1.2},
		2.00: {0, 0}, // remainder class
		4.00: {2013, 2.0},
	}
	var mpcClasses []classSpec[float64]
	for _, b := range mpcBuckets {
		items := make([]float64, b.Count)
		for i := range items {
			items[i] = b.GBPerCore
		}
		p := mpcPeaks[b.GBPerCore]
		mpcClasses = append(mpcClasses, classSpec[float64]{items: items, peak: p.peak, tau: p.tau})
	}
	other := make([]float64, ValidCount-430)
	for i := range other {
		other[i] = otherMPCValues[g.rng.Intn(len(otherMPCValues))]
	}
	mpcClasses = append(mpcClasses, classSpec[float64]{items: other})
	mpcByYear := allocateClasses(g.rng, mpcClasses, yearPlan)

	var out []*blueprint
	for _, year := range sortedYears() {
		pops := popByYear[year]
		mpcs := mpcByYear[year]
		for i := 0; i < yearPlan[year]; i++ {
			bp := &blueprint{
				year:  year,
				nodes: pops[i].nodes,
				chips: pops[i].chips,
				mpc:   mpcs[i],
			}
			bp.code = g.sampleCodename(year)
			bp.coresPerChip = g.sampleCores(bp.code)
			bp.epTarget = g.sampleEP(epYearStats[year], bp)
			out = append(out, bp)
		}
	}
	return out
}

func (g *generator) sampleCodename(year int) microarch.Codename {
	mix := codenameMix[year]
	var total float64
	for _, cw := range mix {
		total += cw.weight
	}
	x := g.rng.Float64() * total
	for _, cw := range mix {
		x -= cw.weight
		if x <= 0 {
			return cw.code
		}
	}
	return mix[len(mix)-1].code
}

// coresByCodename lists plausible per-chip core counts per generation.
var coresByCodename = map[microarch.Codename][]int{
	microarch.Netburst:        {1, 2},
	microarch.CoreMerom:       {2, 4},
	microarch.Penryn:          {4},
	microarch.Yorkfield:       {4},
	microarch.Lynnfield:       {4},
	microarch.NehalemEP:       {4},
	microarch.NehalemEX:       {6, 8},
	microarch.Westmere:        {6, 10},
	microarch.WestmereEP:      {4, 6},
	microarch.SandyBridge:     {4},
	microarch.SandyBridgeEP:   {4, 6, 8},
	microarch.SandyBridgeEN:   {4, 6, 8},
	microarch.IvyBridge:       {4},
	microarch.IvyBridgeEP:     {6, 10, 12},
	microarch.Haswell:         {4, 8, 12, 18},
	microarch.Broadwell:       {8, 12, 16, 22},
	microarch.Skylake:         {4, 8, 12},
	microarch.Interlagos:      {8, 16},
	microarch.AbuDhabi:        {8, 12, 16},
	microarch.Seoul:           {4, 8},
	microarch.UnknownCodename: {2, 4},
}

func (g *generator) sampleCores(code microarch.Codename) int {
	opts := coresByCodename[code]
	if len(opts) == 0 {
		return 4
	}
	return opts[g.rng.Intn(len(opts))]
}

// sampleEP draws bp's EP target and records the draw's quantile in
// bp.epQuantile.
func (g *generator) sampleEP(stats epStats, bp *blueprint) float64 {
	mean := stats.mean + codenameEPBias[bp.code] + nodeEPBonus[bp.nodes] + mpcEPBonus[bp.mpc]
	if bp.nodes == 1 {
		mean += chipEPBonus[bp.chips]
	}
	z := g.rng.NormFloat64()
	bp.epQuantile = 0.5 * math.Erfc(-z/math.Sqrt2)
	ep := mean + stats.sigma*z
	ep = math.Max(stats.lo, math.Min(stats.hi, ep))
	// Global extremes are reserved for the anchor servers.
	return math.Max(0.19, math.Min(0.99, ep))
}

// assignAnchors replaces one generated blueprint per anchor with the
// pinned specification, choosing hosts within the anchor's year.
func (g *generator) assignAnchors(bps []*blueprint) {
	byYear := make(map[int][]*blueprint)
	for _, bp := range bps {
		byYear[bp.year] = append(byYear[bp.year], bp)
	}
	used := make(map[*blueprint]bool)
	specs := append(anchorSpecs(), towerOutlierSpec())
	for i := range specs {
		spec := specs[i]
		hosts := byYear[spec.year]
		var host *blueprint
		for _, h := range hosts {
			if !used[h] {
				host = h
				break
			}
		}
		if host == nil {
			continue // year plan too small; tests assert this never happens
		}
		used[host] = true
		host.anchor = &specs[i]
		if spec.ep > 0 {
			host.epTarget = spec.ep
		} else {
			host.epTarget = spec.curve.ep()
		}
		if spec.label == "tower-i5-2014" {
			// The tower outlier is a 1-chip desktop-class box. Swap
			// population specs with an unanchored 1-chip server so the
			// chip plan counts (Fig. 14) stay exact.
			if host.nodes != 1 || host.chips != 1 {
				for _, other := range bps {
					if !used[other] && other.anchor == nil && other.nodes == 1 && other.chips == 1 {
						other.nodes, other.chips, host.nodes, host.chips =
							host.nodes, host.chips, 1, 1
						break
					}
				}
			}
			host.coresPerChip = 4
			host.code = microarch.Haswell
		}
	}
}

// assignSpots distributes the per-year peak-efficiency spots, giving
// the sub-100% spots to the servers with the highest EP targets — the
// paper's observation that more proportional servers peak earlier.
func (g *generator) assignSpots(bps []*blueprint) {
	byYear := make(map[int][]*blueprint)
	for _, bp := range bps {
		byYear[bp.year] = append(byYear[bp.year], bp)
	}
	for year, group := range byYear {
		plan, ok := peakSpotPlan[year]
		if !ok {
			for _, bp := range group {
				bp.spot = 1.0
			}
			continue
		}
		spots := make([]float64, 0, len(group))
		for _, sw := range plan {
			for i := 0; i < int(sw.weight); i++ {
				spots = append(spots, sw.spot)
			}
		}
		for len(spots) < len(group) {
			spots = append(spots, 1.0)
		}
		sort.Float64s(spots) // lowest spots first
		ordered := append([]*blueprint(nil), group...)
		sort.SliceStable(ordered, func(i, j int) bool {
			return ordered[i].epTarget > ordered[j].epTarget
		})
		for i, bp := range ordered {
			bp.spot = spots[i]
		}
	}
	// Anchors keep the spot implied by their handcrafted curves.
}

// cpuModels offers disclosure model strings per codename.
var cpuModels = map[microarch.Codename][]string{
	microarch.Netburst:        {"Intel Xeon 5080", "Intel Xeon 7041"},
	microarch.CoreMerom:       {"Intel Xeon 5160", "Intel Xeon 5355", "Intel Xeon 3070"},
	microarch.Penryn:          {"Intel Xeon E5440", "Intel Xeon X5470", "Intel Xeon L5420"},
	microarch.Yorkfield:       {"Intel Xeon X3360", "Intel Xeon L3360"},
	microarch.Lynnfield:       {"Intel Xeon X3470", "Intel Xeon L3426"},
	microarch.NehalemEP:       {"Intel Xeon X5570", "Intel Xeon L5520", "Intel Xeon E5540"},
	microarch.NehalemEX:       {"Intel Xeon X7560", "Intel Xeon X6550"},
	microarch.Westmere:        {"Intel Xeon E7-4870", "Intel Xeon X3680"},
	microarch.WestmereEP:      {"Intel Xeon X5670", "Intel Xeon L5640", "Intel Xeon X5675"},
	microarch.SandyBridge:     {"Intel Xeon E3-1260L", "Intel Xeon E3-1230"},
	microarch.SandyBridgeEP:   {"Intel Xeon E5-2660", "Intel Xeon E5-2670", "Intel Xeon E5-2640"},
	microarch.SandyBridgeEN:   {"Intel Xeon E5-2470", "Intel Xeon E5-2450L"},
	microarch.IvyBridge:       {"Intel Xeon E3-1265L v2", "Intel Xeon E3-1230 v2"},
	microarch.IvyBridgeEP:     {"Intel Xeon E5-2660 v2", "Intel Xeon E5-2650L v2", "Intel Xeon E5-2470 v2"},
	microarch.Haswell:         {"Intel Xeon E5-2660 v3", "Intel Xeon E5-2699 v3", "Intel Xeon E3-1230 v3"},
	microarch.Broadwell:       {"Intel Xeon E5-2660 v4", "Intel Xeon E5-2699 v4", "Intel Xeon D-1540"},
	microarch.Skylake:         {"Intel Xeon E3-1260L v5", "Intel Xeon E3-1230 v5"},
	microarch.Interlagos:      {"AMD Opteron 6272", "AMD Opteron 6276"},
	microarch.AbuDhabi:        {"AMD Opteron 6380", "AMD Opteron 6386 SE"},
	microarch.Seoul:           {"AMD Opteron 4376 HE", "AMD Opteron 4365 EE"},
	microarch.UnknownCodename: {"RISC 1200", "Custom CPU"},
}

// resultDraws captures every rng-dependent choice for one submission,
// made in exactly the order the single-pass builder consumed the seeded
// stream. Splitting the draws from the arithmetic lets curve
// materialization fan out across CPUs while the corpus stays
// byte-identical to the sequential build.
type resultDraws struct {
	seq       int
	curve     normCurve
	eeTarget  float64
	peakRand  float64
	jitterOn  bool
	jitters   [9]float64
	vendor    string
	series    string
	seriesNum int
	form      dataset.FormFactor
	pubQ      int
	hwQ       int
	cpuModel  string
	ghz       float64
	jvm       string
	os        string
}

// drawResult performs the sequential stage: every rng consumption for
// one submission, nothing else. Conditional draws (anchored curves,
// exact-ops jitter, 2016 availability quarters) stay conditional so the
// stream position after each submission matches the original builder.
func (g *generator) drawResult(bp *blueprint) (resultDraws, error) {
	var d resultDraws
	if bp.anchor != nil {
		d.curve = bp.anchor.curve
		if bp.anchor.ep > 0 {
			d.curve.blendToEP(bp.anchor.ep)
		}
	} else {
		d.curve = solveCurve(g.rng, bp.epTarget, bp.spot)
	}
	if !d.curve.monotone() {
		return d, fmt.Errorf("synth: non-monotone curve for %d/%v EP %.3f", bp.year, bp.code, bp.epTarget)
	}

	d.eeTarget = g.sampleOverallEE(bp)
	if bp.anchor != nil && bp.anchor.overallEE > 0 {
		d.eeTarget = bp.anchor.overallEE
	}

	d.peakRand = g.rng.Float64()
	d.jitterOn = bp.anchor == nil || !bp.anchor.exactOps
	if d.jitterOn {
		for i := range d.jitters {
			d.jitters[i] = clamp(0.002*g.rng.NormFloat64(), -0.004, 0.004)
		}
	}

	g.seq++
	d.seq = g.seq
	models := cpuModels[bp.code]
	d.vendor = vendors[g.rng.Intn(len(vendors))]
	d.series = systemSeries[g.rng.Intn(len(systemSeries))]
	d.seriesNum = 100 + g.rng.Intn(900)
	d.form = g.sampleFormFactor(bp)
	d.pubQ = 1 + g.rng.Intn(4)
	d.hwQ = 1 + g.rng.Intn(4)
	d.cpuModel = models[g.rng.Intn(len(models))]
	d.ghz = g.sampleGHz(bp.code)
	d.jvm = jvms[g.rng.Intn(len(jvms))]
	d.os = oses[g.rng.Intn(len(oses))]
	if bp.year == 2016 {
		d.hwQ = 1 + g.rng.Intn(3) // the corpus ends at 2016Q3
	}
	return d, nil
}

// corpusID is the ID of the seq'th corpus submission.
func corpusID(seq int) string { return fmt.Sprintf("power_ssj2008-%04d", seq) }

// materializeResult is the pure stage: it turns a blueprint plus its
// recorded draws into r, with ID id, without touching the rng, so it is
// safe to run concurrently for many submissions. It overwrites every
// field of r and reuses the capacity of r.Levels, so one row can be
// refilled server after server as long as no metric accessor has run
// on it.
func materializeResult(bp *blueprint, d resultDraws, id string, r *dataset.Result) {
	// Peak power scales with the installed hardware.
	peakWatts := 30 + float64(bp.chips)*(55+35*d.peakRand) +
		bp.mpc*float64(bp.chips*bp.coresPerChip)*0.35 +
		float64(bp.nodes)*25
	// Overall EE = EE100 · Σu / (Σp + idle) with Σu = 5.5 over the ten
	// levels; solve EE100 so the target lands exactly (pre-jitter).
	var sumP float64
	for _, p := range d.curve.levels {
		sumP += p
	}
	ee100 := d.eeTarget * (sumP + d.curve.idle) / 5.5
	ops100 := ee100 * peakWatts

	levels := r.Levels
	if cap(levels) < len(levelGrid) {
		levels = make([]dataset.LoadLevel, len(levelGrid))
	}
	levels = levels[:len(levelGrid)]
	for i, u := range levelGrid {
		jitter := 0.0
		if i < 9 && d.jitterOn {
			jitter = d.jitters[i]
		}
		actual := u * (1 + jitter)
		levels[i] = dataset.LoadLevel{
			TargetLoad:    u,
			ActualLoad:    actual,
			OpsPerSec:     ops100 * actual,
			AvgPowerWatts: d.curve.levels[i] * peakWatts,
		}
	}

	// System is "<vendor> <series><number>", built on the stack so the
	// string is the only allocation.
	var sys [64]byte
	system := append(append(append(sys[:0], d.vendor...), ' '), d.series...)
	system = strconv.AppendInt(system, int64(d.seriesNum), 10)

	*r = dataset.Result{
		ID:               id,
		Vendor:           d.vendor,
		System:           string(system),
		FormFactor:       d.form,
		PublishedYear:    bp.year, // adjusted later for mismatches
		PublishedQuarter: d.pubQ,
		HWAvailYear:      bp.year,
		HWAvailQuarter:   d.hwQ,
		Nodes:            bp.nodes,
		Chips:            bp.chips,
		CoresPerChip:     bp.coresPerChip,
		CPUModel:         d.cpuModel,
		Codename:         bp.code,
		NominalGHz:       d.ghz,
		MemoryGB:         bp.mpc * float64(bp.chips*bp.coresPerChip),
		JVM:              d.jvm,
		OS:               d.os,
		ActiveIdleWatts:  d.curve.idle * peakWatts,
		Levels:           levels,
	}
	if bp.anchor != nil && bp.anchor.label == "tower-i5-2014" {
		r.FormFactor = dataset.FormTower
		r.CPUModel = "Intel Core i5-4570"
		r.NominalGHz = 3.2
	}
}

// buildResult composes the two stages sequentially. The non-compliant
// path uses it directly because those results are mutated after
// construction, which must happen before any metric access.
func (g *generator) buildResult(bp *blueprint) (*dataset.Result, error) {
	d, err := g.drawResult(bp)
	if err != nil {
		return nil, err
	}
	r := &dataset.Result{}
	materializeResult(bp, d, corpusID(d.seq), r)
	return r, nil
}

var systemSeries = []string{"ProServ ", "PowerRack ", "System x", "Primergy ", "ThinkSystem ", "Express "}

func (g *generator) sampleFormFactor(bp *blueprint) dataset.FormFactor {
	if bp.nodes > 1 {
		return dataset.FormMultiNode
	}
	switch x := g.rng.Float64(); {
	case x < 0.85:
		return dataset.FormRack
	case x < 0.93:
		return dataset.FormTower
	default:
		return dataset.FormBlade
	}
}

func (g *generator) sampleGHz(code microarch.Codename) float64 {
	lo, hi := 1.8, 3.2
	switch code.Family() {
	case microarch.FamilyNetburst:
		lo, hi = 2.8, 3.8
	case microarch.FamilyCore:
		lo, hi = 2.0, 3.2
	case microarch.FamilyAMD:
		lo, hi = 1.8, 2.8
	default:
		lo, hi = 1.8, 3.5
	}
	return math.Round((lo+(hi-lo)*g.rng.Float64())*10) / 10
}

// sampleOverallEE draws the SPECpower score target: a per-year
// lognormal with chip, memory, and proportionality couplings that
// reproduce Fig. 14/15/17 and the EP↔EE correlation.
func (g *generator) sampleOverallEE(bp *blueprint) float64 {
	stats := eeYearStats[bp.year]
	v := stats.mean * math.Exp(stats.spread*g.rng.NormFloat64()-stats.spread*stats.spread/2)
	if bp.nodes == 1 {
		v *= 1 + chipEEBonus[bp.chips]
	} else {
		v *= 1 + 0.02*math.Log2(float64(bp.nodes))
	}
	v *= 1 + mpcEEBonus[bp.mpc]
	v *= 1 + 0.9*(bp.epTarget-epYearStats[bp.year].mean)
	return clamp(v, stats.lo, stats.hi)
}

// assignPublishedYears introduces the 74 published-vs-availability
// mismatches: pre-2007 hardware is necessarily published later (the
// benchmark launched in 2007); one 2016 machine was published in 2015;
// the remainder publish one to two years after availability.
func (g *generator) assignPublishedYears(results []*dataset.Result) {
	mismatched := 0
	// Forced: hardware older than the benchmark.
	for _, r := range results {
		if r.HWAvailYear < 2007 {
			r.PublishedYear = 2007 + g.rng.Intn(5) // up to 6 years later
			mismatched++
		}
	}
	// One early disclosure: published the year before availability.
	for _, r := range results {
		if r.HWAvailYear == 2016 {
			r.PublishedYear = 2015
			mismatched++
			break
		}
	}
	// Late publications fill the remainder.
	for _, r := range results {
		if mismatched >= YearMismatchCount {
			break
		}
		if r.PublishedYear != r.HWAvailYear || r.HWAvailYear >= 2016 {
			continue
		}
		if g.rng.Float64() < 0.18 {
			offset := 1
			if g.rng.Float64() < 0.25 {
				offset = 2
			}
			if r.HWAvailYear+offset <= 2016 {
				r.PublishedYear = r.HWAvailYear + offset
				mismatched++
			}
		}
	}
	// Deterministic top-up in case sampling fell short.
	for _, r := range results {
		if mismatched >= YearMismatchCount {
			break
		}
		if r.PublishedYear == r.HWAvailYear && r.HWAvailYear >= 2007 && r.HWAvailYear < 2016 {
			r.PublishedYear = r.HWAvailYear + 1
			mismatched++
		}
	}
}

// nonCompliantResults fabricates the 40 submissions that fail SPEC's
// run rules, cycling through distinct violation classes.
func (g *generator) nonCompliantResults() []*dataset.Result {
	out := make([]*dataset.Result, 0, NonCompliantCount)
	years := sortedYears()
	for i := 0; i < NonCompliantCount; i++ {
		year := years[g.rng.Intn(len(years))]
		if year < 2007 {
			year = 2007
		}
		bp := &blueprint{
			year:         year,
			code:         g.sampleCodename(year),
			nodes:        1,
			chips:        2,
			coresPerChip: 4,
			mpc:          2,
			epTarget:     clamp(epYearStats[year].mean, 0.2, 1.0),
			spot:         1.0,
		}
		r, err := g.buildResult(bp)
		if err != nil {
			continue
		}
		switch i % 5 {
		case 0: // power reading lost at one level
			r.Levels[3+i%4].AvgPowerWatts = 0
		case 1: // throughput regression between levels
			r.Levels[6].OpsPerSec = r.Levels[5].OpsPerSec * 0.98
		case 2: // load controller out of tolerance
			r.Levels[4].ActualLoad = r.Levels[4].TargetLoad + 0.05
		case 3: // idle power above full-load power (metering fault)
			r.ActiveIdleWatts = r.Levels[9].AvgPowerWatts * 1.1
		case 4: // incomplete run: missing top levels
			r.Levels = r.Levels[:7]
		}
		out = append(out, r)
	}
	return out
}

func clamp(v, lo, hi float64) float64 {
	return math.Max(lo, math.Min(hi, v))
}
