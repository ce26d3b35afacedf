package optimize

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/cluster"
	"repro/internal/fleetsim"
	"repro/internal/par"
	"repro/internal/placement"
	"repro/internal/trace"
)

// Config describes one composition search.
type Config struct {
	// Models is the composition alphabet: the distinct server models a
	// candidate fleet may mix. Order defines the candidate encoding and
	// the deterministic tie-break, so keep it stable across runs.
	Models []*placement.Profile
	// Trace is the demand the fleet must serve. A candidate is feasible
	// when its capacity covers the exact trace peak.
	Trace *trace.Trace
	// Policies crosses the count space with pack policies; nil means
	// all four.
	Policies []cluster.Policy
	// Objective selects and prices the minimization target; the zero
	// value minimizes facility energy at PUE 1.
	Objective Objective
	// MaxPerModel bounds the per-model server count (0 = 16);
	// CountStep is the count granularity (0 = 1).
	MaxPerModel, CountStep int
	// Bins is the demand-histogram resolution (0 = 128).
	Bins int
	// RateBins is the intensity-axis resolution of the demand×intensity
	// fold (0 = 4). It is validated on every objective but only shapes
	// the fold when the objective carries a time-varying profile. For
	// smooth diurnal-scale profiles the demand axis dominates the fold
	// error, so a few rate bins suffice (raising this past ~8 buys
	// accuracy in the fifth decimal at linear scoring cost).
	RateBins int
	// Embodied, when set, must parallel Models: each model's embodied-
	// carbon amortization, charged per server on the carbon objective.
	Embodied []Embodied
	// TopK is the shortlist replayed exactly through fleetsim (0 = 5).
	TopK int
	// Power prices the exact replay's transitions and hysteresis.
	Power fleetsim.PowerConfig
	// Seed derives the beam restarts' branch seeds and the replay seed.
	Seed int64
	// ExhaustiveLimit is the largest space enumerated fully
	// (0 = 100000); larger spaces run the beam search.
	ExhaustiveLimit int64
	// BeamWidth, BeamRounds and Restarts shape the beam search
	// (0 = 24, 40, 6).
	BeamWidth, BeamRounds, Restarts int
	// DisablePruning scores every feasible candidate — the reference
	// mode pruning is validated against, and the "naive" half of the
	// benchmark.
	DisablePruning bool
}

// Candidate is one scored fleet composition.
type Candidate struct {
	// ID is the candidate's position in enumeration order — the
	// deterministic tie-break key.
	ID int64
	// Counts has one server count per Config.Models entry.
	Counts []int
	Policy cluster.Policy
	// Servers and CapacityOps size the composition.
	Servers     int
	CapacityOps float64
	// EnergyKWh and Objective are the histogram (steady-state) IT
	// energy and its priced objective value.
	EnergyKWh, Objective float64
	// ExactEnergyKWh and ExactObjective are set after fleetsim replay
	// (transition energy, hysteresis); Exact reports whether they are.
	ExactEnergyKWh, ExactObjective float64
	Exact                          bool
	// Region names the cheapest region for this candidate when the
	// objective is multi-region; empty otherwise.
	Region string `json:",omitempty"`
}

// Result is the outcome of a composition search.
type Result struct {
	// Best is the optimum: the top-k shortlist re-ranked by exact
	// replay objective, ties broken by candidate ID.
	Best Candidate
	// TopK is the exact-replayed shortlist in final rank order. With
	// pruning enabled it is identical to the unpruned shortlist: the
	// pruning bound is the k-th best incumbent, so no member of the
	// true top-k can be pruned.
	TopK []Candidate
	// SpaceSize counts the full candidate grid (count combinations ×
	// policies), saturating at math.MaxInt64.
	SpaceSize int64
	// Evaluated, Pruned and Infeasible partition the visited
	// candidates; Exhaustive reports full enumeration (vs beam).
	Evaluated, Pruned, Infeasible int64
	Exhaustive                    bool
	// Bins is the number of occupied demand bins in the trace fold.
	Bins int
	// Cells is the occupied demand×intensity cell count of the fold;
	// zero when every plan is static, since the fold is then the plain
	// demand histogram with one cell per bin.
	Cells int `json:",omitempty"`
}

// searchSegment is the fixed candidate-segment size the exhaustive
// scan shards on. Like fleetsim's trace segments it is a constant,
// never derived from the worker count, so per-segment tallies and
// top-k merges are byte-identical at any parallelism.
const searchSegment = 2048

// space captures the validated, precomputed search space.
type space struct {
	cfg      Config
	models   []*placement.Profile
	policies []cluster.Policy
	// hist is the trace fold: the plain demand histogram when every
	// plan is static, crossed with one rate set per time-varying plan
	// otherwise. plans is the normalized per-region pricing;
	// embodiedKg is each model's per-server amortized embodied charge
	// over the trace window, nil when unused.
	hist       *trace.Hist2D
	plans      []ratePlan
	embodiedKg []float64
	// countOf maps a digit to a server count; radix is the digit count.
	step, radix int
	// perOps is each model's capacity; lbEE / lbIdleW are the
	// admissible-bound ingredients: the model's best efficiency and
	// minimum power over the measured knots. lbQuot[m*cells+c] is fold
	// cell c's mean demand over lbEE[m], the bound's per-cell draw when
	// model m has the best efficiency in the candidate. lbOff[m] is the
	// pack+off bound's objective, before the haircut and embodied
	// carbon, of any such candidate whose capacity reaches maxCellOps,
	// the largest cell mean: there it depends on the best model alone.
	perOps, lbEE, lbIdleW []float64
	lbQuot, lbOff         []float64
	maxCellOps            float64
	size                  int64
	topK                  int
}

// OptimizeComposition searches fleet-composition space for the
// candidate minimizing the objective over the demand trace. Small
// spaces (≤ ExhaustiveLimit) are enumerated exhaustively; larger ones
// run a deterministic multi-restart beam search with derived
// per-branch seeds. Either way the result is byte-identical at any
// worker count.
func OptimizeComposition(cfg Config) (Result, error) {
	sp, err := newSpace(cfg)
	if err != nil {
		return Result{}, err
	}
	res := Result{SpaceSize: sp.size, Bins: sp.hist.Bins}
	if sp.varying() {
		res.Cells = sp.hist.Cells()
	}

	// Incumbent phase: minimal feasible homogeneous fleets seed the
	// pruning bound. The bound is the k-th best incumbent objective, so
	// a pruned candidate (lower bound above it) can never displace any
	// member of the true top-k.
	incumbents := sp.incumbents()
	evaluated := make([]Candidate, 0, len(incumbents))
	for _, id := range incumbents {
		if c, ok := sp.score(id); ok {
			evaluated = append(evaluated, c)
		}
	}
	bound := math.Inf(1)
	if !cfg.DisablePruning && len(evaluated) > 0 {
		objs := make([]float64, len(evaluated))
		for i, c := range evaluated {
			objs[i] = c.Objective
		}
		sort.Float64s(objs)
		kth := sp.topK
		if kth > len(objs) {
			kth = len(objs)
		}
		bound = objs[kth-1]
	}

	var top []Candidate
	for _, c := range evaluated {
		top = pushTop(top, c, sp.topK)
	}
	res.Evaluated = int64(len(evaluated))

	if sp.size <= sp.exhaustiveLimit() {
		res.Exhaustive = true
		segs := int((sp.size + searchSegment - 1) / searchSegment)
		parts := par.Map(segs, func(si int) segResult {
			return sp.scanSegment(int64(si)*searchSegment, bound)
		})
		for _, p := range parts {
			for _, c := range p.top {
				top = pushTop(top, c, sp.topK)
			}
			res.Evaluated += p.evaluated
			res.Pruned += p.pruned
			res.Infeasible += p.infeasible
		}
	} else {
		beamTop, stats := sp.beam(evaluated, bound)
		for _, c := range beamTop {
			top = pushTop(top, c, sp.topK)
		}
		res.Evaluated += stats.evaluated
		res.Pruned += stats.pruned
		res.Infeasible += stats.infeasible
	}

	if len(top) == 0 {
		return Result{}, errors.New("optimize: no feasible composition (raise MaxPerModel or shrink the trace peak)")
	}

	// Exact replay: the shortlist runs through fleetsim with the full
	// trace, transition pricing and hysteresis, and the final ranking
	// uses the exact objective.
	replayed, err := par.MapErr(len(top), func(i int) (Candidate, error) {
		return sp.replay(top[i])
	})
	if err != nil {
		return Result{}, err
	}
	sort.Slice(replayed, func(i, j int) bool {
		if replayed[i].ExactObjective != replayed[j].ExactObjective {
			return replayed[i].ExactObjective < replayed[j].ExactObjective
		}
		return replayed[i].ID < replayed[j].ID
	})
	res.TopK = replayed
	res.Best = replayed[0]
	return res, nil
}

func newSpace(cfg Config) (*space, error) {
	if len(cfg.Models) == 0 {
		return nil, errors.New("optimize: no models")
	}
	seen := make(map[*placement.Profile]bool, len(cfg.Models))
	for _, m := range cfg.Models {
		if m == nil {
			return nil, errors.New("optimize: nil model")
		}
		if seen[m] {
			return nil, fmt.Errorf("optimize: duplicate model %s", m.ID)
		}
		seen[m] = true
	}
	if err := cfg.Objective.Validate(); err != nil {
		return nil, err
	}
	if cfg.Trace == nil {
		return nil, errors.New("optimize: no trace")
	}
	bins := cfg.Bins
	if bins == 0 {
		bins = 128
	}
	rateBins := cfg.RateBins
	if rateBins == 0 {
		rateBins = 4
	}
	if rateBins < 1 {
		return nil, fmt.Errorf("optimize: invalid RateBins %d", cfg.RateBins)
	}
	// Normalize the objective into per-region rate plans and fold the
	// trace once: every time-varying plan contributes a rate set, and
	// with none the fold is the plain demand histogram.
	plans, sets, err := newPlans(&cfg)
	if err != nil {
		return nil, err
	}
	hist, err := cfg.Trace.Compress2D(bins, rateBins, sets...)
	if err != nil {
		return nil, err
	}
	if hist.PeakOps <= 0 {
		return nil, errors.New("optimize: trace has no demand")
	}
	step := cfg.CountStep
	if step == 0 {
		step = 1
	}
	maxPer := cfg.MaxPerModel
	if maxPer == 0 {
		maxPer = 16
	}
	if step < 1 || maxPer < step {
		return nil, fmt.Errorf("optimize: invalid count grid (max %d, step %d)", maxPer, step)
	}
	policies := cfg.Policies
	if len(policies) == 0 {
		policies = cluster.AllPolicies()
	}
	for _, p := range policies {
		switch p {
		case cluster.PolicySpread, cluster.PolicyPack, cluster.PolicyPackPowerOff, cluster.PolicyOptimalRegion:
		default:
			return nil, fmt.Errorf("optimize: unknown policy %d", int(p))
		}
	}
	topK := cfg.TopK
	if topK == 0 {
		topK = 5
	}
	if topK < 1 {
		return nil, fmt.Errorf("optimize: invalid TopK %d", topK)
	}
	sp := &space{
		cfg:      cfg,
		models:   cfg.Models,
		policies: policies,
		hist:     hist,
		plans:    plans,
		step:     step,
		radix:    maxPer/step + 1,
		topK:     topK,
	}
	sp.perOps = make([]float64, len(sp.models))
	sp.lbEE = make([]float64, len(sp.models))
	sp.lbIdleW = make([]float64, len(sp.models))
	for i, m := range sp.models {
		sp.perOps[i] = m.MaxOps
		bestEE, minW := math.Inf(-1), math.Inf(1)
		for _, pt := range m.Curve.Points() {
			bestEE = max(bestEE, m.EEAt(pt.Utilization))
			minW = min(minW, m.PowerAt(pt.Utilization))
		}
		bestEE = max(bestEE, m.EEAt(0))
		minW = min(minW, m.PowerAt(0))
		if !(bestEE > 0) || math.IsInf(bestEE, 0) {
			return nil, fmt.Errorf("optimize: model %s has no usable efficiency", m.ID)
		}
		sp.lbEE[i] = bestEE
		sp.lbIdleW[i] = minW
	}
	cells := hist.Cells()
	sp.lbQuot = make([]float64, len(sp.models)*cells)
	sp.lbOff = make([]float64, len(sp.models))
	watts, rj := make([]float64, cells), make([]float64, len(hist.Rates))
	sp.maxCellOps = math.Inf(-1)
	for _, d := range hist.BinOps {
		sp.maxCellOps = max(sp.maxCellOps, d)
	}
	for m, ee := range sp.lbEE {
		for c, d := range hist.BinOps {
			sp.lbQuot[m*cells+c] = d / ee
			watts[c] = max(d/ee, 0)
		}
		sp.lbOff[m], _ = sp.objectiveOf(sp.fold(watts, rj)/3.6e6, rj)
	}
	// Space size saturates instead of overflowing.
	sp.size = int64(len(sp.policies))
	for range sp.models {
		if sp.size > math.MaxInt64/int64(sp.radix) {
			sp.size = math.MaxInt64
			break
		}
		sp.size *= int64(sp.radix)
	}

	if len(cfg.Embodied) > 0 {
		metric := cfg.Objective.Metric
		if metric == 0 {
			metric = MetricEnergy
		}
		if metric != MetricCarbon {
			return nil, fmt.Errorf("optimize: embodied carbon applies to the carbon objective, not %s", metric)
		}
		if len(cfg.Embodied) != len(sp.models) {
			return nil, fmt.Errorf("optimize: %d embodied entries for %d models", len(cfg.Embodied), len(sp.models))
		}
		traceHours := hist.Duration() / 3600
		sp.embodiedKg = make([]float64, len(cfg.Embodied))
		for i, e := range cfg.Embodied {
			kg, err := e.perTraceKg(traceHours)
			if err != nil {
				return nil, fmt.Errorf("optimize: embodied model %d: %w", i, err)
			}
			sp.embodiedKg[i] = kg
		}
	}
	return sp, nil
}

func (sp *space) exhaustiveLimit() int64 {
	if sp.cfg.ExhaustiveLimit != 0 {
		return sp.cfg.ExhaustiveLimit
	}
	return 100000
}

// decode expands a candidate ID into per-model counts and a policy.
// IDs enumerate policies fastest, then model counts in little-endian
// mixed radix.
func (sp *space) decode(id int64, counts []int) cluster.Policy {
	p := sp.policies[id%int64(len(sp.policies))]
	ci := id / int64(len(sp.policies))
	for m := range sp.models {
		counts[m] = int(ci%int64(sp.radix)) * sp.step
		ci /= int64(sp.radix)
	}
	return p
}

// encode is decode's inverse.
func (sp *space) encode(counts []int, policy cluster.Policy) int64 {
	pi := 0
	for i, p := range sp.policies {
		if p == policy {
			pi = i
			break
		}
	}
	ci := int64(0)
	for m := len(counts) - 1; m >= 0; m-- {
		ci = ci*int64(sp.radix) + int64(counts[m]/sp.step)
	}
	return ci*int64(len(sp.policies)) + int64(pi)
}

// capacity accumulates the candidate's throughput in model order —
// the same closed-form chain the grouped evaluator builds, so the
// feasibility gate and the evaluator agree bit-for-bit.
func (sp *space) capacity(counts []int) float64 {
	var cap float64
	for m, c := range counts {
		cap += float64(c) * sp.perOps[m]
	}
	return cap
}

// feasible requires the fleet to cover the exact trace peak: an
// undersized fleet would "win" any energy objective by shedding load.
func (sp *space) feasible(counts []int) bool {
	n := 0
	for _, c := range counts {
		n += c
	}
	return n > 0 && sp.capacity(counts) >= sp.hist.PeakOps
}

// varying reports whether some plan is time-varying, i.e. whether the
// fold carries rate sets.
func (sp *space) varying() bool {
	return len(sp.hist.Rates) > 0
}

// scorer holds the per-candidate buffers of one search segment, so
// visiting a candidate allocates nothing unless it enters the
// segment's shortlist. Candidate IDs enumerate policies fastest, so a
// count vector's candidates arrive together: the scorer decodes,
// gates and bounds each count vector once for all its policies.
type scorer struct {
	sp *space
	// key is the count vector's index (ID / policies), -1 before the
	// first; counts, capacity and feasible describe it, and bound[k]
	// with haveBound[k] caches its lower bound with the idle term (k=0)
	// and without it (k=1, pack+off).
	key       int64
	counts    []int
	capacity  float64
	feasible  bool
	bound     [2]float64
	haveBound [2]bool
	groups    []placement.Group
	ev        cluster.Evaluator
	// cells holds one draw per fold cell, rj one rate-weighted energy
	// per rate set.
	cells, rj []float64
}

func (sp *space) newScorer() *scorer {
	return &scorer{
		sp:     sp,
		key:    -1,
		counts: make([]int, len(sp.models)),
		groups: make([]placement.Group, 0, len(sp.models)),
		cells:  make([]float64, sp.hist.Cells()),
		rj:     make([]float64, len(sp.hist.Rates)),
	}
}

// load decodes candidate id into the scorer and returns its policy,
// decoding and gating the count vector only when it changed.
func (s *scorer) load(id int64) cluster.Policy {
	sp := s.sp
	np := int64(len(sp.policies))
	if key := id / np; key != s.key {
		s.key = key
		sp.decode(id, s.counts)
		s.capacity = sp.capacity(s.counts)
		s.feasible = sp.feasible(s.counts)
		s.haveBound = [2]bool{}
	}
	return sp.policies[id%np]
}

// lowerBound is the admissible bound: in every fold cell the fleet
// draws at least served/bestEE (nobody converts watts to ops better
// than the best model's peak efficiency) and, for policies that keep
// members powered, at least the fleet's minimum aggregate draw. Both
// bounds hold knot-exactly for piecewise-linear curves, so each cell's
// bound energy is at most its score energy; non-negative rates keep
// that per rate set, the min over plans of the per-plan bounds is at
// most the min over plans of the per-plan scores, and the embodied
// term is identical on both sides. The 1e-9 haircut absorbs float
// rounding so a bound can never cross the score it brackets. Spread,
// pack and optimal-region share one bound per count vector; pack+off's
// differs only in dropping the idle term.
func (s *scorer) lowerBound(policy cluster.Policy) float64 {
	k := 0
	if policy == cluster.PolicyPackPowerOff {
		k = 1
	}
	if !s.haveBound[k] {
		s.bound[k], s.haveBound[k] = s.computeBound(k == 1), true
	}
	return s.bound[k]
}

func (s *scorer) computeBound(powerOff bool) float64 {
	sp, h := s.sp, s.sp.hist
	bestEE := math.Inf(-1)
	idleW := 0.0
	for m, c := range s.counts {
		if c == 0 {
			continue
		}
		bestEE = max(bestEE, sp.lbEE[m])
		idleW += float64(c) * sp.lbIdleW[m]
	}
	if powerOff {
		idleW = 0
	}
	// The quotient row of a model holding bestEE: newSpace rejects NaN
	// efficiencies, so one does.
	best := 0
	for m, c := range s.counts {
		if c > 0 && sp.lbEE[m] == bestEE {
			best = m
			break
		}
	}
	var lb float64
	if powerOff && s.capacity >= sp.maxCellOps {
		lb = sp.lbOff[best]
	} else {
		n := len(s.cells)
		quot, cap := sp.lbQuot[best*n:(best+1)*n], s.capacity
		for c, d := range h.BinOps[:n] {
			// min(d, cap)/bestEE: a cell mean can round past the peak,
			// and so past a feasible fleet's capacity.
			w := quot[c]
			if d > cap {
				w = cap / bestEE
			}
			s.cells[c] = max(w, idleW)
		}
		lb, _ = sp.objectiveOf(sp.fold(s.cells, s.rj)/3.6e6, s.rj)
	}
	return lb*(1-1e-9) + sp.embodiedOf(s.counts)
}

// fold sums each cell's energy, weight·watts·step, in cell order from
// zero and returns the joules; into rj it sums, the same way, every
// rate set's rate times each cell's energy. One rate set (a diurnal
// carbon plan) and two (a two-region plan) keep their sums in
// registers beside the joules, so the chains advance together instead
// of through memory.
func (sp *space) fold(watts, rj []float64) float64 {
	h := sp.hist
	weight := h.Weight[:len(watts)]
	var joules float64
	switch len(rj) {
	case 1:
		r0, rj0 := h.Rates[0][:len(watts)], 0.0
		for c, w := range watts {
			e := weight[c] * w * h.StepSeconds
			joules += e
			rj0 += r0[c] * e
		}
		rj[0] = rj0
	case 2:
		r0, r1 := h.Rates[0][:len(watts)], h.Rates[1][:len(watts)]
		var rj0, rj1 float64
		for c, w := range watts {
			e := weight[c] * w * h.StepSeconds
			joules += e
			rj0 += r0[c] * e
			rj1 += r1[c] * e
		}
		rj[0], rj[1] = rj0, rj1
	default:
		clear(rj)
		for c, w := range watts {
			e := weight[c] * w * h.StepSeconds
			joules += e
			for k, rates := range h.Rates {
				rj[k] += rates[c] * e
			}
		}
	}
	return joules
}

// score evaluates the loaded candidate against the trace fold: the
// scorer's evaluator Reset to the multiset, one power evaluation per
// cell, and every varying plan's rate-weighted energy. The candidate's
// Counts is the scorer's own until the caller copies it. It returns
// ok=false when the evaluator rejects the fleet, which a feasible
// candidate, with members and capacity, never is.
func (s *scorer) score(id int64, policy cluster.Policy) (Candidate, bool) {
	sp := s.sp
	groups := s.groups[:0]
	servers := 0
	for m, c := range s.counts {
		if c > 0 {
			groups = append(groups, placement.Group{P: sp.models[m], Count: c})
			servers += c
		}
	}
	if err := s.ev.Reset(groups, policy); err != nil {
		return Candidate{}, false
	}
	s.ev.PowerAtEach(s.cells, sp.hist.BinOps)
	kwh := sp.fold(s.cells, s.rj) / 3.6e6
	obj, reg := sp.objectiveOf(kwh, s.rj)
	return Candidate{
		ID:          id,
		Counts:      s.counts,
		Policy:      policy,
		Servers:     servers,
		CapacityOps: s.ev.Capacity(),
		EnergyKWh:   kwh,
		Objective:   obj + sp.embodiedOf(s.counts),
		Region:      sp.plans[reg].name,
	}, true
}

// visit loads candidate id and, when it is feasible and its bound does
// not exceed the pruning bound, scores it.
func (s *scorer) visit(id int64, bound float64) (Candidate, outcome) {
	policy := s.load(id)
	if !s.feasible {
		return Candidate{}, infeasible
	}
	if !s.sp.cfg.DisablePruning && s.lowerBound(policy) > bound {
		return Candidate{}, pruned
	}
	c, ok := s.score(id, policy)
	if !ok {
		return Candidate{}, infeasible
	}
	return c, scored
}

// outcome is what visiting a candidate did with it.
type outcome int

const (
	infeasible outcome = iota
	pruned
	scored
)

// score evaluates one candidate, unbounded, on a scorer of its own;
// ok=false for infeasible candidates.
func (sp *space) score(id int64) (Candidate, bool) {
	s := sp.newScorer()
	policy := s.load(id)
	if !s.feasible {
		return Candidate{}, false
	}
	return s.score(id, policy)
}

// incumbents lists the minimal feasible homogeneous fleet of every
// model under every policy — cheap, deterministic seeds for the
// pruning bound and the beam frontier.
func (sp *space) incumbents() []int64 {
	var ids []int64
	counts := make([]int, len(sp.models))
	for m := range sp.models {
		// Smallest grid count whose capacity covers the peak.
		need := 0
		for mult := 1; mult < sp.radix; mult++ {
			c := mult * sp.step
			if float64(c)*sp.perOps[m] >= sp.hist.PeakOps {
				need = c
				break
			}
		}
		if need == 0 {
			continue
		}
		for i := range counts {
			counts[i] = 0
		}
		counts[m] = need
		for _, policy := range sp.policies {
			ids = append(ids, sp.encode(counts, policy))
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// segResult is one candidate segment's contribution.
type segResult struct {
	top                           []Candidate
	evaluated, pruned, infeasible int64
}

// scanSegment enumerates candidates [lo, lo+searchSegment) — feasible
// candidates whose lower bound clears the pruning bound are scored;
// the rest are counted. Everything in a segment depends only on the
// segment's own IDs and the fixed bound, so segments are
// order-independent.
func (sp *space) scanSegment(lo int64, bound float64) segResult {
	hi := min(lo+searchSegment, sp.size)
	var r segResult
	s := sp.newScorer()
	for id := lo; id < hi; id++ {
		s.scan(id, bound, &r)
	}
	return r
}

// scan visits candidate id and tallies it into r, copying its counts
// only when it enters r's shortlist.
func (s *scorer) scan(id int64, bound float64, r *segResult) {
	c, o := s.visit(id, bound)
	switch o {
	case infeasible:
		r.infeasible++
	case pruned:
		r.pruned++
	default:
		r.evaluated++
		if _, ok := shortlistPos(r.top, c, s.sp.topK); ok {
			c.Counts = slices.Clone(c.Counts)
			r.top = pushTop(r.top, c, s.sp.topK)
		}
	}
}

// shortlistPos returns where c ranks in the (objective, id)-ordered
// shortlist top, and whether pushTop with at most k entries would
// insert it there: not when it ranks past the k'th or its ID is
// already listed.
func shortlistPos(top []Candidate, c Candidate, k int) (int, bool) {
	pos := sort.Search(len(top), func(i int) bool {
		if top[i].Objective != c.Objective {
			return top[i].Objective > c.Objective
		}
		return top[i].ID >= c.ID
	})
	if pos < len(top) && top[pos].ID == c.ID {
		return pos, false
	}
	return pos, pos < k
}

// pushTop inserts c into the (objective, id)-ordered shortlist,
// keeping at most k entries. Duplicate IDs collapse.
func pushTop(top []Candidate, c Candidate, k int) []Candidate {
	pos, ok := shortlistPos(top, c, k)
	if !ok {
		return top
	}
	top = append(top, Candidate{})
	copy(top[pos+1:], top[pos:])
	top[pos] = c
	if len(top) > k {
		top = top[:k]
	}
	return top
}

// replay runs the candidate through the full fleet simulation once,
// accumulating every varying plan's exact per-step billing through the
// simulator's ordered Sink, and prices the exact objective as the
// cheapest region. Sink emission is in step order at any worker count,
// so the exact billing is deterministic; an all-static objective needs
// no Sink.
func (sp *space) replay(c Candidate) (Candidate, error) {
	groups := make([]placement.Group, 0, len(c.Counts))
	for m, n := range c.Counts {
		if n > 0 {
			groups = append(groups, placement.Group{P: sp.models[m], Count: n})
		}
	}
	cfg := fleetsim.Config{
		Groups: groups,
		Policy: c.Policy,
		Trace:  sp.cfg.Trace,
		Power:  sp.cfg.Power,
		Seed:   sp.cfg.Seed,
	}
	rj := make([]float64, len(sp.hist.Rates))
	if sp.varying() {
		cfg.Sink = func(s fleetsim.StepStats) error {
			for _, p := range sp.plans {
				if p.rateSet >= 0 {
					rj[p.rateSet] += p.rates[s.Step] * s.EnergyJ
				}
			}
			return nil
		}
	}
	res, err := fleetsim.Run(cfg)
	if err != nil {
		return Candidate{}, err
	}
	obj, reg := sp.objectiveOf(res.EnergyKWh, rj)
	c.ExactEnergyKWh = res.EnergyKWh
	c.ExactObjective = obj + sp.embodiedOf(c.Counts)
	c.Region = sp.plans[reg].name
	c.Exact = true
	return c, nil
}

// beamStats tallies a beam search.
type beamStats struct {
	evaluated, pruned, infeasible int64
}

// beam runs the deterministic multi-restart local search used when the
// space exceeds ExhaustiveLimit. Every restart draws its own branch
// seed derived from Config.Seed; the frontier, neighbor generation and
// evaluation order are functions of the candidate IDs alone, so the
// search visits an identical candidate sequence at any worker count.
func (sp *space) beam(seeds []Candidate, bound float64) ([]Candidate, beamStats) {
	width := sp.cfg.BeamWidth
	if width == 0 {
		width = 24
	}
	rounds := sp.cfg.BeamRounds
	if rounds == 0 {
		rounds = 40
	}
	restarts := sp.cfg.Restarts
	if restarts == 0 {
		restarts = 6
	}
	var stats beamStats
	seen := make(map[int64]bool)
	var top []Candidate
	frontier := make([]Candidate, 0, width)
	for _, c := range seeds {
		seen[c.ID] = true
		top = pushTop(top, c, sp.topK)
		frontier = pushTop(frontier, c, width)
	}

	// Random restarts: feasible compositions drawn from per-restart
	// branch RNGs join the initial frontier.
	counts := make([]int, len(sp.models))
	var restartIDs []int64
	for r := 0; r < restarts; r++ {
		// branchMix is 0x9E3779B97F4A7C15 (the splitmix64 increment) as
		// a two's-complement int64.
		const branchMix = int64(-7046029254386353131)
		rng := rand.New(rand.NewSource(sp.cfg.Seed ^ (int64(r+1) * branchMix)))
		for try := 0; try < 64; try++ {
			for m := range counts {
				counts[m] = rng.Intn(sp.radix) * sp.step
			}
			if !sp.feasible(counts) {
				continue
			}
			id := sp.encode(counts, sp.policies[rng.Intn(len(sp.policies))])
			if !seen[id] {
				seen[id] = true
				restartIDs = append(restartIDs, id)
			}
			break
		}
	}
	evalBatch := func(ids []int64) {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		cands := par.Map(len(ids), func(i int) *Candidate {
			c, o := sp.newScorer().visit(ids[i], bound)
			switch o {
			case infeasible:
				return nil
			case pruned:
				return &Candidate{ID: -1}
			}
			return &c
		})
		for _, c := range cands {
			switch {
			case c == nil:
				stats.infeasible++
			case c.ID < 0:
				stats.pruned++
			default:
				stats.evaluated++
				top = pushTop(top, *c, sp.topK)
				frontier = pushTop(frontier, *c, width)
			}
		}
	}
	evalBatch(restartIDs)

	counts2 := make([]int, len(sp.models))
	for round := 0; round < rounds; round++ {
		var next []int64
		for _, c := range frontier {
			sp.decode(c.ID, counts)
			// Neighbors: one count up or down per model, and every other
			// policy at the same counts.
			for m := range counts {
				for _, delta := range []int{sp.step, -sp.step} {
					copy(counts2, counts)
					counts2[m] += delta
					if counts2[m] < 0 || counts2[m] > (sp.radix-1)*sp.step {
						continue
					}
					id := sp.encode(counts2, c.Policy)
					if !seen[id] {
						seen[id] = true
						next = append(next, id)
					}
				}
			}
			for _, policy := range sp.policies {
				if policy == c.Policy {
					continue
				}
				id := sp.encode(counts, policy)
				if !seen[id] {
					seen[id] = true
					next = append(next, id)
				}
			}
		}
		if len(next) == 0 {
			break
		}
		evalBatch(next)
		// The bound tightens between rounds — never within one, so a
		// round's outcome is independent of evaluation order.
		if !sp.cfg.DisablePruning && len(top) >= sp.topK {
			if b := top[len(top)-1].Objective; b < bound {
				bound = b
			}
		}
	}
	return top, stats
}
