// Package placement operationalizes Section V of the paper: energy-
// proportionality-aware workload placement for heterogeneous fleets.
// It profiles servers from their measured power/performance curves,
// groups them into logical clusters by proportionality band and
// overlapping optimal working regions (§V.C), and places workload so
// servers run inside their high-efficiency zones — keeping a server at
// its peak-efficiency utilization (often 70-80% on modern machines)
// rather than packing it to 100%. Baseline strategies (pack-to-full,
// spread-evenly) are provided for comparison.
package placement

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
)

// Profile characterizes one server for placement decisions.
type Profile struct {
	// ID identifies the server.
	ID string
	// Curve is the measured power/performance curve.
	Curve *core.Curve
	// MaxOps is the throughput at 100% utilization.
	MaxOps float64
	// EP caches the proportionality metric.
	EP float64
	// OptimalUtilization is the lowest utilization attaining peak
	// efficiency.
	OptimalUtilization float64
	// Region is the widest utilization interval whose efficiency stays
	// at or above regionThreshold × the full-load efficiency.
	Region core.Interval
	// UtilizationCap bounds how far the planners may load this server
	// (0 means uncapped). Latency-critical services derate servers this
	// way — see workload.MaxRateUnderSLA for deriving the cap from a
	// p99 target.
	UtilizationCap float64

	// Power lookup table, resolved once from Curve at NewProfile time:
	// the curve's utilization grid and the normalized power at each
	// level, plus the peak wattage. The hot-path evaluators (PowerAt,
	// PowerAtAll, EEAt) interpolate on these slices directly instead of
	// calling the error-returning core.Curve.PowerAt, which rebuilds its
	// normalized-power slice on every call. The interpolation arithmetic
	// is kept identical to core.Curve.PowerAt, so the fast path is
	// bit-for-bit equal to the curve path.
	lutUtil []float64
	lutNorm []float64
	peakW   float64
	// optimalEE caches EEAt(OptimalUtilization); the planners sort whole
	// fleets by it on every call.
	optimalEE float64
}

// maxUtil returns the effective utilization ceiling.
func (p *Profile) maxUtil() float64 {
	if p.UtilizationCap <= 0 || p.UtilizationCap > 1 {
		return 1
	}
	return p.UtilizationCap
}

// CappedOps returns the throughput available under the utilization cap.
func (p *Profile) CappedOps() float64 { return p.OpsAt(p.maxUtil()) }

// regionThreshold defines the high-efficiency working region: within
// 98.5% of the best achievable normalized efficiency, which for servers
// peaking below 100% captures the paper's "70%-100% is the better
// working region" guidance.
const regionThreshold = 0.985

// NewProfile derives a placement profile from a measured curve. The
// curve is resolved once into the profile's power lookup table here, so
// every later power evaluation is infallible: interpolation errors that
// the curve path could report are constructor validation failures
// instead.
func NewProfile(id string, curve *core.Curve) (*Profile, error) {
	if curve == nil {
		return nil, errors.New("placement: nil curve")
	}
	pts := curve.Points()
	maxOps := pts[len(pts)-1].OpsPerSec
	if maxOps <= 0 {
		return nil, fmt.Errorf("placement: server %s has no throughput at full load", id)
	}
	peakW := curve.PeakPower()
	if peakW <= 0 || math.IsNaN(peakW) || math.IsInf(peakW, 0) {
		return nil, fmt.Errorf("placement: server %s has invalid peak power %v", id, peakW)
	}
	p := &Profile{
		ID:                 id,
		Curve:              curve,
		MaxOps:             maxOps,
		EP:                 curve.EP(),
		OptimalUtilization: curve.PeakEEUtilization(),
		lutUtil:            make([]float64, len(pts)),
		lutNorm:            curve.NormalizedPower(),
		peakW:              peakW,
	}
	for i, pt := range pts {
		p.lutUtil[i] = pt.Utilization
	}
	peakNorm := curve.PeakOverFullRatio()
	if region, ok := curve.WidestHighEfficiencyRegion(peakNorm * regionThreshold); ok {
		p.Region = region
	} else {
		p.Region = core.Interval{Lo: p.OptimalUtilization, Hi: 1}
	}
	p.optimalEE = p.EEAt(p.OptimalUtilization)
	return p, nil
}

// OpsAt returns the throughput the server delivers at utilization u,
// assuming the SPECpower load model (throughput proportional to load).
func (p *Profile) OpsAt(u float64) float64 {
	return p.MaxOps * clamp01(u)
}

// PowerAt returns the absolute wall power at utilization u, linearly
// interpolated between measured levels on the profile's lookup table.
// Out-of-range utilizations clamp to [0, 1]; the call cannot fail.
func (p *Profile) PowerAt(u float64) float64 {
	u = clamp01(u)
	if len(p.lutUtil) == 0 {
		// Profile built without NewProfile: fall back to the curve path.
		norm, err := p.Curve.PowerAt(u)
		if err != nil {
			return p.Curve.PeakPower()
		}
		return norm * p.Curve.PeakPower()
	}
	// First segment endpoint i ≥ 1 with lutUtil[i] ≥ u — the segment the
	// curve path's linear scan selects.
	i := sort.SearchFloat64s(p.lutUtil, u)
	if i < 1 {
		i = 1
	}
	lo, hi := p.lutUtil[i-1], p.lutUtil[i]
	frac := (u - lo) / (hi - lo)
	return (p.lutNorm[i-1] + frac*(p.lutNorm[i]-p.lutNorm[i-1])) * p.peakW
}

// PowerAtAll evaluates PowerAt on every utilization in us, writing into
// dst (allocated when nil or too short) and returning it. The batched
// form keeps cluster grid evaluation allocation-free.
func (p *Profile) PowerAtAll(us, dst []float64) []float64 {
	if cap(dst) < len(us) {
		dst = make([]float64, len(us))
	}
	dst = dst[:len(us)]
	for i, u := range us {
		dst[i] = p.PowerAt(u)
	}
	return dst
}

// EEAt returns ops per watt at utilization u.
func (p *Profile) EEAt(u float64) float64 {
	w := p.PowerAt(u)
	if w <= 0 {
		return 0
	}
	return p.OpsAt(u) / w
}

// EEAtAll evaluates EEAt on every utilization in us, writing into dst
// (allocated when nil or too short) and returning it.
func (p *Profile) EEAtAll(us, dst []float64) []float64 {
	if cap(dst) < len(us) {
		dst = make([]float64, len(us))
	}
	dst = dst[:len(us)]
	for i, u := range us {
		dst[i] = p.EEAt(u)
	}
	return dst
}

// PeakPowerWatts returns the wall power at 100% utilization.
func (p *Profile) PeakPowerWatts() float64 {
	if p.peakW > 0 {
		return p.peakW
	}
	return p.Curve.PeakPower()
}

// OptimalEE returns the efficiency at the server's optimal utilization,
// cached at construction: the planners sort whole fleets by it.
func (p *Profile) OptimalEE() float64 {
	if p.optimalEE != 0 {
		return p.optimalEE
	}
	return p.EEAt(p.OptimalUtilization)
}

func clamp01(u float64) float64 { return math.Max(0, math.Min(1, u)) }

// positiveFinite reports whether a demand or power cap is plannable:
// NaN, ±Inf, zero and negative values are not.
func positiveFinite(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// Cluster is a logical group of servers with similar proportionality
// whose optimal working regions overlap (§V.C). The cluster's Region is
// the intersection of its members' regions.
type Cluster struct {
	Servers []*Profile
	// EPLow/EPHigh bound the members' proportionality.
	EPLow, EPHigh float64
	// Region is the shared optimal working region.
	Region core.Interval
}

// Capacity returns the cluster's throughput when every member runs at
// the top of the shared region.
func (c Cluster) Capacity() float64 {
	var total float64
	for _, s := range c.Servers {
		total += s.OpsAt(c.Region.Hi)
	}
	return total
}

// BuildClusters groups profiles into logical clusters: first by EP band
// of the given width, then by merging members whose working regions
// overlap. Clusters are ordered by descending EP band.
func BuildClusters(profiles []*Profile, epBandWidth float64) ([]Cluster, error) {
	if epBandWidth <= 0 {
		return nil, fmt.Errorf("placement: invalid EP band width %v", epBandWidth)
	}
	bands := make(map[int][]*Profile)
	for _, p := range profiles {
		bands[int(p.EP/epBandWidth)] = append(bands[int(p.EP/epBandWidth)], p)
	}
	keys := make([]int, 0, len(bands))
	for k := range bands {
		keys = append(keys, k)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(keys)))

	var out []Cluster
	for _, k := range keys {
		members := bands[k]
		sort.SliceStable(members, func(i, j int) bool { return members[i].Region.Lo < members[j].Region.Lo })
		// Sweep: start a new cluster whenever the next server's region
		// no longer overlaps the running intersection.
		var cur []*Profile
		curRegion := core.Interval{Lo: 0, Hi: 1}
		flush := func() {
			if len(cur) == 0 {
				return
			}
			cl := Cluster{Servers: cur, Region: curRegion}
			cl.EPLow, cl.EPHigh = math.Inf(1), math.Inf(-1)
			for _, s := range cur {
				cl.EPLow = math.Min(cl.EPLow, s.EP)
				cl.EPHigh = math.Max(cl.EPHigh, s.EP)
			}
			out = append(out, cl)
		}
		for _, s := range members {
			lo := math.Max(curRegion.Lo, s.Region.Lo)
			hi := math.Min(curRegion.Hi, s.Region.Hi)
			if len(cur) > 0 && lo > hi {
				flush()
				cur = nil
				lo, hi = s.Region.Lo, s.Region.Hi
			}
			cur = append(cur, s)
			curRegion = core.Interval{Lo: lo, Hi: hi}
		}
		flush()
	}
	return out, nil
}

// Assignment is one server's share of a placement plan.
type Assignment struct {
	Server      *Profile
	Utilization float64
	Ops         float64
	PowerWatts  float64
}

// Plan is a complete workload placement.
type Plan struct {
	Assignments []Assignment
	TotalOps    float64
	TotalPower  float64
	// DemandOps is what was requested; Satisfied reports whether the
	// plan covers it.
	DemandOps float64
	Satisfied bool
}

// EE returns the plan's fleet-wide ops per watt.
func (p Plan) EE() float64 {
	if p.TotalPower <= 0 {
		return 0
	}
	return p.TotalOps / p.TotalPower
}

// Options tunes the placement strategies.
type Options struct {
	// IdleServersOff treats unassigned servers as powered off (zero
	// draw). When false they stay at active idle, which is the realistic
	// default for latency-sensitive fleets.
	IdleServersOff bool
}

// errors returned by the planners.
var (
	ErrNoServers = errors.New("placement: no servers")
	ErrDemand    = errors.New("placement: demand must be positive and finite")
)

// EngageOrder returns the profiles sorted in descending optimal-point
// efficiency — the order PlaceProportional engages servers. Callers
// evaluating many demand points against one fleet (the cluster grid)
// compute it once and feed it to ProportionalFill per point.
func EngageOrder(profiles []*Profile) []*Profile {
	order := append([]*Profile(nil), profiles...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].OptimalEE() > order[j].OptimalEE() })
	return order
}

// PackOrder returns the profiles sorted in descending full-load
// efficiency — the order PackToFull engages servers. A pack-policy
// simulation over members in this order draws what PackToFull plans.
func PackOrder(profiles []*Profile) []*Profile {
	order := append([]*Profile(nil), profiles...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].EEAt(1) > order[j].EEAt(1) })
	return order
}

// Group is a homogeneous run: Count servers sharing one profile. The
// grouped fill and the cluster evaluators collapse per-member work
// over a run into closed-form count × per-model terms, so evaluating a
// fleet costs O(models) instead of O(servers).
type Group struct {
	P     *Profile
	Count int
}

// GroupFill is one group's share of a grouped proportional fill. The
// group's members split into at most three tiers in engage order: Hi
// members at HiUtil, then at most one partially loaded member at
// MidUtil, then Lo members at LoUtil. Hi+Mid+Lo == Count.
type GroupFill struct {
	Hi      int
	HiUtil  float64
	Mid     int
	MidUtil float64
	Lo      int
	LoUtil  float64
}

// EngageOrderGroups is the grouped form of EngageOrder: groups sorted
// in descending optimal-point efficiency. The sort is stable, so
// expanding the result reproduces EngageOrder on the expanded fleet
// (runs stay contiguous and ties keep input order).
func EngageOrderGroups(groups []Group) []Group {
	order := append([]Group(nil), groups...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].P.OptimalEE() > order[j].P.OptimalEE() })
	return order
}

// splitRun returns the smallest j in [0, count] at which one more
// per-member take of size per covers the closed-form remainder
// remaining - float64(j)*per. The remainder is non-increasing in j, so
// binary search applies and a run of any size costs O(log count).
func splitRun(remaining, per float64, count int) int {
	lo, hi := 0, count
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if per >= remaining-float64(mid)*per {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// FillGroups is the grouped core of ProportionalFill: it computes the
// proportional-placement tiers for demandOps over groups already in
// engage order, writing one GroupFill per group into fill (which must
// have len(order)), and returns the unsatisfied remainder. Within a
// run, member-at-a-time remainder updates collapse to the closed form
// remaining - float64(j)*perMember; for runs of one server the
// arithmetic is bit-for-bit the member scan's, which is what lets the
// grouped cluster evaluator pin Float64bits-identical results against
// the expanded fleet.
func FillGroups(order []Group, demandOps float64, fill []GroupFill) float64 {
	for i := range fill {
		fill[i] = GroupFill{Lo: order[i].Count}
	}
	remaining := demandOps
	for i, g := range order {
		if remaining <= 0 {
			break
		}
		target := math.Min(g.P.OptimalUtilization, g.P.maxUtil())
		ops := g.P.OpsAt(target)
		j := splitRun(remaining, ops, g.Count)
		if j == g.Count {
			fill[i] = GroupFill{Hi: g.Count, HiUtil: target}
			remaining -= float64(g.Count) * ops
			continue
		}
		fill[i] = GroupFill{
			Hi: j, HiUtil: target,
			Mid: 1, MidUtil: (remaining - float64(j)*ops) / g.P.MaxOps,
			Lo: g.Count - j - 1,
		}
		remaining = 0
		break
	}
	// Top up toward each group's cap when demand requires it. Reaching
	// here with remaining > 0 means every member sits exactly at its
	// engage target (a partial member would have zeroed the remainder).
	for i, g := range order {
		if remaining <= 0 {
			break
		}
		base := fill[i].HiUtil
		head := g.P.CappedOps() - g.P.OpsAt(base)
		if head <= 0 {
			continue
		}
		j := splitRun(remaining, head, g.Count)
		if j == g.Count {
			fill[i] = GroupFill{Hi: g.Count, HiUtil: base + head/g.P.MaxOps}
			remaining -= float64(g.Count) * head
			continue
		}
		take := remaining - float64(j)*head
		fill[i] = GroupFill{
			Hi: j, HiUtil: base + head/g.P.MaxOps,
			Mid: 1, MidUtil: base + take/g.P.MaxOps,
			Lo: g.Count - j - 1, LoUtil: base,
		}
		remaining = 0
	}
	return remaining
}

// GroupRuns coalesces an ordered member list into maximal runs of
// identical profiles (pointer equality). An all-distinct fleet yields
// one group per member.
func GroupRuns(order []*Profile) []Group {
	var groups []Group
	for _, p := range order {
		if n := len(groups); n > 0 && groups[n-1].P == p {
			groups[n-1].Count++
			continue
		}
		groups = append(groups, Group{P: p, Count: 1})
	}
	return groups
}

// ProportionalFill computes the proportional-placement utilizations for
// demandOps over a fleet already in engage order, writing them into
// util (which must have len(order)), and returns the unsatisfied
// remainder. It runs FillGroups over the fleet's runs and expands the
// tiers back to per-member utilizations, so replicated fleets cost
// O(runs·log run) instead of O(servers).
func ProportionalFill(order []*Profile, demandOps float64, util []float64) float64 {
	groups := GroupRuns(order)
	fill := make([]GroupFill, len(groups))
	remaining := FillGroups(groups, demandOps, fill)
	i := 0
	for _, f := range fill {
		for j := 0; j < f.Hi; j++ {
			util[i] = f.HiUtil
			i++
		}
		if f.Mid > 0 {
			util[i] = f.MidUtil
			i++
		}
		for j := 0; j < f.Lo; j++ {
			util[i] = f.LoUtil
			i++
		}
	}
	return remaining
}

// PlaceProportional is the paper-guided strategy: servers are engaged
// in descending order of their optimal-point efficiency and held at
// their optimal utilization; when demand exceeds the fleet's optimal
// capacity, servers are topped up toward 100% in the same order.
func PlaceProportional(profiles []*Profile, demandOps float64, opts Options) (Plan, error) {
	if len(profiles) == 0 {
		return Plan{}, ErrNoServers
	}
	if !positiveFinite(demandOps) {
		return Plan{}, ErrDemand
	}
	order := EngageOrder(profiles)
	util := make([]float64, len(order))
	remaining := ProportionalFill(order, demandOps, util)
	return assemble(order, util, demandOps, remaining, opts), nil
}

// PackToFull is the conventional baseline: fill each server to 100%
// before engaging the next (ordered by full-load efficiency).
func PackToFull(profiles []*Profile, demandOps float64, opts Options) (Plan, error) {
	if len(profiles) == 0 {
		return Plan{}, ErrNoServers
	}
	if !positiveFinite(demandOps) {
		return Plan{}, ErrDemand
	}
	order := PackOrder(profiles)
	util := make([]float64, len(order))
	remaining := demandOps
	for i, s := range order {
		if remaining <= 0 {
			break
		}
		take := math.Min(s.CappedOps(), remaining)
		util[i] = take / s.MaxOps
		remaining -= take
	}
	return assemble(order, util, demandOps, remaining, opts), nil
}

// SpreadEvenly is the load-balancer baseline: every server runs at the
// same utilization.
func SpreadEvenly(profiles []*Profile, demandOps float64, opts Options) (Plan, error) {
	if len(profiles) == 0 {
		return Plan{}, ErrNoServers
	}
	if !positiveFinite(demandOps) {
		return Plan{}, ErrDemand
	}
	var capacity float64
	for _, s := range profiles {
		capacity += s.CappedOps()
	}
	// Equal utilization, honoring per-server caps: bisect the common
	// utilization level (water-filling over the capped servers).
	served := func(u float64) float64 {
		var total float64
		for _, s := range profiles {
			total += s.OpsAt(math.Min(u, s.maxUtil()))
		}
		return total
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 50; i++ {
		mid := (lo + hi) / 2
		if served(mid) < demandOps {
			lo = mid
		} else {
			hi = mid
		}
	}
	u := hi
	util := make([]float64, len(profiles))
	for i, s := range profiles {
		util[i] = math.Min(u, s.maxUtil())
	}
	remaining := math.Max(0, demandOps-capacity)
	return assemble(profiles, util, demandOps, remaining, opts), nil
}

// assemble builds the plan from per-index utilizations aligned with
// order. Index alignment (rather than a pointer-keyed map) keeps the
// planners correct when the same Profile appears multiple times, e.g. a
// cluster of identical replicated nodes.
func assemble(order []*Profile, util []float64, demand, remaining float64, opts Options) Plan {
	plan := Plan{DemandOps: demand, Satisfied: remaining <= 1e-9}
	for i, s := range order {
		u := util[i]
		if u == 0 && opts.IdleServersOff {
			continue
		}
		a := Assignment{
			Server:      s,
			Utilization: u,
			Ops:         s.OpsAt(u),
			PowerWatts:  s.PowerAt(u),
		}
		plan.Assignments = append(plan.Assignments, a)
		plan.TotalOps += a.Ops
		plan.TotalPower += a.PowerWatts
	}
	return plan
}

// MaxThroughputUnderCap maximizes fleet throughput under a total power
// budget (§V.C: "for a fixed number of racks ... do more jobs under
// fixed power supply"). Servers engage at their optimal utilization in
// descending optimal-efficiency order while the budget lasts, then the
// remaining budget tops servers up toward 100%.
func MaxThroughputUnderCap(profiles []*Profile, powerCapWatts float64, opts Options) (Plan, error) {
	if len(profiles) == 0 {
		return Plan{}, ErrNoServers
	}
	if !positiveFinite(powerCapWatts) {
		return Plan{}, fmt.Errorf("placement: invalid power cap %v", powerCapWatts)
	}
	order := append([]*Profile(nil), profiles...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].OptimalEE() > order[j].OptimalEE() })

	util := make([]float64, len(order))
	budget := powerCapWatts
	// Mandatory idle draw for servers that cannot be powered off.
	if !opts.IdleServersOff {
		for _, s := range order {
			budget -= s.PowerAt(0)
		}
		if budget < 0 {
			return Plan{}, fmt.Errorf("placement: cap %v W below fleet idle draw %v W",
				powerCapWatts, powerCapWatts-budget)
		}
	}
	marginal := func(s *Profile, from, to float64) float64 {
		return s.PowerAt(to) - s.PowerAt(from)
	}
	for i, s := range order {
		base := 0.0
		engage := math.Min(s.OptimalUtilization, s.maxUtil())
		cost := marginal(s, 0, engage)
		if opts.IdleServersOff {
			cost = s.PowerAt(engage)
		}
		if cost <= budget {
			util[i] = engage
			budget -= cost
			continue
		}
		// Partial engagement: binary search the utilization affordable
		// within the remaining budget.
		lo, hi := base, engage
		for i := 0; i < 40; i++ {
			mid := (lo + hi) / 2
			c := marginal(s, 0, mid)
			if opts.IdleServersOff {
				c = s.PowerAt(mid)
			}
			if c <= budget {
				lo = mid
			} else {
				hi = mid
			}
		}
		if lo > 1e-6 {
			util[i] = lo
			if opts.IdleServersOff {
				budget -= s.PowerAt(lo)
			} else {
				budget -= marginal(s, 0, lo)
			}
		}
	}
	// Spend any remaining budget above the optimal points.
	for i, s := range order {
		if budget <= 0 {
			break
		}
		u := util[i]
		if u == 0 && opts.IdleServersOff {
			continue
		}
		top := s.maxUtil()
		if u >= top {
			continue
		}
		lo, hi := u, top
		if marginal(s, u, top) <= budget {
			budget -= marginal(s, u, top)
			util[i] = top
			continue
		}
		for iter := 0; iter < 40; iter++ {
			mid := (lo + hi) / 2
			if marginal(s, u, mid) <= budget {
				lo = mid
			} else {
				hi = mid
			}
		}
		budget -= marginal(s, u, lo)
		util[i] = lo
	}
	plan := assemble(order, util, 0, 0, opts)
	plan.Satisfied = plan.TotalPower <= powerCapWatts+1e-6
	return plan, nil
}
