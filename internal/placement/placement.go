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
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/par"
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
	// level, plus the peak wattage. PowerAt and EEAt interpolate on
	// these slices directly instead of calling the error-returning
	// core.Curve.PowerAt, which rebuilds its normalized-power slice on
	// every call. The interpolation arithmetic is kept identical to
	// core.Curve.PowerAt, so the fast path is bit-for-bit equal to the
	// curve path.
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

// Profiles derives one profile per result from its measured curve, in
// parallel and in input order. The first failing result (by index)
// decides the error.
func Profiles(rs []*dataset.Result) ([]*Profile, error) {
	return par.MapErr(len(rs), func(i int) (*Profile, error) {
		c, err := rs[i].Curve()
		if err != nil {
			return nil, err
		}
		return NewProfile(rs[i].ID, c)
	})
}

// OpsAt returns the throughput the server delivers at utilization u,
// assuming the SPECpower load model (throughput proportional to load).
func (p *Profile) OpsAt(u float64) float64 {
	return p.MaxOps * clamp01(u)
}

// PowerAt returns the absolute wall power at utilization u, linearly
// interpolated between measured levels on the profile's lookup table.
// Out-of-range utilizations clamp to [0, 1] and NaN draws NaN; the call
// cannot fail.
func (p *Profile) PowerAt(u float64) float64 {
	// clamp01, with NaN sent back as drawn.
	if !(u > 0) {
		if u != u {
			return u
		}
		u = 0
	} else if u > 1 {
		u = 1
	}
	if len(p.lutUtil) == 0 {
		// Profile built without NewProfile: fall back to the curve path.
		norm, err := p.Curve.PowerAt(u)
		if err != nil {
			return p.Curve.PeakPower()
		}
		return norm * p.Curve.PeakPower()
	}
	// On an evenly spaced grid u·(len-1) truncates to the segment's
	// lower end, so the segment is the next point unless u sits on that
	// end; any other grid walks from there.
	grid, last := p.lutUtil, len(p.lutUtil)-1
	i := min(int(u*float64(last))+1, last)
	if grid[i-1] >= u && i > 1 || grid[i] < u && i < last {
		i = GridSegment(grid, u, i)
	}
	lo, hi := grid[i-1], grid[i]
	frac := (u - lo) / (hi - lo)
	return (p.lutNorm[i-1] + frac*(p.lutNorm[i]-p.lutNorm[i-1])) * p.peakW
}

// GridSegment returns the interpolation segment of utilization u on an
// ascending grid of at least two points: the first index i ≥ 1 with
// grid[i] ≥ u, or len(grid)-1 when no point is. It walks from hint,
// clamped into [1, len(grid)-1], so a caller that evaluates nearby
// utilizations in turn pays only for the points it moves past; PowerAt
// passes its direct-index estimate. A NaN u compares false everywhere
// and gets the clamped hint back.
func GridSegment(grid []float64, u float64, hint int) int {
	last := len(grid) - 1
	i := min(max(hint, 1), last)
	for i > 1 && grid[i-1] >= u {
		i--
	}
	for i < last && grid[i] < u {
		i++
	}
	return i
}

// EEAt returns ops per watt at utilization u.
func (p *Profile) EEAt(u float64) float64 {
	w := p.PowerAt(u)
	if w <= 0 {
		return 0
	}
	return p.OpsAt(u) / w
}

// PeakPowerWatts returns the wall power at 100% utilization.
func (p *Profile) PeakPowerWatts() float64 {
	if p.peakW > 0 {
		return p.peakW
	}
	return p.Curve.PeakPower()
}

// PowerTable returns the power lookup table PowerAt interpolates on: the
// utilization grid, the power at each level normalized to the peak, and
// the peak wattage, so PowerAt(u) is (norm[i-1] + f·(norm[i]-norm[i-1]))
// · peakW on the grid segment i holding u. The slices are the profile's
// own and must not be mutated. A profile built without NewProfile
// derives the table from its curve on each call.
func (p *Profile) PowerTable() (util, norm []float64, peakW float64) {
	if len(p.lutUtil) > 0 {
		return p.lutUtil, p.lutNorm, p.peakW
	}
	pts := p.Curve.Points()
	util = make([]float64, len(pts))
	for i, pt := range pts {
		util[i] = pt.Utilization
	}
	return util, p.Curve.NormalizedPower(), p.Curve.PeakPower()
}

// OptimalEE returns the efficiency at the server's optimal utilization,
// cached at construction: the planners sort whole fleets by it.
func (p *Profile) OptimalEE() float64 {
	if p.optimalEE != 0 {
		return p.optimalEE
	}
	return p.EEAt(p.OptimalUtilization)
}

func clamp01(u float64) float64 { return max(0, min(1, u)) }

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
				cl.EPLow = min(cl.EPLow, s.EP)
				cl.EPHigh = max(cl.EPHigh, s.EP)
			}
			out = append(out, cl)
		}
		for _, s := range members {
			lo := max(curRegion.Lo, s.Region.Lo)
			hi := min(curRegion.Hi, s.Region.Hi)
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

// Fill is a grouped proportional fill in compact form. Over groups in
// engage order, every group before Group runs all its members at its
// upper level and every group after Group at its lower level; Group
// itself runs Hi members at the upper level, one member at MidUtil when
// Mid is set, and the rest at the lower level. Until the fill tops up,
// a group's upper level is its engage target and its lower level 0
// (idle). Once every group sits at its engage target and demand
// remains, TopUp is set: the upper level becomes the cap-limited top,
// target + headroom/MaxOps, for a group with headroom under its cap (the
// target for one without), and the lower level the engage target.
// Group is len(order) when no group splits.
type Fill struct {
	Group   int
	Hi      int
	Mid     bool
	MidUtil float64
	TopUp   bool
	// Remaining is the demand the fill leaves unserved.
	Remaining float64
}

// FillRun is a group of an engage-ordered fleet with the per-member
// constants a proportional fill reads, computed once by AppendFillRuns:
// the engage target, the throughput there, and the headroom from the
// target up to the utilization cap.
type FillRun struct {
	Group
	Target, Ops, Head float64
}

// AppendFillRuns appends order, a fleet's groups already in engage
// order, to dst as fill runs.
func AppendFillRuns(dst []FillRun, order []Group) []FillRun {
	for _, g := range order {
		target := g.P.engageTarget()
		ops := g.P.OpsAt(target)
		dst = append(dst, FillRun{Group: g, Target: target, Ops: ops, Head: g.P.CappedOps() - ops})
	}
	return dst
}

// SortEngageOrder stably sorts runs into EngageOrder's order,
// descending optimal-point efficiency, and merges adjacent runs of one
// profile, in place, returning the merged prefix: the runs a fill walks
// for a fleet given in any group order. Expanding the runs reproduces
// EngageOrder on the expanded fleet: the comparator is negative exactly
// where EngageOrder's "greater efficiency first" predicate says less,
// NaN efficiencies included, and ties keep input order.
func SortEngageOrder(runs []FillRun) []FillRun {
	slices.SortStableFunc(runs, func(a, b FillRun) int {
		ea, eb := a.P.OptimalEE(), b.P.OptimalEE()
		switch {
		case ea > eb:
			return -1
		case eb > ea:
			return 1
		}
		return 0
	})
	out := runs[:0]
	for _, r := range runs {
		if n := len(out); n > 0 && out[n-1].P == r.P {
			out[n-1].Count += r.Count
			continue
		}
		out = append(out, r)
	}
	return out
}

// splits reports whether a run of count members, each taking per,
// splits the remainder: whether splitRun returns less than count. The
// remainder left after j takes, remaining - float64(j)*per, is
// non-increasing in j, so the run splits exactly when the last member
// covers what the others leave.
func splits(remaining, per float64, count int) bool {
	return count > 0 && per >= remaining-float64(count-1)*per
}

// splitRun returns the smallest j in [0, count) at which one more
// per-member take of size per covers the closed-form remainder
// remaining - float64(j)*per, for a run that splits. A binary search
// finds j in O(log count), or, given a hint ≥ 0, a walk from it finds
// j in as many steps as it moves.
func splitRun(remaining, per float64, count, hint int) int {
	covers := func(j int) bool { return per >= remaining-float64(j)*per }
	if hint < 0 {
		lo, hi := 0, count-1
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if covers(mid) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return lo
	}
	j := min(hint, count-1)
	for j > 0 && covers(j-1) {
		j--
	}
	for !covers(j) {
		j++
	}
	return j
}

// FillGroups is the grouped core of ProportionalFill: it computes the
// proportional-placement split of demandOps over runs in engage order.
// Within a run, member-at-a-time remainder updates collapse to the
// closed form remaining - float64(j)*perMember; for runs of one server
// the arithmetic is bit-for-bit the member scan's, which is what lets
// the grouped cluster evaluator pin Float64bits-identical results
// against the expanded fleet. The cost is one step per run up to the
// marginal one, a search inside that run, and no allocation.
//
// from is a fill of the same runs at a nearby demand, or the zero
// Fill: when it split a run, a split of that run in the same phase is
// found by walking from its position instead of searching. The result
// does not depend on from.
func FillGroups(order []FillRun, demandOps float64, from Fill) Fill {
	remaining := demandOps
	for i, g := range order {
		if remaining <= 0 {
			return Fill{Group: i, Remaining: remaining}
		}
		if splits(remaining, g.Ops, g.Count) {
			j := splitRun(remaining, g.Ops, g.Count, from.hint(i, false))
			return Fill{Group: i, Hi: j, Mid: true, MidUtil: (remaining - float64(j)*g.Ops) / g.P.MaxOps}
		}
		remaining -= float64(g.Count) * g.Ops
	}
	if remaining <= 0 {
		return Fill{Group: len(order), Remaining: remaining}
	}
	// Every member sits exactly at its engage target (a partial member
	// would have zeroed the remainder): top up toward each group's cap.
	for i, g := range order {
		if remaining <= 0 {
			return Fill{Group: i, TopUp: true, Remaining: remaining}
		}
		if g.Head <= 0 {
			continue
		}
		if splits(remaining, g.Head, g.Count) {
			j := splitRun(remaining, g.Head, g.Count, from.hint(i, true))
			take := remaining - float64(j)*g.Head
			return Fill{Group: i, Hi: j, Mid: true, MidUtil: g.Target + take/g.P.MaxOps, TopUp: true}
		}
		remaining -= float64(g.Count) * g.Head
	}
	return Fill{Group: len(order), TopUp: true, Remaining: remaining}
}

// hint is the split position f gives run i in the given phase, or -1
// when f did not split that run.
func (f Fill) hint(i int, topUp bool) int {
	if f.Mid && f.Group == i && f.TopUp == topUp {
		return f.Hi
	}
	return -1
}

// engageTarget is the utilization proportional placement holds the
// server at before topping up: its optimal utilization, under its cap.
func (p *Profile) engageTarget() float64 { return min(p.OptimalUtilization, p.maxUtil()) }

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
// split back to per-member utilizations.
func ProportionalFill(order []*Profile, demandOps float64, util []float64) float64 {
	runs := AppendFillRuns(nil, GroupRuns(order))
	f := FillGroups(runs, demandOps, Fill{})
	i := 0
	for gi, g := range runs {
		upper, lower := g.Target, 0.0
		if f.TopUp {
			lower = upper
			if g.Head > 0 {
				upper += g.Head / g.P.MaxOps
			}
		}
		hi, mid := g.Count, false
		if gi == f.Group {
			hi, mid = f.Hi, f.Mid
		} else if gi > f.Group {
			hi = 0
		}
		for j := 0; j < g.Count; j++ {
			switch {
			case j < hi:
				util[i] = upper
			case j == hi && mid:
				util[i] = f.MidUtil
			default:
				util[i] = lower
			}
			i++
		}
	}
	return f.Remaining
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
		take := min(s.CappedOps(), remaining)
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
			total += s.OpsAt(min(u, s.maxUtil()))
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
		util[i] = min(u, s.maxUtil())
	}
	remaining := max(0, demandOps-capacity)
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
		engage := s.engageTarget()
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
