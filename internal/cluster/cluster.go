// Package cluster computes cluster-wide energy proportionality: it
// composes the measured power curves of a server group into one
// aggregate power-utilization curve under a load-distribution policy
// and evaluates the paper's EP metric on the result.
//
// This operationalizes two observations from the paper: §III.E's
// finding that multiple identical nodes working on one workload are
// more energy proportional than the same nodes run independently, and
// §V.C's logical-cluster guidance. Policies differ in how they spread a
// given cluster utilization across members:
//
//   - PolicySpread loads every member equally — the load-balancer
//     default and the least proportional choice, because every machine
//     pays its idle power at all times.
//   - PolicyPack fills one member to 100% before engaging the next,
//     with idle members still powered — masking idle power behind fully
//     used machines and lifting cluster EP.
//   - PolicyPackPowerOff is PolicyPack with idle members powered off —
//     the upper bound, approaching ideal proportionality for large
//     clusters.
//   - PolicyOptimalRegion holds engaged members at their peak-
//     efficiency utilization before topping up — §V.C's strategy.
package cluster

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/placement"
)

// Policy selects how cluster load is spread across members.
type Policy int

// Policies.
const (
	PolicySpread Policy = iota + 1
	PolicyPack
	PolicyPackPowerOff
	PolicyOptimalRegion
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case PolicySpread:
		return "spread"
	case PolicyPack:
		return "pack"
	case PolicyPackPowerOff:
		return "pack+off"
	case PolicyOptimalRegion:
		return "optimal-region"
	default:
		return "unknown"
	}
}

// AllPolicies lists the policies in increasing expected proportionality
// order.
func AllPolicies() []Policy {
	return []Policy{PolicySpread, PolicyPack, PolicyPackPowerOff, PolicyOptimalRegion}
}

// Aggregate is a cluster-level power-utilization curve.
type Aggregate struct {
	// Utilizations and PowerWatts trace the cluster curve; utilization
	// is cluster throughput over cluster capacity.
	Utilizations []float64
	PowerWatts   []float64
	// CapacityOps is the cluster's total throughput at full load.
	CapacityOps float64
	// Policy produced this curve.
	Policy Policy
}

// EP computes the paper's Eq. 1 metric on the aggregate curve.
func (a Aggregate) EP() float64 {
	peak := a.PowerWatts[len(a.PowerWatts)-1]
	if peak <= 0 {
		return 0
	}
	var area float64
	for i := 1; i < len(a.Utilizations); i++ {
		du := a.Utilizations[i] - a.Utilizations[i-1]
		area += du * (a.PowerWatts[i] + a.PowerWatts[i-1]) / 2 / peak
	}
	return 2 - 2*area
}

// IdleFraction returns cluster idle power over cluster peak power.
func (a Aggregate) IdleFraction() float64 {
	peak := a.PowerWatts[len(a.PowerWatts)-1]
	if peak <= 0 {
		return 0
	}
	return a.PowerWatts[0] / peak
}

// Curve converts the aggregate into a core.Curve with synthetic
// throughput proportional to utilization, so every core metric applies
// to clusters too. Power-off policies can reach zero idle power, which
// core.Curve forbids; a 1 mW floor keeps the curve valid without
// affecting any metric.
func (a Aggregate) Curve() (*core.Curve, error) {
	pts := make([]core.Point, len(a.Utilizations))
	for i, u := range a.Utilizations {
		w := a.PowerWatts[i]
		if w <= 0 {
			w = 1e-3
		}
		pts[i] = core.Point{
			Utilization: u,
			OpsPerSec:   a.CapacityOps * u,
			PowerWatts:  w,
		}
	}
	return core.NewCurve(pts)
}

// gridSteps is the resolution of the aggregate curve (plus the idle
// point): fine enough that pack-policy kinks at member boundaries
// survive the quadrature.
const gridSteps = 100

// Compose builds the aggregate curve of the member servers under the
// policy. Grid evaluation is sharded over internal/par; every grid
// point depends only on the precomputed fleet arrays and its own demand
// value, so the output is identical at any worker count.
func Compose(members []*placement.Profile, policy Policy) (Aggregate, error) {
	ev, err := NewEvaluator(members, policy)
	if err != nil {
		return Aggregate{}, err
	}
	agg := Aggregate{
		Utilizations: make([]float64, gridSteps+1),
		PowerWatts:   make([]float64, gridSteps+1),
		CapacityOps:  ev.capacity,
		Policy:       policy,
	}
	chunks := par.Chunks(gridSteps + 1)
	par.ForEach(len(chunks), func(ci int) {
		for g := chunks[ci].Lo; g < chunks[ci].Hi; g++ {
			u := float64(g) / gridSteps
			agg.Utilizations[g] = u
			agg.PowerWatts[g] = ev.PowerAt(ev.capacity * u)
		}
	})
	return agg, nil
}

// Evaluator holds the per-fleet state precomputed once per fleet so
// each demand point evaluates without sorting, allocating, or calling
// into a profile per member. The fleet is stored as maximal runs of
// identical members (placement.Group); per-member prefix state over a
// run collapses to the closed form base + float64(j)·perMember, so
// construction and every query cost O(groups·…) rather than
// O(servers·…):
//
//   - Pack/PackPowerOff: per-group boundary prefix sums of capacity
//     and peak power plus a suffix sum of idle power turn the linear
//     fill scan into two binary searches — O(log groups) per demand
//     point.
//   - Spread: groups are bucketed into maximal member-order runs
//     sharing one utilization grid, each run's normalized power laid
//     out level-major; a demand point finds its grid segment once per
//     run, then sums count × interpolated power over two contiguous
//     rows.
//   - OptimalRegion: groups are sorted into engage order once, with
//     each group's fill constants (placement.FillRun) and its count ×
//     power at idle, at its engage target and at its top-up level
//     precomputed; a demand point runs placement.FillGroups to find
//     the marginal group, adds the precomputed terms around it, and
//     evaluates only the marginal group live.
//
// Every sum runs in member order for spread and in engage order for
// optimal-region, each term computed as Profile.PowerAt computes it, so
// the kernels are Float64bits-identical to summing Profile.PowerAt
// member by member. For an all-distinct fleet
// every run has length one and the closed form reduces to the
// member-at-a-time accumulation bit-for-bit; a grouped fleet built via
// NewGroupedEvaluator shares this arithmetic with the expanded fleet,
// which is what makes the composition optimizer's candidate scores
// Float64bits-identical to expanding the multiset (see
// TestGroupedEvaluatorOracle).
//
// PowerAt searches for each demand's position in the fleet;
// PowerAtEach evaluates a slice of demands walking from one position to
// the next, with the same per-demand arithmetic. Compose builds one
// evaluator per call; internal/fleetsim builds one per simulation and
// reuses it across every time step; the composition optimizer Resets
// one per search segment for every candidate it scores. Between Resets
// an Evaluator is read-only and safe for concurrent use.
type Evaluator struct {
	policy Policy
	// groups are the fleet's maximal runs in member order; startIdx[g]
	// is the member index where group g begins, startIdx[len(groups)]
	// the fleet size.
	groups   []placement.Group
	startIdx []int
	n        int
	capacity float64
	// idleW is the whole-fleet idle draw summed in member order — the
	// demand<=0 answer for Pack and OptimalRegion.
	idleW float64
	// Pack/PackPowerOff state, all len(groups): per-member capacity,
	// peak and idle watts of each group, and the closed-form prefix
	// value at the END of each group (endOps/endPeakW). sufIdleW has
	// len(groups)+1: the suffix idle draw at the START of each group.
	gOps, gPeakW, gIdleW []float64
	endOps, endPeakW     []float64
	sufIdleW             []float64
	// Spread state: float64(Count) and peak watts per group, and the
	// grid runs. A fleet on one grid keeps its single run in run0.
	count, peakW []float64
	runs         []spreadRun
	run0         [1]spreadRun
	// OptimalRegion state: fill is the engage order, coalesced into
	// maximal runs again after the stable sort. levels holds, per run of
	// fill, one member's power at level l — 0 idle, 1 the engage target,
	// 2 the top-up level — at levels[l*len(fill)+i], and the run's count
	// times it at levels[(3+l)*len(fill)+i]. upperSum[l-1][k] is the
	// sum, in engage order from zero, of the count-times terms of level
	// l over the first k runs: a fill's fully engaged prefix.
	fill     []placement.FillRun
	levels   []float64
	upperSum [2][]float64
	// buf backs the policy's float arrays and spill its grid runs when
	// there is more than one, so a Reset that fits reuses them.
	buf   []float64
	spill []spreadRun
}

// spreadRun is a maximal member-order run of groups [lo, end) sharing
// one utilization grid (the first group's, read-only). norm holds the
// normalized power of its groups level-major: norm[l*n+j] is the run's
// j'th group at grid level l, n = end-lo.
type spreadRun struct {
	lo, end int
	grid    []float64
	norm    []float64
}

// NewEvaluator validates the members and precomputes the policy's
// fleet arrays. It fails on an empty fleet, a zero-capacity fleet, or
// an unknown policy — the same validation Compose applies.
func NewEvaluator(members []*placement.Profile, policy Policy) (*Evaluator, error) {
	if len(members) == 0 {
		return nil, errors.New("cluster: no members")
	}
	return NewGroupedEvaluator(placement.GroupRuns(members), policy)
}

// NewGroupedEvaluator builds an evaluator for a fleet given as model
// groups without expanding the multiset: a candidate composition of
// millions of servers over a handful of models costs O(models) to
// construct and O(log models) per demand point. Zero-count groups are
// dropped and adjacent equal-profile groups merge; negative counts and
// nil profiles are rejected. The result is Float64bits-identical to
// NewEvaluator over the expanded member list.
func NewGroupedEvaluator(groups []placement.Group, policy Policy) (*Evaluator, error) {
	ev := new(Evaluator)
	if err := ev.Reset(groups, policy); err != nil {
		return nil, err
	}
	return ev, nil
}

// Reset rebuilds the evaluator in place for a new fleet, with
// NewGroupedEvaluator's validation and result, reusing the evaluator's
// buffers: a Reset whose fleet fits them allocates nothing. It must not
// run concurrently with any other use of the evaluator, and after an
// error the evaluator is unusable until a Reset succeeds.
func (ev *Evaluator) Reset(groups []placement.Group, policy Policy) error {
	merged := ev.groups[:0]
	if cap(merged) < len(groups) {
		merged = make([]placement.Group, 0, len(groups))
	}
	for _, g := range groups {
		if g.Count < 0 {
			return fmt.Errorf("cluster: negative group count %d", g.Count)
		}
		if g.Count == 0 {
			continue
		}
		if g.P == nil {
			return errors.New("cluster: nil profile in group")
		}
		if n := len(merged); n > 0 && merged[n-1].P == g.P {
			merged[n-1].Count += g.Count
			continue
		}
		merged = append(merged, g)
	}
	if len(merged) == 0 {
		return errors.New("cluster: no members")
	}
	if err := ev.build(merged, policy); err != nil {
		return err
	}
	if ev.capacity <= 0 {
		return errors.New("cluster: zero capacity")
	}
	return nil
}

// grow returns s resized to n, reallocating only when it lacks room.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// build lays out the policy's arrays for groups, maximal runs in member
// order, on the evaluator's buffers.
func (ev *Evaluator) build(groups []placement.Group, policy Policy) error {
	G := len(groups)
	*ev = Evaluator{policy: policy, groups: groups,
		startIdx: grow(ev.startIdx, G+1), fill: ev.fill[:0], buf: ev.buf, spill: ev.spill}
	ev.startIdx[0] = 0
	for i, g := range groups {
		ev.startIdx[i+1] = ev.startIdx[i] + g.Count
	}
	ev.n = ev.startIdx[G]
	switch policy {
	case PolicySpread:
		for _, g := range groups {
			ev.capacity += float64(g.Count) * g.P.MaxOps
		}
		ev.buildSpread()
	case PolicyPack, PolicyPackPowerOff:
		ev.buf = grow(ev.buf, 6*G+1)
		k := ev.buf
		ev.gOps, ev.gPeakW, ev.gIdleW = k[:G], k[G:2*G], k[2*G:3*G]
		ev.endOps, ev.endPeakW, ev.sufIdleW = k[3*G:4*G], k[4*G:5*G], k[5*G:]
		var ops, pw float64
		for i, g := range groups {
			ev.gOps[i] = g.P.MaxOps
			ev.gPeakW[i] = g.P.PowerAt(1)
			ev.gIdleW[i] = g.P.PowerAt(0)
			ops += float64(g.Count) * ev.gOps[i]
			pw += float64(g.Count) * ev.gPeakW[i]
			ev.endOps[i] = ops
			ev.endPeakW[i] = pw
		}
		ev.sufIdleW[G] = 0
		for i := G - 1; i >= 0; i-- {
			ev.sufIdleW[i] = ev.sufIdleW[i+1] + float64(groups[i].Count)*ev.gIdleW[i]
		}
		ev.capacity = ev.endOps[G-1]
		for i, g := range groups {
			ev.idleW += float64(g.Count) * ev.gIdleW[i]
		}
	case PolicyOptimalRegion:
		for _, g := range groups {
			ev.capacity += float64(g.Count) * g.P.MaxOps
			ev.idleW += float64(g.Count) * g.P.PowerAt(0)
		}
		if cap(ev.fill) < G {
			ev.fill = make([]placement.FillRun, 0, G)
		}
		ev.fill = placement.SortEngageOrder(placement.AppendFillRuns(ev.fill, groups))
		O := len(ev.fill)
		ev.buf = grow(ev.buf, 8*O+2)
		ev.levels = ev.buf[:6*O]
		ev.upperSum[0], ev.upperSum[1] = ev.buf[6*O:7*O+1], ev.buf[7*O+1:]
		for i, r := range ev.fill {
			top := r.Target
			if r.Head > 0 {
				top = r.Target + r.Head/r.P.MaxOps
			}
			for l, u := range [3]float64{0, r.Target, top} {
				w := r.P.PowerAt(u)
				ev.levels[l*O+i], ev.levels[(3+l)*O+i] = w, float64(r.Count)*w
			}
		}
		for l, sum := range ev.upperSum {
			sum[0] = 0
			for i, w := range ev.levels[(4+l)*O : (5+l)*O] {
				sum[i+1] = sum[i] + w
			}
		}
	default:
		return fmt.Errorf("cluster: unknown policy %d", policy)
	}
	return nil
}

// buildSpread lays out the spread kernel on buf: the per-group count
// and peak watts, then each grid run's level-major normalized power.
func (ev *Evaluator) buildSpread() {
	G := len(ev.groups)
	grid := func(g int) []float64 {
		util, _, _ := ev.groups[g].P.PowerTable()
		return util
	}
	runEnd := func(lo int) int {
		hi, g := lo+1, grid(lo)
		for hi < G && slices.Equal(grid(hi), g) {
			hi++
		}
		return hi
	}
	size, nRuns := 2*G, 0
	for lo := 0; lo < G; nRuns++ {
		hi := runEnd(lo)
		size += len(grid(lo)) * (hi - lo)
		lo = hi
	}
	ev.buf = grow(ev.buf, size)
	t := ev.buf
	ev.count, ev.peakW, t = t[:G], t[G:2*G], t[2*G:]
	ev.runs = ev.run0[:0]
	if nRuns > 1 {
		ev.spill = grow(ev.spill, nRuns)
		ev.runs = ev.spill[:0]
	}
	for lo := 0; lo < G; {
		hi := runEnd(lo)
		r := spreadRun{lo: lo, end: hi, grid: grid(lo)}
		n := hi - lo
		r.norm, t = t[:len(r.grid)*n], t[len(r.grid)*n:]
		for j := lo; j < hi; j++ {
			_, norm, peakW := ev.groups[j].P.PowerTable()
			ev.count[j], ev.peakW[j] = float64(ev.groups[j].Count), peakW
			for l, v := range norm {
				r.norm[l*n+j-lo] = v
			}
		}
		ev.runs = append(ev.runs, r)
		lo = hi
	}
}

// Policy returns the policy the evaluator was built for.
func (ev *Evaluator) Policy() Policy { return ev.policy }

// Len returns the number of members.
func (ev *Evaluator) Len() int { return ev.n }

// Groups returns the fleet's maximal runs in member order. The slice
// is the evaluator's own: it must not be mutated, and Reset reuses it.
func (ev *Evaluator) Groups() []placement.Group { return ev.groups }

// Capacity returns the fleet's total throughput at full load.
func (ev *Evaluator) Capacity() float64 { return ev.capacity }

// groupOf returns the index of the group containing member i;
// i must be in [0, n).
func (ev *Evaluator) groupOf(i int) int {
	lo, hi := 0, len(ev.groups)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ev.startIdx[mid+1] > i {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// packPoint locates the marginal member for positive demand under a
// pack policy: the group gi and 1-based offset j within it of the
// first member at which the cumulative capacity reaches demand.
// Demand beyond the fleet capacity saturates at the last member.
func (ev *Evaluator) packPoint(d float64) (gi, j int) {
	lo, hi := 0, len(ev.groups)-1
	if d > ev.endOps[hi] {
		return hi, ev.groups[hi].Count
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ev.endOps[mid] >= d {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	gi = lo
	base := 0.0
	if gi > 0 {
		base = ev.endOps[gi-1]
	}
	per := ev.gOps[gi]
	jlo, jhi := 1, ev.groups[gi].Count
	for jlo < jhi {
		mid := int(uint(jlo+jhi) >> 1)
		if base+float64(mid)*per >= d {
			jhi = mid
		} else {
			jlo = mid + 1
		}
	}
	return gi, jlo
}

// packMember is a pack fleet's marginal member, the j'th of group gi,
// with what every demand it takes shares: the capacity (lo, hi] it
// covers, lo being what the members before it serve, and the draw of
// the members before it at full load and, under PolicyPack, of the
// idle members after it.
type packMember struct {
	gi, j         int
	lo, hi, per   float64
	before, after float64
	p             *placement.Profile
	// idle is set under PolicyPack, whose members after the marginal
	// one draw idle power.
	idle bool
}

// setPackMember makes m the j'th member of group gi.
func (ev *Evaluator) setPackMember(m *packMember, gi, j int) {
	base, basePw := 0.0, 0.0
	if gi > 0 {
		base, basePw = ev.endOps[gi-1], ev.endPeakW[gi-1]
	}
	per := ev.gOps[gi]
	m.gi, m.j, m.per, m.p = gi, j, per, ev.groups[gi].P
	m.lo = base + float64(j-1)*per
	m.hi = base + float64(j)*per
	m.before = basePw + float64(j-1)*ev.gPeakW[gi]
	m.idle = ev.policy == PolicyPack
	if !m.idle {
		return
	}
	// suffixIdleW of the member after this one, in closed form: the
	// rest of group gi, or from the next group on.
	if rest := ev.groups[gi].Count - j; rest > 0 {
		m.after = ev.sufIdleW[gi+1] + float64(rest)*ev.gIdleW[gi]
	} else {
		m.after = ev.sufIdleW[gi+1]
	}
}

// util is the member's utilization serving positive demand it is
// marginal for: what the members before it leave, over its capacity.
func (m *packMember) util(demandOps float64) float64 {
	return (demandOps - m.lo) / m.per
}

// powerAt is the pack draw with the member at utilization u: the
// members before it full, it at u, and, under PolicyPack, the members
// after it idle.
func (m *packMember) powerAt(u float64) float64 {
	watts := m.before + m.p.PowerAt(u)
	if m.idle {
		watts += m.after
	}
	return watts
}

// packStep moves m to the marginal member of positive demand d, from
// the previous demand's: packPoint's answer, walked to instead of
// searched for. Groups are few, so it walks them one at a time; inside
// a group it walks from m's member, or from the estimate (d-base)/per
// in a new group.
func (ev *Evaluator) packStep(m *packMember, d float64) {
	last := len(ev.groups) - 1
	if !(d <= ev.endOps[last]) {
		// Beyond capacity, and NaN, which packPoint's searches also send
		// to the last member.
		ev.setPackMember(m, last, ev.groups[last].Count)
		return
	}
	gi, j := m.gi, m.j
	for gi > 0 && ev.endOps[gi-1] >= d {
		gi--
	}
	for ev.endOps[gi] < d {
		gi++
	}
	base := 0.0
	if gi > 0 {
		base = ev.endOps[gi-1]
	}
	per, n := ev.gOps[gi], ev.groups[gi].Count
	if gi != m.gi {
		j = int((d-base)/per) + 1
	}
	j = min(max(j, 1), n)
	for j > 1 && base+float64(j-1)*per >= d {
		j--
	}
	for j < n && base+float64(j)*per < d {
		j++
	}
	ev.setPackMember(m, gi, j)
}

// packIdle is the pack policies' draw at demand at or below zero.
func (ev *Evaluator) packIdle() float64 {
	if ev.policy == PolicyPackPowerOff {
		return 0
	}
	return ev.idleW
}

// prefixOps returns the closed-form cumulative capacity of the first k
// members; k must be in [1, n].
func (ev *Evaluator) prefixOps(k int) float64 {
	g := ev.groupOf(k - 1)
	base := 0.0
	if g > 0 {
		base = ev.endOps[g-1]
	}
	return base + float64(k-ev.startIdx[g])*ev.gOps[g]
}

// prefixPeakW returns the closed-form cumulative full-load power of
// the first k members; k must be in [1, n].
func (ev *Evaluator) prefixPeakW(k int) float64 {
	g := ev.groupOf(k - 1)
	base := 0.0
	if g > 0 {
		base = ev.endPeakW[g-1]
	}
	return base + float64(k-ev.startIdx[g])*ev.gPeakW[g]
}

// suffixIdleW returns the closed-form idle power of members k..;
// k must be in [0, n].
func (ev *Evaluator) suffixIdleW(k int) float64 {
	if k >= ev.n {
		return 0
	}
	g := ev.groupOf(k)
	return ev.sufIdleW[g+1] + float64(ev.startIdx[g+1]-k)*ev.gIdleW[g]
}

// PowerAt computes the cluster's power when serving demandOps. The
// policy was validated at evaluator construction, so it cannot fail.
// Demand at or below zero draws the policy's idle power; demand beyond
// the fleet capacity saturates deterministically at the full-load draw
// (every member at 100%, or at its utilization cap for
// PolicyOptimalRegion, which honors caps by construction).
func (ev *Evaluator) PowerAt(demandOps float64) float64 {
	switch ev.policy {
	case PolicySpread:
		u := ev.spreadUtil(demandOps)
		var watts float64
		for k := range ev.runs {
			r := &ev.runs[k]
			i := placement.GridSegment(r.grid, u, int(u*float64(len(r.grid)-1)))
			watts = ev.addSpreadRun(watts, r, u, i)
		}
		return watts
	case PolicyPack, PolicyPackPowerOff:
		if demandOps <= 0 {
			return ev.packIdle()
		}
		var m packMember
		gi, j := ev.packPoint(demandOps)
		ev.setPackMember(&m, gi, j)
		return m.powerAt(m.util(demandOps))
	case PolicyOptimalRegion:
		if demandOps <= 0 {
			// All members idle.
			return ev.idleW
		}
		return ev.fillPower(placement.FillGroups(ev.fill, demandOps, placement.Fill{}))
	default:
		return 0
	}
}

// PowerAtEach writes PowerAt(demands[i]) to dst[i] for every i, bit for
// bit; dst must be at least as long as demands. It carries each
// demand's position in the fleet — the marginal group and member for
// the pack policies, the grid segment of every grid run for spread, the
// split of the marginal run for optimal-region — over to the next
// demand and walks from there, so ascending demands, or demands that
// mostly ascend, cost each a few steps instead of a search; in any
// other order a demand costs the distance its position moves.
func (ev *Evaluator) PowerAtEach(dst, demands []float64) {
	dst = dst[:len(demands)]
	switch ev.policy {
	case PolicySpread:
		// Run-major: each run's contribution lands on dst in run order,
		// so every demand sums its terms in PowerAt's order.
		clear(dst)
		for k := range ev.runs {
			r := &ev.runs[k]
			i := 1
			for c, d := range demands {
				u := ev.spreadUtil(d)
				i = placement.GridSegment(r.grid, u, i)
				dst[c] = ev.addSpreadRun(dst[c], r, u, i)
			}
		}
	case PolicyPack, PolicyPackPowerOff:
		// A demand inside the last one's marginal member takes two
		// compares to place.
		var m packMember
		ev.setPackMember(&m, 0, 1)
		for c, d := range demands {
			if d <= 0 {
				dst[c] = ev.packIdle()
				continue
			}
			if !(m.lo < d && d <= m.hi) {
				ev.packStep(&m, d)
			}
			dst[c] = m.powerAt(m.util(d))
		}
	case PolicyOptimalRegion:
		var f placement.Fill
		for c, d := range demands {
			if d <= 0 {
				dst[c] = ev.idleW
				continue
			}
			f = placement.FillGroups(ev.fill, d, f)
			dst[c] = ev.fillPower(f)
		}
	default:
		clear(dst)
	}
}

// spreadUtil is the utilization every member runs at under spread.
func (ev *Evaluator) spreadUtil(demandOps float64) float64 {
	return max(0, min(1, demandOps/ev.capacity))
}

// addSpreadRun adds run r's draw with every member at utilization u,
// on grid segment i, to watts: count × ((a + frac·(b−a)) × peak) over
// the run's two level rows — Profile.PowerAt's interpolation, term for
// term.
func (ev *Evaluator) addSpreadRun(watts float64, r *spreadRun, u float64, i int) float64 {
	n := r.end - r.lo
	frac := (u - r.grid[i-1]) / (r.grid[i] - r.grid[i-1])
	a := r.norm[(i-1)*n : i*n]
	b := r.norm[i*n : (i+1)*n][:len(a)]
	count, peakW := ev.count[r.lo:r.end][:len(a)], ev.peakW[r.lo:r.end][:len(a)]
	for j := range a {
		watts += count[j] * ((a[j] + frac*(b[j]-a[j])) * peakW[j])
	}
	return watts
}

// fillPower sums a proportional fill of positive demand in engage
// order: the runs before the marginal one at their upper level, the
// marginal run's split, the runs after it at their lower level. Until
// the fill tops up, the levels are the engage target and idle; in the
// top-up phase they are the top-up level and the engage target.
func (ev *Evaluator) fillPower(f placement.Fill) float64 {
	O, upper := len(ev.fill), 1
	if f.TopUp {
		upper = 2
	}
	m := f.Group
	watts := ev.upperSum[upper-1][m]
	if m == O {
		return watts
	}
	row := func(k int) []float64 { return ev.levels[k*O : (k+1)*O] }
	upperP, lowerP, lowerGW := row(upper), row(upper-1), row(2+upper)
	lo := ev.fill[m].Count - f.Hi
	if f.Hi > 0 {
		watts += float64(f.Hi) * upperP[m]
	}
	if f.Mid {
		watts += ev.fill[m].P.PowerAt(f.MidUtil)
		lo--
	}
	if lo > 0 {
		watts += float64(lo) * lowerP[m]
	}
	for _, w := range lowerGW[m+1:] {
		watts += w
	}
	return watts
}

// The pack-order accessors below expose the prefix-sum/active-set state
// the incremental fleet simulator steps on. They are defined for the
// pack policies (PolicyPack, PolicyPackPowerOff), whose members have a
// fixed engagement order; the other policies have no pack order and the
// accessors degenerate to whole-fleet answers.

// MinServers returns the smallest k such that the first k members (in
// member order) have the capacity to serve demandOps: 0 for demand at
// or below zero, and Len() — deterministic saturation, never a panic —
// when demand exceeds the fleet capacity. Pack-policy evaluators answer
// in O(log n) on the capacity prefix sums; other policies engage the
// whole fleet for any positive demand.
func (ev *Evaluator) MinServers(demandOps float64) int {
	if demandOps <= 0 {
		return 0
	}
	if ev.endOps == nil {
		return ev.n
	}
	if demandOps > ev.capacity {
		return ev.n
	}
	gi, j := ev.packPoint(demandOps)
	return ev.startIdx[gi] + j
}

// PrefixCapacity returns the combined capacity of the first k members;
// k clamps to [0, Len()]. Pack policies only; other evaluators return
// the whole-fleet capacity for any positive k.
func (ev *Evaluator) PrefixCapacity(k int) float64 {
	if k <= 0 {
		return 0
	}
	if ev.endOps == nil {
		return ev.capacity
	}
	if k > ev.n {
		k = ev.n
	}
	return ev.prefixOps(k)
}

// PrefixPeakWatts returns the combined full-load power of the first k
// members; k clamps to [0, Len()]. The simulator prices a span of
// power-on transitions as a difference of two of these. Pack policies
// only; other evaluators return 0.
func (ev *Evaluator) PrefixPeakWatts(k int) float64 {
	if ev.endPeakW == nil || k <= 0 {
		return 0
	}
	if k > ev.n {
		k = ev.n
	}
	return ev.prefixPeakW(k)
}

// SuffixIdleWatts returns the combined active-idle power of members
// k..; k clamps to [0, Len()]. A span's idle draw — the cost of
// servers a hysteresis policy keeps warm — is a difference of two of
// these. Pack policies only; other evaluators return 0.
func (ev *Evaluator) SuffixIdleWatts(k int) float64 {
	if ev.sufIdleW == nil {
		return 0
	}
	if k < 0 {
		k = 0
	}
	if k > ev.n {
		k = ev.n
	}
	return ev.suffixIdleW(k)
}

// ActivePower returns the fleet's power draw when exactly the first
// active members are powered on and demandOps packs across them left
// to right: members fill to 100% in order, the marginal member takes
// the remainder, and powered-on members beyond the demand draw active
// idle power — they are on (a simulator's hysteresis keeps them warm),
// unlike Compose's PolicyPackPowerOff curve where unengaged members are
// off. Demand beyond the active capacity saturates deterministically:
// every active member runs at full load and the excess goes unserved.
// active clamps to [0, Len()]; zero active draws nothing. Pack-policy
// evaluators only — ActivePower panics otherwise.
func (ev *Evaluator) ActivePower(demandOps float64, active int) float64 {
	if ev.endOps == nil {
		panic("cluster: ActivePower requires a pack-policy evaluator")
	}
	if active > ev.n {
		active = ev.n
	}
	if active <= 0 {
		return 0
	}
	if demandOps <= 0 {
		return ev.suffixIdleW(0) - ev.suffixIdleW(active)
	}
	if demandOps > ev.capacity {
		return ev.prefixPeakW(active)
	}
	gi, j := ev.packPoint(demandOps)
	k := ev.startIdx[gi] + j
	if k > active {
		// Saturated: every active member at full load.
		return ev.prefixPeakW(active)
	}
	var m packMember
	ev.setPackMember(&m, gi, j)
	return m.before + m.p.PowerAt(m.util(demandOps)) +
		(ev.suffixIdleW(k) - ev.suffixIdleW(active))
}

// Member returns the i'th member in pack order.
func (ev *Evaluator) Member(i int) *placement.Profile {
	if i < 0 || i >= ev.n {
		panic("cluster: member index out of range")
	}
	return ev.groups[ev.groupOf(i)].P
}

// Comparison evaluates every policy over the same members.
type Comparison struct {
	Members int
	Rows    []ComparisonRow
}

// ComparisonRow is one policy's cluster-level metrics.
type ComparisonRow struct {
	Policy       Policy
	EP           float64
	IdleFraction float64
	// HalfLoadWatts is the cluster draw at 50% utilization — where
	// real fleets spend their time and policies differ the most.
	HalfLoadWatts float64
}

// Compare composes the members under every policy. Policies evaluate
// in parallel; rows land at their policy's index, so the table is the
// same at any worker count.
func Compare(members []*placement.Profile) (Comparison, error) {
	policies := AllPolicies()
	rows, err := par.MapErr(len(policies), func(i int) (ComparisonRow, error) {
		agg, err := Compose(members, policies[i])
		if err != nil {
			return ComparisonRow{}, err
		}
		return ComparisonRow{
			Policy:        policies[i],
			EP:            agg.EP(),
			IdleFraction:  agg.IdleFraction(),
			HalfLoadWatts: agg.PowerWatts[len(agg.PowerWatts)/2],
		}, nil
	})
	if err != nil {
		return Comparison{}, err
	}
	return Comparison{Members: len(members), Rows: rows}, nil
}

// ScalingPoint is one cluster size in a scaling study.
type ScalingPoint struct {
	Nodes int
	EP    float64
}

// ScalingStudy replicates one server profile into clusters of the given
// sizes and reports cluster EP under the policy — the computational
// counterpart of the paper's Fig. 13 economies-of-scale observation.
func ScalingStudy(prototype *placement.Profile, sizes []int, policy Policy) ([]ScalingPoint, error) {
	for _, n := range sizes {
		if n < 1 {
			return nil, fmt.Errorf("cluster: invalid size %d", n)
		}
	}
	return par.MapErr(len(sizes), func(i int) (ScalingPoint, error) {
		members := make([]*placement.Profile, sizes[i])
		for j := range members {
			members[j] = prototype
		}
		agg, err := Compose(members, policy)
		if err != nil {
			return ScalingPoint{}, err
		}
		return ScalingPoint{Nodes: sizes[i], EP: agg.EP()}, nil
	})
}

// KnightShift composes a primary server with a low-power companion
// ("knight") that serves low loads while the primary rests — the
// server-level heterogeneity of Wong & Annavaram (the paper's refs
// [17]/[40], "scaling the energy proportionality wall"). Below the
// switch point the knight runs alone (the primary idles, or powers off
// with primaryOff); above it the primary takes over and the knight
// powers off. The aggregate curve shows the EP lift heterogeneity buys
// even when both members are far from proportional.
func KnightShift(primary, knight *placement.Profile, primaryOff bool) (Aggregate, error) {
	if primary == nil || knight == nil {
		return Aggregate{}, errors.New("cluster: knightshift needs both servers")
	}
	if knight.MaxOps >= primary.MaxOps {
		return Aggregate{}, fmt.Errorf("cluster: knight capacity %.0f must sit below the primary's %.0f",
			knight.MaxOps, primary.MaxOps)
	}
	capacity := primary.MaxOps // the knight only offloads; it adds no peak capacity
	agg := Aggregate{
		Utilizations: make([]float64, 0, gridSteps+1),
		PowerWatts:   make([]float64, 0, gridSteps+1),
		CapacityOps:  capacity,
		Policy:       PolicyPack, // closest ancestor; reported via ScalingStudy-style callers
	}
	switchOps := knight.MaxOps
	for step := 0; step <= gridSteps; step++ {
		u := float64(step) / gridSteps
		demand := capacity * u
		var watts float64
		if demand <= switchOps {
			// Knight mode.
			watts = knight.PowerAt(demand / knight.MaxOps)
			if !primaryOff {
				watts += primary.PowerAt(0)
			}
		} else {
			// Primary mode; knight off.
			watts = primary.PowerAt(demand / primary.MaxOps)
		}
		agg.Utilizations = append(agg.Utilizations, u)
		agg.PowerWatts = append(agg.PowerWatts, watts)
	}
	return agg, nil
}
