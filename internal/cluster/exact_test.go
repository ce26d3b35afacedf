package cluster

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/placement"
)

// The reference below is the per-member spread loop and the per-group
// optimal-region fill (with its GroupFill tiers and power sum), kept
// verbatim as the oracle the evaluator's kernels must match bit for bit.
// Only placement helpers are re-spelled: refMaxUtil is Profile.maxUtil,
// refSplitRun is placement.splitRun, and engageOrderGroups is the
// grouped engage-order sort.

type refGroupFill struct {
	Hi      int
	HiUtil  float64
	Mid     int
	MidUtil float64
	Lo      int
	LoUtil  float64
}

func refMaxUtil(p *placement.Profile) float64 {
	if p.UtilizationCap <= 0 || p.UtilizationCap > 1 {
		return 1
	}
	return p.UtilizationCap
}

func refSplitRun(remaining, per float64, count int) int {
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

func refFillGroups(order []placement.Group, demandOps float64, fill []refGroupFill) float64 {
	for i := range fill {
		fill[i] = refGroupFill{Lo: order[i].Count}
	}
	remaining := demandOps
	for i, g := range order {
		if remaining <= 0 {
			break
		}
		target := math.Min(g.P.OptimalUtilization, refMaxUtil(g.P))
		ops := g.P.OpsAt(target)
		j := refSplitRun(remaining, ops, g.Count)
		if j == g.Count {
			fill[i] = refGroupFill{Hi: g.Count, HiUtil: target}
			remaining -= float64(g.Count) * ops
			continue
		}
		fill[i] = refGroupFill{
			Hi: j, HiUtil: target,
			Mid: 1, MidUtil: (remaining - float64(j)*ops) / g.P.MaxOps,
			Lo: g.Count - j - 1,
		}
		remaining = 0
		break
	}
	for i, g := range order {
		if remaining <= 0 {
			break
		}
		base := fill[i].HiUtil
		head := g.P.CappedOps() - g.P.OpsAt(base)
		if head <= 0 {
			continue
		}
		j := refSplitRun(remaining, head, g.Count)
		if j == g.Count {
			fill[i] = refGroupFill{Hi: g.Count, HiUtil: base + head/g.P.MaxOps}
			remaining -= float64(g.Count) * head
			continue
		}
		take := remaining - float64(j)*head
		fill[i] = refGroupFill{
			Hi: j, HiUtil: base + head/g.P.MaxOps,
			Mid: 1, MidUtil: base + take/g.P.MaxOps,
			Lo: g.Count - j - 1, LoUtil: base,
		}
		remaining = 0
	}
	return remaining
}

// engageOrderGroups sorts a copy of groups into placement.EngageOrder's
// order, descending optimal-point efficiency with ties in input order,
// with EngageOrder's own predicate.
func engageOrderGroups(groups []placement.Group) []placement.Group {
	order := append([]placement.Group(nil), groups...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].P.OptimalEE() > order[j].P.OptimalEE() })
	return order
}

// coalesceGroups merges adjacent equal-profile groups in place, as the
// evaluator's engage order does after its stable sort.
func coalesceGroups(groups []placement.Group) []placement.Group {
	out := groups[:0]
	for _, g := range groups {
		if n := len(out); n > 0 && out[n-1].P == g.P {
			out[n-1].Count += g.Count
			continue
		}
		out = append(out, g)
	}
	return out
}

// refPowerAt evaluates a spread or optimal-region fleet, given as its
// member-order groups, the way the per-member loops did.
func refPowerAt(groups []placement.Group, policy Policy, demandOps float64) float64 {
	var capacity, idleW float64
	for _, g := range groups {
		capacity += float64(g.Count) * g.P.MaxOps
		idleW += float64(g.Count) * g.P.PowerAt(0)
	}
	switch policy {
	case PolicySpread:
		u := math.Min(1, demandOps/capacity)
		var watts float64
		for _, g := range groups {
			watts += float64(g.Count) * g.P.PowerAt(u)
		}
		return watts
	case PolicyOptimalRegion:
		if demandOps <= 0 {
			return idleW
		}
		order := coalesceGroups(engageOrderGroups(groups))
		fill := make([]refGroupFill, len(order))
		refFillGroups(order, demandOps, fill)
		var watts float64
		for i, g := range order {
			f := fill[i]
			if f.Hi > 0 {
				watts += float64(f.Hi) * g.P.PowerAt(f.HiUtil)
			}
			if f.Mid > 0 {
				watts += g.P.PowerAt(f.MidUtil)
			}
			if f.Lo > 0 {
				watts += float64(f.Lo) * g.P.PowerAt(f.LoUtil)
			}
		}
		return watts
	default:
		panic("refPowerAt: spread and optimal-region only")
	}
}

// oddGridProfile builds a profile on a random non-standard utilization
// grid (3 to 15 levels), the kind a hand-built core.NewCurve yields.
func oddGridProfile(t *testing.T, rng *rand.Rand) *placement.Profile {
	t.Helper()
	us := []float64{0, 1}
	for k := rng.Intn(14); k > 0; k-- {
		us = append(us, 0.01+0.98*rng.Float64())
	}
	sort.Float64s(us)
	maxOps := 1e5 + 1e6*rng.Float64()
	w := 30 + 200*rng.Float64()
	pts := make([]core.Point, 0, len(us))
	for i, u := range us {
		if i > 0 && u == us[i-1] {
			continue
		}
		w += 1 + 60*rng.Float64()
		pts = append(pts, core.Point{Utilization: u, OpsPerSec: maxOps * u, PowerWatts: w})
	}
	c, err := core.NewCurve(pts)
	if err != nil {
		t.Fatal(err)
	}
	p, err := placement.NewProfile("odd", c)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// literalProfile is a profile built as a struct literal, without
// NewProfile's lookup table: its power comes from its curve.
func literalProfile(t *testing.T, rng *rand.Rand) *placement.Profile {
	t.Helper()
	src := randomProfile(t, rng)
	if rng.Intn(2) == 0 {
		src = oddGridProfile(t, rng)
	}
	return &placement.Profile{
		ID:                 "literal",
		Curve:              src.Curve,
		MaxOps:             src.MaxOps,
		OptimalUtilization: src.OptimalUtilization,
	}
}

// mixedGroups draws a grouped fleet mixing standard-grid, odd-grid and
// struct-literal profiles, some capped, with counts up to 9; a group
// sometimes reuses an earlier group's profile so engage order has runs
// to coalesce.
func mixedGroups(t *testing.T, rng *rand.Rand) []placement.Group {
	t.Helper()
	groups := make([]placement.Group, 1+rng.Intn(8))
	for i := range groups {
		var p *placement.Profile
		switch k := rng.Intn(10); {
		case i > 0 && k == 0:
			p = groups[rng.Intn(i)].P
		case k < 5:
			p = randomProfile(t, rng)
		case k < 8:
			p = oddGridProfile(t, rng)
		default:
			p = literalProfile(t, rng)
		}
		if rng.Intn(3) == 0 {
			p.UtilizationCap = []float64{0.2 + 0.8*rng.Float64(), 0.05, 1, 1.5}[rng.Intn(4)]
		}
		groups[i] = placement.Group{P: p, Count: 1 + rng.Intn(9)}
	}
	return groups
}

// exactDemands lists the probe demands for one fleet: non-positive,
// tiny, random, the engage-target capacity sum and its neighbours,
// random points in the top-up band, and beyond capacity.
func exactDemands(rng *rand.Rand, groups []placement.Group, capacity float64) []float64 {
	var engage, capped float64
	for _, g := range coalesceGroups(engageOrderGroups(groups)) {
		engage += float64(g.Count) * g.P.OpsAt(math.Min(g.P.OptimalUtilization, refMaxUtil(g.P)))
		capped += float64(g.Count) * g.P.CappedOps()
	}
	ds := []float64{-1, math.Copysign(0, -1), 0, 5e-324, 1e-300, capacity * 1e-12,
		engage, math.Nextafter(engage, 0), math.Nextafter(engage, math.Inf(1)),
		capped, capacity, capacity * 1.5, capacity * 1e6}
	for i := 0; i < 40; i++ {
		ds = append(ds, capacity*rng.Float64(), engage+(capped-engage)*rng.Float64())
	}
	return ds
}

// TestSpreadAndOptimalRegionExact pins the spread and optimal-region
// PowerAt bit for bit against the per-member reference loops, on grouped
// and expanded fleets.
func TestSpreadAndOptimalRegionExact(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 60; trial++ {
		groups := mixedGroups(t, rng)
		for _, policy := range []Policy{PolicySpread, PolicyOptimalRegion} {
			grouped, err := NewGroupedEvaluator(groups, policy)
			if err != nil {
				t.Fatal(err)
			}
			expanded, err := NewEvaluator(expand(groups), policy)
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range []*Evaluator{grouped, expanded} {
				for _, d := range exactDemands(rng, groups, ev.Capacity()) {
					got, want := powerAt(ev, d), refPowerAt(ev.Groups(), policy, d)
					if !same(got, want) {
						t.Fatalf("trial %d %v (%d groups): PowerAt(%v) = %v, reference %v",
							trial, policy, len(ev.Groups()), d, got, want)
					}
				}
			}
		}
	}
}
