package placement

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
)

// The reference below is the per-group fill that wrote one GroupFill
// per group, and ProportionalFill's expansion of it, kept verbatim as
// the oracle ProportionalFill must match bit for bit.

type refGroupFill struct {
	Hi      int
	HiUtil  float64
	Mid     int
	MidUtil float64
	Lo      int
	LoUtil  float64
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

func refFillGroups(order []Group, demandOps float64, fill []refGroupFill) float64 {
	for i := range fill {
		fill[i] = refGroupFill{Lo: order[i].Count}
	}
	remaining := demandOps
	for i, g := range order {
		if remaining <= 0 {
			break
		}
		target := math.Min(g.P.OptimalUtilization, g.P.maxUtil())
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

func refProportionalFill(order []*Profile, demandOps float64, util []float64) float64 {
	groups := GroupRuns(order)
	fill := make([]refGroupFill, len(groups))
	remaining := refFillGroups(groups, demandOps, fill)
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

// fillProfile draws a profile for the fill oracle: on the standard grid,
// on a random non-standard grid, or as a struct literal without a
// lookup table; a third of them capped, some at or below their engage
// target so they have no top-up headroom.
func fillProfile(t *testing.T, rng *rand.Rand) *Profile {
	t.Helper()
	us := core.StandardUtilizations
	if rng.Intn(3) == 0 {
		us = []float64{0, 1}
		for k := rng.Intn(14); k > 0; k-- {
			us = append(us, 0.01+0.98*rng.Float64())
		}
		sort.Float64s(us)
	}
	maxOps := 1e5 + 1e6*rng.Float64()
	w := 30 + 200*rng.Float64()
	var pts []core.Point
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
	p, err := NewProfile("fill", c)
	if err != nil {
		t.Fatal(err)
	}
	if rng.Intn(4) == 0 {
		p = &Profile{ID: "literal", Curve: c, MaxOps: p.MaxOps, OptimalUtilization: p.OptimalUtilization}
	}
	if rng.Intn(3) == 0 {
		p.UtilizationCap = []float64{0.2 + 0.8*rng.Float64(), 0.05, 1, 1.5}[rng.Intn(4)]
	}
	return p
}

// TestProportionalFillExact pins ProportionalFill's per-member
// utilizations and remainder bit for bit against the reference, over
// engage-ordered fleets with runs of repeated profiles.
func TestProportionalFillExact(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 60; trial++ {
		var fleet []*Profile
		for m := 1 + rng.Intn(8); m > 0; m-- {
			p := fillProfile(t, rng)
			for c := 1 + rng.Intn(6); c > 0; c-- {
				fleet = append(fleet, p)
			}
		}
		order := EngageOrder(fleet)
		var capacity, engage, capped float64
		for _, g := range GroupRuns(order) {
			capacity += float64(g.Count) * g.P.MaxOps
			engage += float64(g.Count) * g.P.OpsAt(math.Min(g.P.OptimalUtilization, g.P.maxUtil()))
			capped += float64(g.Count) * g.P.CappedOps()
		}
		demands := []float64{-1, math.Copysign(0, -1), 0, 5e-324, capacity * 1e-12,
			engage, math.Nextafter(engage, 0), math.Nextafter(engage, math.Inf(1)),
			capped, capacity, capacity * 1.5}
		for i := 0; i < 40; i++ {
			demands = append(demands, capacity*rng.Float64(), engage+(capped-engage)*rng.Float64())
		}
		got := make([]float64, len(order))
		want := make([]float64, len(order))
		for _, d := range demands {
			for i := range got {
				got[i], want[i] = math.NaN(), math.NaN()
			}
			gr, wr := ProportionalFill(order, d, got), refProportionalFill(order, d, want)
			if math.Float64bits(gr) != math.Float64bits(wr) {
				t.Fatalf("trial %d demand %v: remaining %v, reference %v", trial, d, gr, wr)
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("trial %d demand %v: member %d at %v, reference %v", trial, d, i, got[i], want[i])
				}
			}
		}
	}
}
