package cluster

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/placement"
)

// eachOrders arranges demands the ways a caller may pass them:
// ascending, descending, shuffled, and in trace-fold order, where
// demands ascend by bin (a 24th of capacity) but not inside one.
func eachOrders(rng *rand.Rand, demands []float64, capacity float64) map[string][]float64 {
	asc := slices.Clone(demands)
	slices.Sort(asc)
	desc := slices.Clone(asc)
	slices.Reverse(desc)
	shuffled := slices.Clone(demands)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	bin := func(d float64) int {
		if !(d > 0) {
			return -1 // NaN and non-positive demands first
		}
		return int(min(d/capacity, 2) * 24)
	}
	fold := slices.Clone(shuffled)
	slices.SortStableFunc(fold, func(a, b float64) int { return cmp.Compare(bin(a), bin(b)) })
	return map[string][]float64{"ascending": asc, "descending": desc, "shuffled": shuffled, "fold": fold}
}

// memberBounds lists the capacity at the end of every member in pack
// order, where one member's share ends and the next one's begins, and
// each bound's neighbours; under spread and optimal-region they are
// whole-fleet capacity.
func memberBounds(ev *Evaluator) []float64 {
	var ds []float64
	for k := 1; k <= ev.Len(); k++ {
		b := ev.PrefixCapacity(k)
		ds = append(ds, b, math.Nextafter(b, 0), math.Nextafter(b, math.Inf(1)))
	}
	return ds
}

// checkEach compares PowerAtEach with PowerAt demand by demand.
func checkEach(t *testing.T, ev *Evaluator, order string, demands []float64) {
	t.Helper()
	got := make([]float64, len(demands)+1)
	got[len(demands)] = -7 // PowerAtEach must not write past len(demands)
	ev.PowerAtEach(got, demands)
	for i, d := range demands {
		if want := ev.PowerAt(d); !same(got[i], want) {
			t.Fatalf("%v, %s demands: PowerAtEach[%d] at %v = %v, PowerAt %v",
				ev.Policy(), order, i, d, got[i], want)
		}
	}
	if got[len(demands)] != -7 {
		t.Fatalf("%v: PowerAtEach wrote past the demands", ev.Policy())
	}
}

// TestPowerAtEachOracle pins the batched evaluation to PowerAt bit for
// bit on random grouped fleets — standard-grid, odd-grid and
// struct-literal profiles, some capped — under all four policies, with
// demands in every order and including values at or below zero,
// beyond capacity and NaN. One evaluator is Reset from fleet to fleet
// and must agree with a fresh one.
func TestPowerAtEachOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	var reused Evaluator
	for trial := 0; trial < 60; trial++ {
		groups := mixedGroups(t, rng)
		for _, policy := range AllPolicies() {
			fresh, err := NewGroupedEvaluator(groups, policy)
			if err != nil {
				t.Fatal(err)
			}
			if err := reused.Reset(groups, policy); err != nil {
				t.Fatal(err)
			}
			capacity := fresh.Capacity()
			demands := append(exactDemands(rng, groups, capacity), math.NaN(), math.Inf(1), math.Inf(-1))
			demands = append(demands, memberBounds(fresh)...)
			for _, ev := range []*Evaluator{fresh, &reused} {
				for order, ds := range eachOrders(rng, demands, capacity) {
					checkEach(t, ev, order, ds)
				}
			}
			for _, d := range demands {
				if !same(fresh.PowerAt(d), reused.PowerAt(d)) {
					t.Fatalf("trial %d %v: Reset evaluator PowerAt(%v) = %v, fresh %v",
						trial, policy, d, reused.PowerAt(d), fresh.PowerAt(d))
				}
			}
			if fresh.Len() != reused.Len() || !same(fresh.Capacity(), reused.Capacity()) ||
				!slices.Equal(fresh.Groups(), reused.Groups()) {
				t.Fatalf("trial %d %v: Reset evaluator shape differs from a fresh one", trial, policy)
			}
			for k := -1; k <= fresh.Len()+1; k++ {
				if !same(fresh.PrefixCapacity(k), reused.PrefixCapacity(k)) ||
					!same(fresh.PrefixPeakWatts(k), reused.PrefixPeakWatts(k)) ||
					!same(fresh.SuffixIdleWatts(k), reused.SuffixIdleWatts(k)) {
					t.Fatalf("trial %d %v: Reset evaluator prefix state differs at %d", trial, policy, k)
				}
			}
		}
	}
}

// FuzzPowerAtEach compares PowerAtEach with PowerAt on a fleet drawn
// from the seed, under the policy, over fuzzed demands scaled to the
// fleet's capacity and placed in the fuzzed order.
func FuzzPowerAtEach(f *testing.F) {
	f.Add(int64(1), uint8(0), 0.5, 0.25, 1.5, -1.0, uint8(0))
	f.Add(int64(2), uint8(3), 0.0, 1.0, 0.999, math.NaN(), uint8(3))
	f.Add(int64(3), uint8(1), 1e-300, 0.7, 0.71, 2.0, uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, policy uint8, a, b, c, d float64, order uint8) {
		rng := rand.New(rand.NewSource(seed))
		groups := mixedGroups(t, rng)
		ev, err := NewGroupedEvaluator(groups, AllPolicies()[int(policy)%4])
		if err != nil {
			t.Fatal(err)
		}
		capacity := ev.Capacity()
		demands := []float64{a, b, c, d}
		for _, x := range []float64{a, b, c, d} {
			demands = append(demands, capacity*x)
		}
		demands = append(demands, ev.PrefixCapacity(1+int(order)%ev.Len()))
		orders := eachOrders(rng, demands, capacity)
		name := [...]string{"ascending", "descending", "shuffled", "fold"}[int(order)%4]
		checkEach(t, ev, name, orders[name])
	})
}

// TestResetAllocs holds an evaluator Reset whose buffers already fit
// the new fleet to zero allocations, for every policy: the optimizer
// Resets one evaluator per scored candidate.
func TestResetAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	big, small := randomGroups(t, rng, 6, 9), randomGroups(t, rng, 4, 9)
	for _, policy := range AllPolicies() {
		ev, err := NewGroupedEvaluator(big, policy)
		if err != nil {
			t.Fatal(err)
		}
		fleets := [][]placement.Group{small, big}
		i := 0
		got := testing.AllocsPerRun(100, func() {
			i++
			if err := ev.Reset(fleets[i%2], policy); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Errorf("%v: Reset allocates %v objects", policy, got)
		}
	}
	// Changing policy reuses the same buffers.
	ev, err := NewGroupedEvaluator(big, PolicyOptimalRegion)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range AllPolicies() {
		if err := ev.Reset(big, policy); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	got := testing.AllocsPerRun(100, func() {
		i++
		if err := ev.Reset(small, AllPolicies()[i%4]); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("Reset across policies allocates %v objects", got)
	}
}
