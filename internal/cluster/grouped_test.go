package cluster

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/placement"
)

// randomGroups builds a heterogeneous multiset fleet: nModels distinct
// profiles with random counts in [1, maxCount], including zero-count
// groups that must be dropped.
func randomGroups(t *testing.T, rng *rand.Rand, nModels, maxCount int) []placement.Group {
	t.Helper()
	groups := make([]placement.Group, nModels)
	for i := range groups {
		groups[i] = placement.Group{P: randomProfile(t, rng), Count: 1 + rng.Intn(maxCount)}
	}
	return groups
}

// expand materializes the multiset as a member list.
func expand(groups []placement.Group) []*placement.Profile {
	var members []*placement.Profile
	for _, g := range groups {
		for j := 0; j < g.Count; j++ {
			members = append(members, g.P)
		}
	}
	return members
}

// TestGroupedEvaluatorOracle pins NewGroupedEvaluator Float64bits-
// identical to NewEvaluator over the expanded fleet, across all four
// policies on random heterogeneous model mixes: the contract the
// composition optimizer's candidate scores rest on. Both PowerAt and
// every pack-order accessor the fleet simulator steps on must agree
// bit-for-bit at every probed demand.
func TestGroupedEvaluatorOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 25; trial++ {
		groups := randomGroups(t, rng, 1+rng.Intn(7), 9)
		members := expand(groups)
		for _, policy := range AllPolicies() {
			grouped, err := NewGroupedEvaluator(groups, policy)
			if err != nil {
				t.Fatal(err)
			}
			expanded, err := NewEvaluator(members, policy)
			if err != nil {
				t.Fatal(err)
			}
			if grouped.Len() != expanded.Len() || grouped.Len() != len(members) {
				t.Fatalf("%v: Len %d vs %d", policy, grouped.Len(), expanded.Len())
			}
			if !same(grouped.Capacity(), expanded.Capacity()) {
				t.Fatalf("%v: capacity %v vs %v", policy, grouped.Capacity(), expanded.Capacity())
			}
			cap := grouped.Capacity()
			demands := []float64{-1, 0, cap * 1e-6, cap * 0.12, cap * 0.37, cap * 0.5,
				cap * 0.83, cap * 0.999, cap, cap * 1.5}
			for i := 0; i < 30; i++ {
				demands = append(demands, cap*rng.Float64())
			}
			for _, d := range demands {
				g, e := grouped.PowerAt(d), expanded.PowerAt(d)
				if !same(g, e) {
					t.Fatalf("%v: PowerAt(%v) grouped %v vs expanded %v", policy, d, g, e)
				}
				if grouped.MinServers(d) != expanded.MinServers(d) {
					t.Fatalf("%v: MinServers(%v) %d vs %d", policy, d,
						grouped.MinServers(d), expanded.MinServers(d))
				}
			}
			n := grouped.Len()
			for k := -1; k <= n+1; k++ {
				if !same(grouped.PrefixCapacity(k), expanded.PrefixCapacity(k)) {
					t.Fatalf("%v: PrefixCapacity(%d) mismatch", policy, k)
				}
				if !same(grouped.PrefixPeakWatts(k), expanded.PrefixPeakWatts(k)) {
					t.Fatalf("%v: PrefixPeakWatts(%d) mismatch", policy, k)
				}
				if !same(grouped.SuffixIdleWatts(k), expanded.SuffixIdleWatts(k)) {
					t.Fatalf("%v: SuffixIdleWatts(%d) mismatch", policy, k)
				}
			}
			if policy == PolicyPack || policy == PolicyPackPowerOff {
				for active := 0; active <= n; active++ {
					for _, d := range demands {
						g, e := grouped.ActivePower(d, active), expanded.ActivePower(d, active)
						if !same(g, e) {
							t.Fatalf("%v: ActivePower(%v, %d) %v vs %v", policy, d, active, g, e)
						}
					}
				}
				for i := 0; i < n; i++ {
					if grouped.Member(i) != expanded.Member(i) {
						t.Fatalf("%v: Member(%d) mismatch", policy, i)
					}
				}
			}
		}
	}
}

// same reports bitwise float equality.
func same(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestGroupedComposeMatchesExpanded runs the whole Compose pipeline —
// the aggregate curve and its EP — through both constructions.
func TestGroupedComposeMatchesExpanded(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	groups := randomGroups(t, rng, 4, 6)
	members := expand(groups)
	for _, policy := range AllPolicies() {
		want, err := Compose(members, policy)
		if err != nil {
			t.Fatal(err)
		}
		grouped, err := NewGroupedEvaluator(groups, policy)
		if err != nil {
			t.Fatal(err)
		}
		for i, u := range want.Utilizations {
			got := grouped.PowerAt(grouped.Capacity() * u)
			if !same(got, want.PowerWatts[i]) {
				t.Fatalf("%v: grid point %d: %v vs %v", policy, i, got, want.PowerWatts[i])
			}
		}
	}
}

// TestNewGroupedEvaluatorValidation covers the construction edges:
// zero-count groups drop, adjacent duplicates merge, and bad input is
// rejected.
func TestNewGroupedEvaluatorValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	p, q := randomProfile(t, rng), randomProfile(t, rng)
	ev, err := NewGroupedEvaluator([]placement.Group{
		{P: p, Count: 2}, {P: p, Count: 3}, {P: q, Count: 0}, {P: q, Count: 1},
	}, PolicyPack)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Len() != 6 {
		t.Fatalf("Len = %d, want 6", ev.Len())
	}
	if got := len(ev.Groups()); got != 2 {
		t.Fatalf("groups = %d, want 2 after merge", got)
	}
	if _, err := NewGroupedEvaluator(nil, PolicyPack); err == nil {
		t.Error("empty group list accepted")
	}
	if _, err := NewGroupedEvaluator([]placement.Group{{P: p, Count: 0}}, PolicyPack); err == nil {
		t.Error("zero-member fleet accepted")
	}
	if _, err := NewGroupedEvaluator([]placement.Group{{P: p, Count: -1}}, PolicyPack); err == nil {
		t.Error("negative count accepted")
	}
	if _, err := NewGroupedEvaluator([]placement.Group{{P: nil, Count: 1}}, PolicyPack); err == nil {
		t.Error("nil profile accepted")
	}
	if _, err := NewGroupedEvaluator([]placement.Group{{P: p, Count: 1}}, Policy(99)); err == nil {
		t.Error("unknown policy accepted")
	}
}

// TestNewGroupedEvaluatorAllocs holds construction on a 5-group fleet
// to its allocation budget: the optimizer builds one evaluator per
// scored candidate.
func TestNewGroupedEvaluatorAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	groups := randomGroups(t, rng, 5, 9)
	for policy, budget := range map[Policy]float64{
		PolicySpread: 4, PolicyPack: 4, PolicyPackPowerOff: 4, PolicyOptimalRegion: 5,
	} {
		got := testing.AllocsPerRun(100, func() {
			if _, err := NewGroupedEvaluator(groups, policy); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%v: %v allocs", policy, got)
		if got > budget {
			t.Errorf("%v: NewGroupedEvaluator allocates %v objects, budget %v", policy, got, budget)
		}
	}
}
