package cluster

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/placement"
)

// randomFleetProfiles builds a heterogeneous fleet from the shared
// randomProfile generator.
func randomFleetProfiles(t *testing.T, rng *rand.Rand, n int) []*placement.Profile {
	t.Helper()
	fleet := make([]*placement.Profile, n)
	for i := range fleet {
		fleet[i] = randomProfile(t, rng)
	}
	return fleet
}

// powerAt is the fleet's draw at demand d, the value the exact oracles
// compare.
func powerAt(ev *Evaluator, d float64) float64 { return ev.PowerAt(d) }

// TestEvaluatorAccessors exercises the exported prefix-sum/active-set
// API the fleet simulator steps on: clamping, saturation, and agreement
// with brute-force sums over the members.
func TestEvaluatorAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	fleet := randomFleetProfiles(t, rng, 9)
	ev, err := NewEvaluator(fleet, PolicyPack)
	if err != nil {
		t.Fatal(err)
	}
	n := ev.Len()
	if n != 9 {
		t.Fatalf("Len %d", n)
	}

	// MinServers: zero and negative demand engage nobody; over-capacity
	// saturates at the fleet, never panics.
	if k := ev.MinServers(0); k != 0 {
		t.Fatalf("MinServers(0) = %d", k)
	}
	if k := ev.MinServers(-5); k != 0 {
		t.Fatalf("MinServers(-5) = %d", k)
	}
	if k := ev.MinServers(ev.Capacity() * 3); k != n {
		t.Fatalf("MinServers(3×cap) = %d, want %d", k, n)
	}
	// Exactly the first member's capacity needs exactly one member.
	if k := ev.MinServers(fleet[0].MaxOps); k != 1 {
		t.Fatalf("MinServers(member0 cap) = %d", k)
	}

	// Prefix sums agree with brute force within float tolerance, and
	// clamp at both ends.
	var capSum, peakSum float64
	for k := 0; k <= n; k++ {
		if got := ev.PrefixCapacity(k); math.Abs(got-capSum) > 1e-9*math.Max(1, capSum) {
			t.Fatalf("PrefixCapacity(%d) = %v, want %v", k, got, capSum)
		}
		if got := ev.PrefixPeakWatts(k); math.Abs(got-peakSum) > 1e-9*math.Max(1, peakSum) {
			t.Fatalf("PrefixPeakWatts(%d) = %v, want %v", k, got, peakSum)
		}
		var idleSum float64
		for i := k; i < n; i++ {
			idleSum += fleet[i].PowerAt(0)
		}
		if got := ev.SuffixIdleWatts(k); math.Abs(got-idleSum) > 1e-9*math.Max(1, idleSum) {
			t.Fatalf("SuffixIdleWatts(%d) = %v, want %v", k, got, idleSum)
		}
		if k < n {
			capSum += fleet[k].MaxOps
			peakSum += fleet[k].PowerAt(1)
		}
	}
	if ev.PrefixCapacity(n+5) != ev.PrefixCapacity(n) || ev.PrefixCapacity(-1) != 0 {
		t.Fatal("PrefixCapacity does not clamp")
	}
	if ev.SuffixIdleWatts(-1) != ev.SuffixIdleWatts(0) || ev.SuffixIdleWatts(n+5) != 0 {
		t.Fatal("SuffixIdleWatts does not clamp")
	}

	// ActivePower: zero active draws nothing; zero demand draws the
	// active set's idle power; saturated active set draws its full-load
	// power bit-for-bit (the deterministic-saturation contract).
	if got := ev.ActivePower(100, 0); got != 0 {
		t.Fatalf("ActivePower(d, 0) = %v", got)
	}
	for active := 1; active <= n; active++ {
		idle := ev.SuffixIdleWatts(0) - ev.SuffixIdleWatts(active)
		if got := ev.ActivePower(0, active); got != idle {
			t.Fatalf("ActivePower(0, %d) = %v, want %v", active, got, idle)
		}
		over := ev.PrefixCapacity(active) * 2
		if got := ev.ActivePower(over, active); math.Float64bits(got) != math.Float64bits(ev.PrefixPeakWatts(active)) {
			t.Fatalf("ActivePower(2×cap, %d) = %v, want %v", active, got, ev.PrefixPeakWatts(active))
		}
		// Brute force: members[:j] full, marginal takes the remainder,
		// the rest of the active set idles.
		d := ev.PrefixCapacity(active) * (0.2 + 0.6*rng.Float64())
		var want, covered float64
		remaining := d
		for i := 0; i < active; i++ {
			take := math.Min(fleet[i].MaxOps, remaining)
			remaining -= take
			want += fleet[i].PowerAt(take / fleet[i].MaxOps)
			covered += take
		}
		got := ev.ActivePower(d, active)
		if math.Abs(got-want) > 1e-9*math.Max(1, want) {
			t.Fatalf("ActivePower(%v, %d) = %v, want %v", d, active, got, want)
		}
	}
	if got := ev.ActivePower(ev.Capacity(), n+7); math.Float64bits(got) != math.Float64bits(ev.ActivePower(ev.Capacity(), n)) {
		t.Fatal("ActivePower does not clamp active")
	}
}

// TestPowerAtSaturatesDeterministically pins the over-capacity edge
// for every policy: any demand at or beyond fleet capacity draws the
// same full-load power, bit-for-bit, with no panic.
func TestPowerAtSaturatesDeterministically(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	fleet := randomFleetProfiles(t, rng, 7)
	for _, policy := range AllPolicies() {
		ev, err := NewEvaluator(fleet, policy)
		if err != nil {
			t.Fatal(err)
		}
		base := ev.PowerAt(ev.Capacity() * 1.001)
		for _, mult := range []float64{1.01, 2.5, 1e6} {
			got := ev.PowerAt(ev.Capacity() * mult)
			if math.Float64bits(got) != math.Float64bits(base) {
				t.Fatalf("%v: PowerAt(%v×cap) = %v != %v", policy, mult, got, base)
			}
		}
		// Zero and negative demand: defined, non-negative, no panic.
		for _, d := range []float64{0, -10} {
			got := ev.PowerAt(d)
			if math.IsNaN(got) || got < 0 {
				t.Fatalf("%v: PowerAt(%v) = %v", policy, d, got)
			}
		}
	}
}

// TestNewEvaluatorRejects covers construction failure paths.
func TestNewEvaluatorRejects(t *testing.T) {
	if _, err := NewEvaluator(nil, PolicyPack); err == nil {
		t.Error("empty fleet accepted")
	}
	rng := rand.New(rand.NewSource(37))
	fleet := randomFleetProfiles(t, rng, 2)
	if _, err := NewEvaluator(fleet, Policy(99)); err == nil {
		t.Error("unknown policy accepted")
	}
}

// MinServers and the prefix accessors degrade gracefully for policies
// without a pack order: any positive demand engages the whole fleet.
func TestAccessorsWithoutPackOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	fleet := randomFleetProfiles(t, rng, 4)
	for _, policy := range []Policy{PolicySpread, PolicyOptimalRegion} {
		ev, err := NewEvaluator(fleet, policy)
		if err != nil {
			t.Fatal(err)
		}
		if k := ev.MinServers(1); k != 4 {
			t.Fatalf("%v: MinServers(1) = %d", policy, k)
		}
		if k := ev.MinServers(0); k != 0 {
			t.Fatalf("%v: MinServers(0) = %d", policy, k)
		}
		if got := ev.PrefixCapacity(2); got != ev.Capacity() {
			t.Fatalf("%v: PrefixCapacity = %v", policy, got)
		}
		if got := ev.PrefixPeakWatts(2); got != 0 {
			t.Fatalf("%v: PrefixPeakWatts = %v", policy, got)
		}
		if got := ev.SuffixIdleWatts(2); got != 0 {
			t.Fatalf("%v: SuffixIdleWatts = %v", policy, got)
		}
	}
}
