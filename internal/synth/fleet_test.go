package synth

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/par"
)

// fleetCSV canonicalizes a fleet to CSV bytes for exact comparison.
func fleetCSV(t *testing.T, rs []*dataset.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, rs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Sizes outside [1, maxFleetServers] fail before any shard is
// generated, whichever entry point is asked; math.MaxInt used to
// overflow the shard count.
func TestGenerateFleetRejectsInvalidSize(t *testing.T) {
	for _, n := range []int{0, -5, maxFleetServers + 1, math.MaxInt} {
		cfg := FleetConfig{Seed: 1, Servers: n}
		if _, err := GenerateFleet(cfg); err == nil {
			t.Errorf("fleet size %d accepted", n)
		}
		if _, err := GenerateFleetStore(cfg); err == nil {
			t.Errorf("fleet store size %d accepted", n)
		}
		err := GenerateFleetShards(cfg, func(int, *dataset.ColumnStore) error {
			t.Fatalf("fleet size %d delivered a shard", n)
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), strconv.Itoa(maxFleetServers)) {
			t.Errorf("fleet size %d: error %v does not name the limit", n, err)
		}
	}
}

func TestGenerateFleetDeterministicAndSeedSensitive(t *testing.T) {
	a, err := GenerateFleet(FleetConfig{Seed: 5, Servers: 300})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateFleet(FleetConfig{Seed: 5, Servers: 300})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fleetCSV(t, a), fleetCSV(t, b)) {
		t.Error("same seed produced different fleets")
	}
	c, err := GenerateFleet(FleetConfig{Seed: 6, Servers: 300})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(fleetCSV(t, a), fleetCSV(t, c)) {
		t.Error("different seeds produced identical fleets")
	}
}

// TestGenerateFleetPrefixStability pins the shard contract: a smaller
// fleet is a strict prefix of a larger one at the same seed. The sizes
// straddle the 1024-server shard boundary so both the full-shard and
// partial-shard cases are covered.
func TestGenerateFleetPrefixStability(t *testing.T) {
	small, err := GenerateFleet(FleetConfig{Seed: 2, Servers: 1100})
	if err != nil {
		t.Fatal(err)
	}
	large, err := GenerateFleet(FleetConfig{Seed: 2, Servers: 2600})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fleetCSV(t, small), fleetCSV(t, large[:len(small)])) {
		t.Error("smaller fleet is not a prefix of the larger one")
	}
}

// TestGenerateFleetWorkerInvariance verifies the sharded generator is
// byte-identical at worker counts 1, 2 and 8.
func TestGenerateFleetWorkerInvariance(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)

	runAt := func(workers int) []byte {
		prevCap := par.SetMaxWorkers(workers)
		defer par.SetMaxWorkers(prevCap)
		rs, err := GenerateFleet(FleetConfig{Seed: 3, Servers: 3000})
		if err != nil {
			t.Fatal(err)
		}
		return fleetCSV(t, rs)
	}
	base := runAt(1)
	for _, workers := range []int{2, 8} {
		if !bytes.Equal(base, runAt(workers)) {
			t.Errorf("fleet differs at %d workers", workers)
		}
	}
}

func TestGenerateFleetShape(t *testing.T) {
	rs, err := GenerateFleet(FleetConfig{Seed: 1, Servers: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2000 {
		t.Fatalf("got %d servers, want 2000", len(rs))
	}
	seen := make(map[string]bool, len(rs))
	years := make(map[int]int)
	for i, r := range rs {
		if seen[r.ID] {
			t.Fatalf("duplicate ID %s", r.ID)
		}
		seen[r.ID] = true
		if _, err := r.Curve(); err != nil {
			t.Fatalf("server %d has invalid curve: %v", i, err)
		}
		if !dataset.IsCompliant(r) {
			t.Fatalf("server %d (%s) is non-compliant: %v", i, r.ID, dataset.Validate(r))
		}
		years[r.HWAvailYear]++
	}
	if rs[0].ID != "fleet-0000000" {
		t.Errorf("first ID %q", rs[0].ID)
	}
	// The fleet keeps the corpus year mix: 2012 holds ~27% of servers.
	if frac := float64(years[2012]) / float64(len(rs)); frac < 0.18 || frac > 0.38 {
		t.Errorf("2012 share %.2f, want ≈ 0.27", frac)
	}
}

// TestGenerateFleetStoreMatchesGenerateFleet pins the columnar
// generator to the result generator: same seed, same servers, same
// bytes — the store's lazy views materialize to the identical fleet.
func TestGenerateFleetStoreMatchesGenerateFleet(t *testing.T) {
	cfg := FleetConfig{Seed: 7, Servers: 2500}
	want, err := GenerateFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := GenerateFleetStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Len() != cfg.Servers {
		t.Fatalf("store has %d rows, want %d", cs.Len(), cfg.Servers)
	}
	if !bytes.Equal(fleetCSV(t, cs.Materialize()), fleetCSV(t, want)) {
		t.Error("GenerateFleetStore differs from GenerateFleet")
	}
	if _, err := GenerateFleetStore(FleetConfig{Seed: 1, Servers: 0}); err == nil {
		t.Error("fleet store size 0 accepted")
	}
}

// TestGenerateFleetShardsStreams checks the streaming generator
// delivers every shard exactly once, in order, and that the shard
// concatenation equals the one-shot store.
func TestGenerateFleetShardsStreams(t *testing.T) {
	cfg := FleetConfig{Seed: 7, Servers: 2500}
	want, err := GenerateFleetStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var stores []*dataset.ColumnStore
	next := 0
	err = GenerateFleetShards(cfg, func(shard int, cs *dataset.ColumnStore) error {
		if shard != next {
			t.Fatalf("shard %d delivered, want %d", shard, next)
		}
		next++
		stores = append(stores, cs)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, cs := range stores {
		total += cs.Len()
	}
	if total != cfg.Servers {
		t.Fatalf("shards deliver %d rows, want %d", total, cfg.Servers)
	}
	got := dataset.ConcatColumns(stores)
	if !bytes.Equal(fleetCSV(t, got.Materialize()), fleetCSV(t, want.Materialize())) {
		t.Error("streamed shards differ from GenerateFleetStore")
	}
	if _, last := stores[0], stores[len(stores)-1]; stores[0].Len() != 1024 || last.Len() != cfg.Servers%1024 {
		t.Errorf("shard sizes %d/%d, want 1024/%d", stores[0].Len(), last.Len(), cfg.Servers%1024)
	}
}

// fleetCSVDigest is the sha256 of the seed-2, 2,600-server fleet as
// CSV: three shards, the last one partial. specgen's fleet digests pin
// the same fleet in every output format.
const fleetCSVDigest = "f0ff610a3444890b4230e3acd3e009e9a399052e55ad9af558dbb6d93fb59818"

// TestFleetCSVDigest pins both the row and the column entry points to
// fixed bytes, so they are checked against a recorded fleet rather
// than only against each other.
func TestFleetCSVDigest(t *testing.T) {
	cfg := FleetConfig{Seed: 2, Servers: 2600}
	rs, err := GenerateFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := GenerateFleetStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, fleet := range map[string][]*dataset.Result{
		"GenerateFleet":      rs,
		"GenerateFleetStore": cs.Materialize(),
	} {
		sum := sha256.Sum256(fleetCSV(t, fleet))
		if got := hex.EncodeToString(sum[:]); got != fleetCSVDigest {
			t.Errorf("%s CSV digest %s, want %s", name, got, fleetCSVDigest)
		}
	}
}

// TestFleetSpotSharesTrackPlan checks the fleet's Fig. 16 fidelity: at
// seed 1 × 100k, every year's realized peak-efficiency spot shares, as
// each server's curve reports them, lie within 3 percentage points of
// peakSpotPlan (years without a row peak at 100%). A spot chosen
// without regard to EP drifts off the plan: the solver cannot give a
// low spot to a low-EP server, nor 100% to a near-ideal one, and falls
// back to the nearest spot it reaches. sampleFleetSpot walks each row
// from its first entry, so the rows must list their spots in
// descending order.
func TestFleetSpotSharesTrackPlan(t *testing.T) {
	for year, plan := range peakSpotPlan {
		for i := 1; i < len(plan); i++ {
			if !(plan[i].spot < plan[i-1].spot) {
				t.Errorf("peakSpotPlan[%d] lists spot %.1f after %.1f, want descending", year, plan[i].spot, plan[i-1].spot)
			}
		}
	}

	const tolerance = 0.03
	rs, err := GenerateFleet(FleetConfig{Seed: 1, Servers: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int]map[float64]int)
	totals := make(map[int]int)
	for _, r := range rs {
		c, err := r.Curve()
		if err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
		spot := math.Round(c.PeakEEUtilization()*10) / 10
		if counts[r.HWAvailYear] == nil {
			counts[r.HWAvailYear] = make(map[float64]int)
		}
		counts[r.HWAvailYear][spot]++
		totals[r.HWAvailYear]++
	}
	for _, year := range fleetYears {
		n := totals[year]
		want := map[float64]float64{1.0: 1}
		if plan, ok := peakSpotPlan[year]; ok {
			want = make(map[float64]float64)
			var total float64
			for _, sw := range plan {
				total += sw.weight
			}
			for _, sw := range plan {
				want[sw.spot] = sw.weight / total
			}
		}
		for tenth := 10; tenth >= 1; tenth-- {
			spot := float64(tenth) / 10
			got := float64(counts[year][spot]) / float64(n)
			if math.Abs(got-want[spot]) > tolerance {
				t.Errorf("%d: %.1f%% of %d servers peak at %.0f%%, plan %.1f%%", year, 100*got, n, 100*spot, 100*want[spot])
			}
		}
	}
}
