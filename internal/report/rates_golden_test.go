package report

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/synth"
)

// The era-rate goldens pin every Theil–Sen consumer at full precision.
// The JSON summary prints each era slope and projection with
// strconv's shortest round-trip formatting, so a one-ulp change to a
// fitted slope changes its digest; the fleet is large enough
// (rateFleetServers) that every era fit estimates its slope median
// from sampled pairs rather than all pairs. If an intentional output
// change breaks these, regenerate the digests with a sha256 of the
// same calls.
const (
	summarySeed1Digest   = "130270bb6cf598a28c5dd43001e515b6dadeaa871337116dddd4dfaa653405b9"
	fleetSummaryDigest   = "1dd60859221edcae5731e048e673f0a2e6c5429767913222f7d7c6995211c987"
	fleetFigE4Digest     = "d4a892de2baf63c5dcca2f1287dffa54ace9ef1b7af65c5eaad7c12ba039b067"
	fleetFigE6Digest     = "66b1b2f020bbcda77e65cc45a3e0ba7d3a478ed9f0562f819f308937a2606469"
	rateFleetServers     = 20_000
	rateFleetSeed        = 1
	rateFleetMinEraCount = 2049 // theilSenExactLimit + 1 in internal/stats
)

func digest(s []byte) string { return fmt.Sprintf("%x", sha256.Sum256(s)) }

// TestJSONSummaryGolden pins MarshalJSONSummary over the seed-1 corpus.
func TestJSONSummaryGolden(t *testing.T) {
	rp, err := synth.NewRepository(synth.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalJSONSummary(rp)
	if err != nil {
		t.Fatal(err)
	}
	if got := digest(data); got != summarySeed1Digest {
		t.Errorf("seed-1 summary digest = %s, want %s (output drifted)", got, summarySeed1Digest)
	}
}

// TestFleetEraRatesGolden pins the summary, Fig. E4 and Fig. E6 over a
// fleet whose every era takes the sampled-pairs Theil–Sen branch.
func TestFleetEraRatesGolden(t *testing.T) {
	cs, err := synth.GenerateFleetStore(synth.FleetConfig{Seed: rateFleetSeed, Servers: rateFleetServers})
	if err != nil {
		t.Fatal(err)
	}
	rp := dataset.NewColumnRepository(cs)
	hw := rp.Columns().HWYearCol()
	for _, era := range [][2]int{{2007, 2012}, {2012, 2016}, {2013, 2016}} {
		n := 0
		for _, y := range hw {
			if int(y) >= era[0] && int(y) <= era[1] {
				n++
			}
		}
		if n < rateFleetMinEraCount {
			t.Fatalf("era %d-%d has %d servers; the fixture must sample pairs in every era", era[0], era[1], n)
		}
	}
	data, err := MarshalJSONSummary(rp)
	if err != nil {
		t.Fatal(err)
	}
	e4, err := FigE4ImprovementRates(rp)
	if err != nil {
		t.Fatal(err)
	}
	e6, err := FigE6Projection(rp)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, got, want string
	}{
		{"summary", digest(data), fleetSummaryDigest},
		{"Fig. E4", digest([]byte(e4)), fleetFigE4Digest},
		{"Fig. E6", digest([]byte(e6)), fleetFigE6Digest},
	} {
		if c.got != c.want {
			t.Errorf("%d-server fleet %s digest = %s, want %s (output drifted)", rateFleetServers, c.name, c.got, c.want)
		}
	}
}
