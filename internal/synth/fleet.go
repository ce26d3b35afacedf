package synth

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"repro/internal/dataset"
	"repro/internal/par"
)

// FleetConfig controls fleet-scale corpus generation: Servers results
// sampled from the same calibrated plan tables as the default corpus
// (year mix, populations, memory ratios, EP/EE statistics, Fig. 16
// peak-spot shares), without the default corpus's exact per-year count
// pinning — fleets trade the paper's census invariants for open-ended
// scale. As in the corpus, a year's lowest peak spots go to its most
// proportional servers, but server by server: each takes the spot at
// the quantile of its own EP draw, so no shard ranks its servers.
type FleetConfig struct {
	// Seed drives all sampling.
	Seed int64
	// Servers is the fleet size.
	Servers int
}

// The shard grid is the determinism contract of every fleet entry
// point: server i belongs to shard i/fleetShardSize, and shard s draws
// every sample from its own stream seeded Seed + (s+1)·fleetShardSeedStep.
// Shard geometry never depends on the worker count, so the output is
// invariant under par.SetMaxWorkers, and a shard stops drawing after
// its last requested server, so a fleet of N servers is a strict
// prefix of a fleet of M > N servers at the same seed.
const (
	fleetShardSize     = 1024
	fleetShardSeedStep = 1_000_003
)

// maxFleetServers is the largest fleet the generator accepts: a
// ColumnStore addresses its flattened levels with int32 offsets, and
// every fleet server carries 10 levels.
const maxFleetServers = math.MaxInt32 / 10

// fleetYears and fleetYearCum turn the yearPlan census into cumulative
// sampling weights, so fleets keep the corpus year mix at any size.
var (
	fleetYears   = sortedYears()
	fleetYearCum = func() []int {
		cum := make([]int, len(fleetYears))
		total := 0
		for i, y := range fleetYears {
			total += yearPlan[y]
			cum[i] = total
		}
		return cum
	}()
)

// GenerateFleet produces a fleet of Servers synthetic results with IDs
// fleet-0000000..: row views over the shards GenerateFleetShards
// delivers, so it is byte-identical to GenerateFleetStore.
func GenerateFleet(cfg FleetConfig) ([]*dataset.Result, error) {
	var out []*dataset.Result
	err := GenerateFleetShards(cfg, func(shard int, cs *dataset.ColumnStore) error {
		if shard == 0 {
			out = make([]*dataset.Result, 0, cfg.Servers)
		}
		out = append(out, cs.Materialize()...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// GenerateFleetStore produces the fleet as one column store: the
// shards GenerateFleetShards delivers, joined end to end. Derived
// metric columns build lazily on first analysis access.
func GenerateFleetStore(cfg FleetConfig) (*dataset.ColumnStore, error) {
	var stores []*dataset.ColumnStore
	err := GenerateFleetShards(cfg, func(_ int, cs *dataset.ColumnStore) error {
		stores = append(stores, cs)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return dataset.ConcatColumns(stores), nil
}

// GenerateFleetShards generates the fleet and hands each shard's
// column store to fn in shard order, then drops it. It is the only
// fleet generator loop: GenerateFleet and GenerateFleetStore collect
// what it delivers, and specgen streams million-server corpora to disk
// through it in bounded memory. Shards generate in parallel through
// par.Stream, at most four per worker in flight, so the window depends
// on the worker count, not the fleet size. fn runs on the caller's
// goroutine, one shard at a time, while later shards keep generating;
// an error from fn or the generator aborts the stream.
func GenerateFleetShards(cfg FleetConfig, fn func(shard int, cs *dataset.ColumnStore) error) error {
	if cfg.Servers <= 0 || cfg.Servers > maxFleetServers {
		return fmt.Errorf("synth: fleet size %d outside [1, %d]", cfg.Servers, maxFleetServers)
	}
	shards := (cfg.Servers-1)/fleetShardSize + 1
	return par.Stream(shards, 4*par.Workers(shards), func(s int) (*dataset.ColumnStore, error) {
		return generateShard(cfg, s)
	}, fn)
}

// generateShard samples shard s into a column store. Every server is
// drawn into one row that is reused across the shard and copied into
// the columns by Append; nothing reads the row's metrics, so its memo
// stays empty and overwriting it is safe.
func generateShard(cfg FleetConfig, s int) (*dataset.ColumnStore, error) {
	base := s * fleetShardSize
	count := min(cfg.Servers-base, fleetShardSize)
	g := &generator{rng: rand.New(rand.NewSource(cfg.Seed + int64(s+1)*fleetShardSeedStep))}
	b := dataset.NewColumnBuilder(count, count*len(levelGrid))
	var r dataset.Result
	var id []byte
	for i := 0; i < count; i++ {
		// The ID is "fleet-%07d" of the server's index.
		n := base + i
		id = append(id[:0], "fleet-"...)
		for p := 1000000; p > 1 && n < p; p /= 10 {
			id = append(id, '0')
		}
		id = strconv.AppendInt(id, int64(n), 10)
		if err := g.fleetResult(&r, string(id)); err != nil {
			return nil, err
		}
		b.Append(&r)
	}
	return b.Store(), nil
}

// fleetResult samples one server into r, with ID id: blueprint from the
// plan tables, then the standard draw/materialize pipeline. It draws
// once: for sampleEP's targets in [0.19, 0.99] solveCurve returns only
// monotone curves, as TestSolveCurveMatchesReference checks.
func (g *generator) fleetResult(r *dataset.Result, id string) error {
	bp := &blueprint{}
	bp.year = g.sampleFleetYear()
	bp.nodes, bp.chips = g.sampleFleetPopulation()
	bp.mpc = g.sampleFleetMPC()
	bp.code = g.sampleCodename(bp.year)
	bp.coresPerChip = g.sampleCores(bp.code)
	bp.epTarget = g.sampleEP(epYearStats[bp.year], bp)
	bp.spot = sampleFleetSpot(bp.year, bp.epQuantile)
	d, err := g.drawResult(bp)
	if err != nil {
		return err
	}
	materializeResult(bp, d, id, r)
	if r.HWAvailYear < 2007 {
		// The benchmark launched in 2007; older hardware is
		// necessarily published later.
		r.PublishedYear = 2007 + g.rng.Intn(5)
	}
	return nil
}

func (g *generator) sampleFleetYear() int {
	x := g.rng.Intn(fleetYearCum[len(fleetYearCum)-1])
	for i, cum := range fleetYearCum {
		if x < cum {
			return fleetYears[i]
		}
	}
	return fleetYears[len(fleetYears)-1]
}

// sampleFleetPopulation draws nodes and total chips with the corpus
// single/multi-node split (403/74) and the per-class chip plans.
func (g *generator) sampleFleetPopulation() (nodes, chips int) {
	if g.rng.Intn(ValidCount) < 403 {
		x := g.rng.Intn(403)
		for _, row := range singleNodeChipPlan {
			if x < row.Count {
				return 1, row.Chips
			}
			x -= row.Count
		}
		return 1, 2
	}
	total := 0
	for _, row := range nodePlan {
		total += row.Count
	}
	x := g.rng.Intn(total)
	for _, row := range nodePlan {
		if x < row.Count {
			chipsPerNode := 1
			if g.rng.Float64() < 0.6 {
				chipsPerNode = 2
			}
			return row.Nodes, row.Nodes * chipsPerNode
		}
		x -= row.Count
	}
	return 2, 4
}

// sampleFleetMPC draws memory-per-core with the Table I histogram:
// 430/477 on the tabulated ratios, the rest over the off-table values.
func (g *generator) sampleFleetMPC() float64 {
	if g.rng.Intn(ValidCount) < 430 {
		total := 0
		for _, b := range mpcBuckets {
			total += b.Count
		}
		x := g.rng.Intn(total)
		for _, b := range mpcBuckets {
			if x < b.Count {
				return b.GBPerCore
			}
			x -= b.Count
		}
	}
	return otherMPCValues[g.rng.Intn(len(otherMPCValues))]
}

// sampleFleetSpot picks the peak-efficiency utilization from the
// year's Fig. 16 share table at q, the quantile of the server's EP
// draw. The table rows run from 1.0 down, so a year's most
// proportional servers take its lowest spots: the per-server form of
// assignSpots' rank rule, which costs no draw of its own and keeps
// solveCurve away from (EP, spot) pairs no cubic reaches. Years before
// the table peak at 100%.
func sampleFleetSpot(year int, q float64) float64 {
	plan, ok := peakSpotPlan[year]
	if !ok {
		return 1.0
	}
	var total float64
	for _, sw := range plan {
		total += sw.weight
	}
	x := q * total
	for _, sw := range plan {
		x -= sw.weight
		if x <= 0 {
			return sw.spot
		}
	}
	return plan[len(plan)-1].spot
}
