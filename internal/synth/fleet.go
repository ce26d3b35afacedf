package synth

import (
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/par"
)

// FleetConfig controls fleet-scale corpus generation: Servers results
// sampled from the same calibrated plan tables as the default corpus
// (year mix, populations, memory ratios, EP/EE statistics), without the
// default corpus's exact per-year count pinning — fleets trade the
// paper's census invariants for open-ended scale.
type FleetConfig struct {
	// Seed drives all sampling.
	Seed int64
	// Servers is the fleet size.
	Servers int
}

// The shard grid is the determinism contract of GenerateFleet: server
// i belongs to shard i/fleetShardSize, and shard s draws every sample
// from its own stream seeded Seed + (s+1)·fleetShardSeedStep. Shard
// geometry never depends on the worker count, so the output is
// invariant under par.SetMaxWorkers, and a shard stops drawing after
// its last requested server, so GenerateFleet(N) is a strict prefix of
// GenerateFleet(M) for N < M at the same seed.
const (
	fleetShardSize     = 1024
	fleetShardSeedStep = 1_000_003
)

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
// fleet-0000000..; shards materialize in parallel across CPUs.
func GenerateFleet(cfg FleetConfig) ([]*dataset.Result, error) {
	if cfg.Servers <= 0 {
		return nil, fmt.Errorf("synth: fleet size %d must be positive", cfg.Servers)
	}
	out := make([]*dataset.Result, cfg.Servers)
	shards := (cfg.Servers + fleetShardSize - 1) / fleetShardSize
	err := par.ForEachErr(shards, func(s int) error {
		base := s * fleetShardSize
		count := cfg.Servers - base
		if count > fleetShardSize {
			count = fleetShardSize
		}
		g := &generator{rng: rand.New(rand.NewSource(cfg.Seed + int64(s+1)*fleetShardSeedStep))}
		for i := 0; i < count; i++ {
			r, err := g.fleetResult()
			if err != nil {
				return err
			}
			r.ID = fmt.Sprintf("fleet-%07d", base+i)
			out[base+i] = r
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// generateShardStore materializes shard s straight into a column
// store: each sampled result is appended to the shard's builder and
// then dropped, so the per-shard footprint is one builder plus one
// transient Result.
func generateShardStore(cfg FleetConfig, s int) (*dataset.ColumnStore, error) {
	base := s * fleetShardSize
	count := cfg.Servers - base
	if count > fleetShardSize {
		count = fleetShardSize
	}
	g := &generator{rng: rand.New(rand.NewSource(cfg.Seed + int64(s+1)*fleetShardSeedStep))}
	b := dataset.NewColumnBuilder(count, count*10)
	for i := 0; i < count; i++ {
		r, err := g.fleetResult()
		if err != nil {
			return nil, err
		}
		r.ID = fmt.Sprintf("fleet-%07d", base+i)
		b.Append(r)
	}
	return b.Store(), nil
}

// GenerateFleetStore produces the same fleet as GenerateFleet — same
// seed, same shard streams, same IDs — directly as a column store,
// without ever holding the fleet as result structs. Derived metric
// columns build lazily on first analysis access.
func GenerateFleetStore(cfg FleetConfig) (*dataset.ColumnStore, error) {
	if cfg.Servers <= 0 {
		return nil, fmt.Errorf("synth: fleet size %d must be positive", cfg.Servers)
	}
	shards := (cfg.Servers + fleetShardSize - 1) / fleetShardSize
	stores, err := par.MapErr(shards, func(s int) (*dataset.ColumnStore, error) {
		return generateShardStore(cfg, s)
	})
	if err != nil {
		return nil, err
	}
	return dataset.ConcatColumns(stores), nil
}

// fleetStreamBatch is how many shards GenerateFleetShards materializes
// concurrently between deliveries: large enough to keep every worker
// busy, small enough that the in-flight window stays a few thousand
// rows regardless of fleet size.
const fleetStreamBatch = 8

// GenerateFleetShards generates the fleet and hands each shard's
// column store to fn in shard order, then drops it — the streaming
// form of GenerateFleetStore for writing million-server corpora to
// disk in bounded memory. Shards are sampled from the same per-shard
// RNG streams as GenerateFleet, so the concatenation of the delivered
// shards is exactly the GenerateFleet output. fn runs serially; an
// error from fn or the generator aborts the stream.
func GenerateFleetShards(cfg FleetConfig, fn func(shard int, cs *dataset.ColumnStore) error) error {
	if cfg.Servers <= 0 {
		return fmt.Errorf("synth: fleet size %d must be positive", cfg.Servers)
	}
	shards := (cfg.Servers + fleetShardSize - 1) / fleetShardSize
	for lo := 0; lo < shards; lo += fleetStreamBatch {
		hi := lo + fleetStreamBatch
		if hi > shards {
			hi = shards
		}
		stores, err := par.MapErr(hi-lo, func(i int) (*dataset.ColumnStore, error) {
			return generateShardStore(cfg, lo+i)
		})
		if err != nil {
			return err
		}
		for i, cs := range stores {
			if err := fn(lo+i, cs); err != nil {
				return err
			}
		}
	}
	return nil
}

// fleetResult samples one server: blueprint from the plan tables, then
// the standard draw/materialize pipeline. The curve solver can reject
// an (EP target, peak spot) pair as non-monotone; fleets resample the
// pair rather than fail, since no census depends on the first draw.
func (g *generator) fleetResult() (*dataset.Result, error) {
	bp := &blueprint{}
	bp.year = g.sampleFleetYear()
	bp.nodes, bp.chips = g.sampleFleetPopulation()
	bp.mpc = g.sampleFleetMPC()
	bp.code = g.sampleCodename(bp.year)
	bp.coresPerChip = g.sampleCores(bp.code)
	const attempts = 32
	for try := 0; ; try++ {
		bp.epTarget = g.sampleEP(epYearStats[bp.year], bp)
		bp.spot = g.sampleFleetSpot(bp.year)
		d, err := g.drawResult(bp)
		if err == nil {
			r := materializeResult(bp, d)
			if r.HWAvailYear < 2007 {
				// The benchmark launched in 2007; older hardware is
				// necessarily published later.
				r.PublishedYear = 2007 + g.rng.Intn(5)
			}
			return r, nil
		}
		if try == attempts-1 {
			return nil, fmt.Errorf("synth: fleet curve failed after %d attempts: %w", attempts, err)
		}
	}
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

// sampleFleetSpot draws the peak-efficiency utilization from the
// year's Fig. 16 share table; years before the table peak at 100%.
func (g *generator) sampleFleetSpot(year int) float64 {
	plan, ok := peakSpotPlan[year]
	if !ok {
		return 1.0
	}
	var total float64
	for _, sw := range plan {
		total += sw.weight
	}
	x := g.rng.Float64() * total
	for _, sw := range plan {
		x -= sw.weight
		if x <= 0 {
			return sw.spot
		}
	}
	return 1.0
}
