package analysis

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/par"
)

// Envelope is the band containing every server's normalized curve —
// the shape of the pencil-head chart (Fig. 9, power) and the almond
// chart (Fig. 11, efficiency).
type Envelope struct {
	// Utilizations is the shared grid (active idle plus ten levels).
	Utilizations []float64
	// Lower and Upper bound the normalized values at each grid point.
	Lower, Upper []float64
	// LowerID/UpperID identify the servers with the extreme EP values
	// that trace the envelope edges (EP 1.05 and 0.18 in the corpus).
	LowerID, UpperID string
	LowerEP, UpperEP float64
	N                int
}

// PowerEnvelope computes the pencil-head chart band: normalized power
// at each level across all servers. The upper edge belongs to the
// least proportional server and the lower edge to the most
// proportional one.
func PowerEnvelope(rp *dataset.Repository) Envelope {
	return envelope(rp, true)
}

// EEEnvelope computes the almond chart band: efficiency normalized to
// the 100% level across all servers.
func EEEnvelope(rp *dataset.Repository) Envelope {
	return envelope(rp, false)
}

// envelopePartial is one worker's reduction over a contiguous row range
// of the store: per-level extrema plus the extreme-EP servers seen.
type envelopePartial struct {
	lower, upper     []float64
	minEP, maxEP     float64
	lowerID, upperID string
	haveMin, haveMax bool
}

// envelope reduces the normalized power (normPower=true) or normalized
// efficiency series of every standard-grid curve, read through each
// row's core.Curve over the store's level columns.
func envelope(rp *dataset.Repository, normPower bool) Envelope {
	cs := rp.Columns()
	env := Envelope{
		Utilizations: append([]float64(nil), core.StandardUtilizations...),
		N:            cs.Len(),
	}
	grid := len(env.Utilizations)
	env.Lower = make([]float64, grid)
	env.Upper = make([]float64, grid)
	for i := range env.Lower {
		env.Lower[i] = math.Inf(1)
		env.Upper[i] = math.Inf(-1)
	}

	epCol := cs.EPCol()
	curveOK := cs.CurveOKCol()
	ids := cs.IDCol()

	// Fan out contiguous chunks, then merge the partial envelopes in
	// chunk order: min/max are associative and ties on EP resolve to the
	// first result in repository order, exactly as the sequential loop
	// with strict comparisons did.
	chunks := par.Chunks(cs.Len())
	partials := par.Map(len(chunks), func(ci int) envelopePartial {
		p := envelopePartial{
			lower: make([]float64, grid),
			upper: make([]float64, grid),
			minEP: math.Inf(1),
			maxEP: math.Inf(-1),
		}
		for i := range p.lower {
			p.lower[i] = math.Inf(1)
			p.upper[i] = math.Inf(-1)
		}
		vals := make([]float64, 0, grid)
		for r := chunks[ci].Lo; r < chunks[ci].Hi; r++ {
			if !curveOK[r] {
				panic(cs.CurveErr(r)) // as Result.MustCurve does
			}
			if c := cs.Curve(r); c.NumLevels() == grid {
				if normPower {
					vals = c.AppendNormalizedPower(vals[:0])
				} else {
					vals = c.AppendNormalizedEE(vals[:0])
				}
				// A strict comparison settles most values before the
				// math.Min/Max calls, which decide ties, ±0 and NaN.
				for i, v := range vals {
					if lo := p.lower[i]; v < lo {
						p.lower[i] = v
					} else if !(v > lo) {
						p.lower[i] = math.Min(lo, v)
					}
					if hi := p.upper[i]; v > hi {
						p.upper[i] = v
					} else if !(v < hi) {
						p.upper[i] = math.Max(hi, v)
					}
				}
			}
			ep := epCol[r]
			if ep < p.minEP {
				p.minEP, p.upperID, p.haveMin = ep, ids[r], true
			}
			if ep > p.maxEP {
				p.maxEP, p.lowerID, p.haveMax = ep, ids[r], true
			}
		}
		return p
	})

	minEP, maxEP := math.Inf(1), math.Inf(-1)
	for _, p := range partials {
		for i := range env.Lower {
			env.Lower[i] = math.Min(env.Lower[i], p.lower[i])
			env.Upper[i] = math.Max(env.Upper[i], p.upper[i])
		}
		if p.haveMin && p.minEP < minEP {
			minEP, env.UpperID, env.UpperEP = p.minEP, p.upperID, p.minEP
		}
		if p.haveMax && p.maxEP > maxEP {
			maxEP, env.LowerID, env.LowerEP = p.maxEP, p.lowerID, p.maxEP
		}
	}
	return env
}

// Representative pairs a result with its EP for the Fig. 10/12 curve
// selections.
type Representative struct {
	Result *dataset.Result
	EP     float64
	Label  string
}

// paperRepresentatives are the eleven (year, EP) pairs whose curves the
// paper plots in Fig. 10 and Fig. 12.
var paperRepresentatives = []struct {
	year int
	ep   float64
}{
	{2008, 0.18},
	{2005, 0.30},
	{2009, 0.61},
	{2011, 0.75},
	{2016, 0.75},
	{2016, 0.82},
	{2014, 0.86},
	{2016, 0.87},
	{2016, 0.96},
	{2016, 1.02},
	{2012, 1.05},
}

// SelectRepresentatives picks, for each of the paper's eleven
// representative (year, EP) pairs, the server of that year whose EP is
// closest — exact matches when run on the synthetic corpus, nearest
// neighbours on any other dataset. Results are ordered by EP. Each scan
// reads its year's EPs in store order; only the winners materialize.
func SelectRepresentatives(rp *dataset.Repository) []Representative {
	cs := rp.Columns()
	years, eps := cs.HWYearGroups(), cs.EPCol()
	used := make(map[int]bool, len(paperRepresentatives))
	out := make([]Representative, 0, len(paperRepresentatives))
	for _, want := range paperRepresentatives {
		best := -1
		bestGap := math.Inf(1)
		for _, r := range years.Span(want.year, want.year) {
			if i := int(r); !used[i] {
				if gap := math.Abs(eps[i] - want.ep); gap < bestGap {
					best, bestGap = i, gap
				}
			}
		}
		if best < 0 {
			continue
		}
		used[best] = true
		out = append(out, Representative{
			Result: cs.Result(best),
			EP:     eps[best],
			Label:  labelFor(want.year, eps[best]),
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].EP < out[j].EP })
	return out
}

// labelFor renders the paper's legend style, e.g. "2016 EP=1.02".
func labelFor(year int, ep float64) string {
	return fmt.Sprintf("%d EP=%.2f", year, ep)
}
