package fleetsim

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/placement"
	"repro/internal/synth"
	"repro/internal/trace"
)

// plannerMapping pairs a cluster policy with the placement planner that
// answers the same question one demand point at a time.
type plannerMapping struct {
	policy cluster.Policy
	plan   func([]*placement.Profile, float64, placement.Options) (placement.Plan, error)
	opts   placement.Options
}

var plannerMappings = []plannerMapping{
	{cluster.PolicyOptimalRegion, placement.PlaceProportional, placement.Options{}},
	{cluster.PolicySpread, placement.SpreadEvenly, placement.Options{}},
	{cluster.PolicyPack, placement.PackToFull, placement.Options{}},
	{cluster.PolicyPackPowerOff, placement.PackToFull, placement.Options{IdleServersOff: true}},
}

// corpusWeek builds the first 30 valid 2011–2016 servers of a synthetic
// corpus, in corpus order, and a diurnal trace whose mean is 45% of
// their capacity — the fleet and week that spectrace and the
// datacenter example simulate.
func corpusWeek(t *testing.T, corpusSeed int64, cfg trace.DiurnalConfig) ([]*placement.Profile, *trace.Trace) {
	t.Helper()
	rp, err := synth.NewRepository(synth.Config{Seed: corpusSeed})
	if err != nil {
		t.Fatal(err)
	}
	var fleet []*placement.Profile
	var capacity float64
	for _, r := range rp.Valid().YearRange(2011, 2016).All()[:30] {
		p, err := placement.NewProfile(r.ID, r.MustCurve())
		if err != nil {
			t.Fatal(err)
		}
		fleet = append(fleet, p)
		capacity += p.MaxOps
	}
	cfg.Days = 7
	cfg.BaseOps = 0.45 * capacity
	cfg.DailySwing = 0.55
	cfg.NoiseFrac = 0.04
	tr, err := trace.Diurnal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fleet, tr
}

// TestPoliciesMatchPlanners pins the mapping from the per-step
// placement planners to the cluster policies: with a zero PowerConfig
// and members sorted by full-load efficiency (PackToFull's engage
// order), every step's PowerWatts is the planner's TotalPower at that
// demand — or the fleet's idle draw (zero when idle servers are off)
// at demand <= 0, where the planners refuse to plan.
func TestPoliciesMatchPlanners(t *testing.T) {
	spectraceFleet, spectraceWeek := corpusWeek(t, 1, trace.DiurnalConfig{
		Seed: 1, SpikeProb: 0.005, WeekendFactor: 0.7,
	})
	datacenterFleet, datacenterWeek := corpusWeek(t, 11, trace.DiurnalConfig{
		Seed: 5, SpikeProb: 0.01, WeekendFactor: 0.6,
	})
	fleets := []struct {
		name  string
		fleet []*placement.Profile
		week  *trace.Trace
	}{
		{"spectrace", spectraceFleet, spectraceWeek},
		{"datacenter", datacenterFleet, datacenterWeek},
	}
	for _, f := range fleets {
		members := append([]*placement.Profile(nil), f.fleet...)
		sort.SliceStable(members, func(i, j int) bool { return members[i].EEAt(1) > members[j].EEAt(1) })
		var idleW, capacity float64
		for _, p := range f.fleet {
			idleW += p.PowerAt(0)
			capacity += p.MaxOps
		}
		idle := &trace.Trace{StepSeconds: 300, DemandOps: []float64{0, 0.5 * capacity, 0}}
		for _, tr := range []*trace.Trace{f.week, idle} {
			for _, m := range plannerMappings {
				steps := 0
				_, err := Run(Config{
					Members: members,
					Policy:  m.policy,
					Trace:   tr,
					Sink: func(s StepStats) error {
						steps++
						want := idleW
						if m.opts.IdleServersOff {
							want = 0
						}
						if d := tr.DemandOps[s.Step]; d > 0 {
							plan, err := m.plan(f.fleet, d, m.opts)
							if err != nil {
								return err
							}
							want = plan.TotalPower
						}
						if math.Abs(s.PowerWatts-want) > 1e-14*math.Abs(want) {
							return fmt.Errorf("step %d: %v W, planner %v W", s.Step, s.PowerWatts, want)
						}
						return nil
					},
				})
				if err != nil {
					t.Fatalf("%s fleet, %v: %v", f.name, m.policy, err)
				}
				if steps != len(tr.DemandOps) {
					t.Fatalf("%s fleet, %v: %d steps, want %d", f.name, m.policy, steps, len(tr.DemandOps))
				}
			}
		}
	}
}
