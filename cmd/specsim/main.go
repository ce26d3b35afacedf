// Command specsim runs the streaming fleet simulator: it generates a
// synthetic fleet at any scale, replays a demand trace (diurnal or
// bursty generators, or a CSV trace file) against it under a cluster
// policy with power-management costs, and reports per-interval or
// summary accounting. The incremental stepper makes a 100k-server week
// at 1-minute resolution a seconds-scale run.
//
// Usage:
//
//	specsim [-servers N] [-trace diurnal|bursty|FILE.csv] [-policy P]
//	        [-step SEC] [-duration DAYS] [-workers N]
//	        [-format text|csv|json] [-seed N] [-load F] [-swing F]
//	        [-hyst STEPS] [-headroom F] [-min-active N]
//	        [-on SEC] [-off SEC] [-latency-every N]
//	        [-price USD] [-carbon KG] [-pue F]
//	        [-intensity diurnal|duck|FILE.csv] [-intensity-step SEC]
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/fleetsim"
	"repro/internal/optimize"
	"repro/internal/par"
	"repro/internal/placement"
	"repro/internal/synth"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "specsim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := cli.New("specsim",
		"[-servers N] [-trace diurnal|bursty|FILE.csv] [-policy P] [-step SEC] [-duration DAYS] [-format text|csv|json]",
		"replays a demand trace against a synthetic fleet with online power management and per-interval energy accounting", stderr)
	var (
		servers  = fs.Int("servers", 1000, "fleet size")
		traceArg = fs.String("trace", "diurnal", "demand source: diurnal, bursty, or a CSV trace file")
		policyS  = fs.String("policy", "pack+off", "cluster policy: spread, pack, pack+off, optimal-region")
		step     = fs.Float64("step", 60, "simulation step in seconds")
		duration = fs.Float64("duration", 7, "trace length in days (generated traces)")
		workers  = fs.Int("workers", 0, "worker cap for trace segments (0 = all CPUs)")
		format   = fs.String("format", "text", "output: text (summary), csv (per step), json (summary)")
		seed     = fs.Int64("seed", 1, "seed for fleet, trace, and latency sampling")
		load     = fs.Float64("load", 0.45, "mean demand as a fraction of fleet capacity")
		swing    = fs.Float64("swing", 0.55, "diurnal swing amplitude [0, 1)")
		hyst     = fs.Int("hyst", 5, "power-off hysteresis in steps")
		headroom = fs.Float64("headroom", 0.05, "active-set headroom fraction")
		minAct   = fs.Int("min-active", 1, "minimum active servers")
		onSec    = fs.Float64("on", 30, "power-on transition seconds (billed at full-load draw)")
		offSec   = fs.Float64("off", 10, "power-off transition seconds (billed at idle draw)")
		latEvery = fs.Int("latency-every", 0, "sample marginal-server latency every N steps (0 = off)")
		price    = fs.Float64("price", 0, "electricity price, USD per kWh (0 = no cost line)")
		carbon   = fs.Float64("carbon", 0, "grid carbon intensity, kg CO2 per kWh (0 = no carbon line)")
		pue      = fs.Float64("pue", 1, "facility power usage effectiveness for cost/carbon pricing")
		intens   = fs.String("intensity", "", "time-varying grid intensity: diurnal, duck, or a CSV profile file (empty = static -carbon rate)")
		intStep  = fs.Float64("intensity-step", 3600, "intensity profile sampling period in seconds")
	)
	if done, err := cli.Parse(fs, args, stdout); done || err != nil {
		return err
	}
	if *workers > 0 {
		par.SetMaxWorkers(*workers)
	}
	policy, err := parsePolicy(*policyS)
	if err != nil {
		return err
	}
	if *duration <= 0 {
		return fmt.Errorf("duration %v days", *duration)
	}
	if *step <= 0 {
		return fmt.Errorf("-step %v s: want a positive step", *step)
	}
	if math.IsNaN(*load) || math.IsInf(*load, 0) {
		return fmt.Errorf("-load %v", *load)
	}
	if math.IsNaN(*swing) || math.IsInf(*swing, 0) {
		return fmt.Errorf("-swing %v", *swing)
	}

	results, err := synth.GenerateFleet(synth.FleetConfig{Seed: *seed, Servers: *servers})
	if err != nil {
		return err
	}
	fleet, err := placement.Profiles(results)
	if err != nil {
		return err
	}
	var capacity float64
	for _, p := range fleet {
		capacity += p.MaxOps
	}

	tr, err := buildTrace(*traceArg, *seed, *step, *duration, *load*capacity, *swing)
	if err != nil {
		return err
	}

	// A time-varying intensity profile switches carbon accounting from
	// the static post-hoc bill to per-step billing inside the stepper;
	// -carbon then sets the generated profile's mean rather than a flat
	// rate (a CSV profile carries its own levels).
	var prof *trace.IntensityProfile
	if *intens != "" {
		prof, err = cli.Intensity(*intens, *intStep, *carbon)
		if err != nil {
			return err
		}
	}

	cfg := fleetsim.Config{
		Members: fleet,
		Policy:  policy,
		Trace:   tr,
		Power: fleetsim.PowerConfig{
			OnSeconds:       *onSec,
			OffSeconds:      *offSec,
			HysteresisSteps: *hyst,
			HeadroomFrac:    *headroom,
			MinActive:       *minAct,
		},
		Latency: fleetsim.LatencyConfig{Every: *latEvery},
		Seed:    *seed,
	}
	if prof != nil {
		cfg.Carbon = prof
		cfg.PUE = *pue
	}

	if *format == "csv" {
		header := "step,demand_ops,served_ops,unserved_ops,active,powered_on,powered_off,power_w,transition_j,energy_j,latency_p50_s,latency_p95_s,latency_p99_s"
		if prof != nil {
			header += ",carbon_kg"
		}
		fmt.Fprintln(stdout, header)
		cfg.Sink = func(s fleetsim.StepStats) error {
			return writeCSVStep(stdout, s, prof != nil)
		}
	}
	res, err := fleetsim.Run(cfg)
	if err != nil {
		return err
	}

	// Pricing rides on the optimizer's objective layer; the lines only
	// appear when a rate is set, so default output (and its golden
	// digests) is unchanged.
	var bill *trace.Bill
	staticCarbon := *carbon
	if prof != nil {
		// Carbon is billed per step from the profile; the static bill
		// keeps only the cost/facility lines.
		staticCarbon = 0
	}
	if *price != 0 || staticCarbon != 0 {
		o := optimize.Objective{Tariff: trace.Tariff{USDPerKWh: *price, KgCO2PerKWh: staticCarbon, PUE: *pue}}
		b, err := o.Bill(res.EnergyKWh)
		if err != nil {
			return err
		}
		bill = &b
	}

	switch *format {
	case "csv":
		return nil
	case "json":
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		// Round-trip through a map so the Policy field carries the
		// policy name instead of its internal enum value.
		raw, err := json.Marshal(res)
		if err != nil {
			return err
		}
		var obj map[string]any
		if err := json.Unmarshal(raw, &obj); err != nil {
			return err
		}
		obj["Policy"] = policy.String()
		if bill != nil {
			obj["Bill"] = bill
		}
		if prof != nil {
			obj["Intensity"] = map[string]any{
				"Name":         prof.Name,
				"StepSeconds":  prof.StepSeconds,
				"Steps":        len(prof.Rates),
				"MeanKgPerKWh": prof.Mean(),
			}
		}
		return enc.Encode(obj)
	case "text":
		writeText(stdout, res)
		if prof != nil {
			writeIntensity(stdout, res, prof, *pue)
		}
		if bill != nil {
			writeBill(stdout, *bill, *price, staticCarbon, *pue)
		}
		return nil
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
}

// writeIntensity appends the time-varying carbon summary lines.
func writeIntensity(w io.Writer, res fleetsim.Result, prof *trace.IntensityProfile, pue float64) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "intensity\t%s (%d × %.0f s, mean %.3g kg/kWh)\n",
		prof.Name, len(prof.Rates), prof.StepSeconds, prof.Mean())
	fmt.Fprintf(tw, "carbon\t%.1f kgCO2 time-varying (PUE %.2f)\n", res.CarbonKg, pue)
	tw.Flush()
}

// writeBill appends the priced summary lines.
func writeBill(w io.Writer, b trace.Bill, price, carbon, pue float64) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "facility\t%.1f kWh (PUE %.2f)\n", b.FacilityKWh, pue)
	if price > 0 {
		fmt.Fprintf(tw, "cost\t$%.2f at $%.3g/kWh\n", b.USD, price)
	}
	if carbon > 0 {
		fmt.Fprintf(tw, "carbon\t%.1f kgCO2 at %.3g kg/kWh\n", b.KgCO2, carbon)
	}
	tw.Flush()
}

func parsePolicy(s string) (cluster.Policy, error) {
	for _, p := range cluster.AllPolicies() {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown policy %q", s)
}

// buildTrace resolves the -trace argument: a generator name or a CSV
// trace file path.
func buildTrace(arg string, seed int64, stepSec, days, baseOps, swing float64) (*trace.Trace, error) {
	switch arg {
	case "diurnal":
		return trace.Diurnal(trace.DiurnalConfig{
			Seed:          seed,
			Days:          int(days + 0.5),
			StepSeconds:   stepSec,
			BaseOps:       baseOps,
			DailySwing:    swing,
			NoiseFrac:     0.04,
			SpikeProb:     0.002,
			WeekendFactor: 0.7,
		})
	case "bursty":
		return trace.Bursty(trace.BurstyConfig{
			Seed:        seed,
			Steps:       int(days*86400/stepSec + 0.5),
			StepSeconds: stepSec,
			BaseOps:     baseOps,
		})
	default:
		f, err := os.Open(arg)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.ReadCSV(f, stepSec)
	}
}

// writeCSVStep emits one per-interval row. Floats format with
// round-trip precision so the byte stream is a faithful image of the
// simulation — the golden-digest tests hash it across worker counts.
func writeCSVStep(w io.Writer, s fleetsim.StepStats, withCarbon bool) error {
	var b strings.Builder
	b.Grow(192)
	b.WriteString(strconv.Itoa(s.Step))
	for _, v := range []float64{s.DemandOps, s.ServedOps, s.UnservedOps} {
		b.WriteByte(',')
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	for _, n := range []int{s.Active, s.PoweredOn, s.PoweredOff} {
		b.WriteByte(',')
		b.WriteString(strconv.Itoa(n))
	}
	for _, v := range []float64{s.PowerWatts, s.TransitionJ, s.EnergyJ} {
		b.WriteByte(',')
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	if s.Sampled {
		for _, v := range []float64{s.LatencyP50, s.LatencyP95, s.LatencyP99} {
			b.WriteByte(',')
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
	} else {
		b.WriteString(",,,")
	}
	if withCarbon {
		b.WriteByte(',')
		b.WriteString(strconv.FormatFloat(s.CarbonKg, 'g', -1, 64))
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

func writeText(w io.Writer, res fleetsim.Result) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "policy\t%s\n", res.Policy)
	fmt.Fprintf(tw, "servers\t%d (%.1fM ops capacity)\n", res.Servers, res.CapacityOps/1e6)
	fmt.Fprintf(tw, "trace\t%d steps × %.0f s (%.2f days)\n",
		res.Steps, res.StepSeconds, float64(res.Steps)*res.StepSeconds/86400)
	fmt.Fprintf(tw, "energy\t%.1f kWh (%.1f kWh transitions)\n", res.EnergyKWh, res.TransitionKWh)
	fmt.Fprintf(tw, "power\tavg %.0f W, peak %.0f W\n", res.AvgPowerWatts, res.PeakPowerWatts)
	fmt.Fprintf(tw, "fleet EE\t%.1f ops/s per W\n", res.AvgEE)
	fmt.Fprintf(tw, "active\tavg %.1f, min %d, max %d\n", res.AvgActive, res.MinActive, res.MaxActive)
	fmt.Fprintf(tw, "transitions\t%d on, %d off\n", res.PoweredOn, res.PoweredOff)
	fmt.Fprintf(tw, "served\t%.0f ops avg (%.2f%% unserved)\n",
		res.ServedOps, 100*safeDiv(res.UnservedOps, res.ServedOps+res.UnservedOps))
	if res.LatencySamples > 0 {
		fmt.Fprintf(tw, "latency\t%d samples: p50 %.1f ms, p95 %.1f ms, p99 %.1f ms (worst p99 %.1f ms)\n",
			res.LatencySamples, 1e3*res.AvgLatencyP50, 1e3*res.AvgLatencyP95,
			1e3*res.AvgLatencyP99, 1e3*res.MaxLatencyP99)
	}
	tw.Flush()
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
