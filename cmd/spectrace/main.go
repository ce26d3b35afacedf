// Command spectrace simulates datacenter operations: it builds a fleet
// from a SPECpower dataset, synthesizes a diurnal demand trace,
// simulates the fleet over it under each cluster policy, and prices
// the difference — the paper's motivation (electricity bills and
// carbon footprints) made concrete.
//
// Usage:
//
//	spectrace [-in FILE | -seed N] [-fleet 30] [-days 7] [-load 0.45]
//	          [-swing 0.55] [-price 0.10] [-carbon 0.45] [-pue 1.5]
package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/fleetsim"
	"repro/internal/placement"
	"repro/internal/synth"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "spectrace:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := cli.New("spectrace",
		"[-in FILE | -seed N] [-fleet N] [-days D] [-load F] [-price USD] [-pue F]",
		"simulates a fleet over a diurnal demand trace under each cluster policy and prices the difference", stderr)
	var (
		in     = fs.String("in", "", "dataset file (.csv or .json); empty generates the synthetic corpus")
		seed   = fs.Int64("seed", 1, "seed for corpus, trace, and fleet selection")
		fleetN = fs.Int("fleet", 30, "fleet size")
		from   = fs.Int("from", 2011, "earliest hardware availability year for the fleet")
		to     = fs.Int("to", 2016, "latest hardware availability year for the fleet")
		days   = fs.Int("days", 7, "trace length in days")
		load   = fs.Float64("load", 0.45, "mean demand as a fraction of fleet capacity")
		swing  = fs.Float64("swing", 0.55, "diurnal swing amplitude [0, 1)")
		price  = fs.Float64("price", 0.10, "electricity price, USD per kWh")
		carbon = fs.Float64("carbon", 0.45, "grid carbon intensity, kg CO2 per kWh")
		pue    = fs.Float64("pue", 1.5, "facility power usage effectiveness")
	)
	if done, err := cli.Parse(fs, args, stdout); done || err != nil {
		return err
	}
	if *fleetN < 1 {
		return fmt.Errorf("-fleet %d: need at least one server", *fleetN)
	}
	rp, err := load2(*in, *seed)
	if err != nil {
		return err
	}
	servers := rp.Valid().YearRange(*from, *to).All()
	if len(servers) == 0 {
		return fmt.Errorf("no servers in %d-%d", *from, *to)
	}
	if len(servers) > *fleetN {
		servers = servers[:*fleetN]
	}
	fleet := make([]*placement.Profile, 0, len(servers))
	var capacity float64
	for _, r := range servers {
		p, err := placement.NewProfile(r.ID, r.MustCurve())
		if err != nil {
			return err
		}
		fleet = append(fleet, p)
		capacity += p.MaxOps
	}

	tr, err := trace.Diurnal(trace.DiurnalConfig{
		Seed:          *seed,
		Days:          *days,
		BaseOps:       *load * capacity,
		DailySwing:    *swing,
		NoiseFrac:     0.04,
		SpikeProb:     0.005,
		WeekendFactor: 0.7,
	})
	if err != nil {
		return err
	}
	stats := tr.Stats()
	fmt.Fprintf(stdout, "fleet: %d servers (%d-%d), %.1fM ops capacity\n",
		len(fleet), *from, *to, capacity/1e6)
	fmt.Fprintf(stdout, "trace: %d days, mean %.0f%% of capacity, peak %.0f%%, load factor %.2f\n\n",
		*days, 100*stats.MeanOps/capacity, 100*stats.PeakOps/capacity, stats.LoadFactor)

	tariff := trace.Tariff{USDPerKWh: *price, KgCO2PerKWh: *carbon, PUE: *pue}
	// The capacity and trace above sum the fleet in dataset order; the
	// simulation engages members in PackToFull's order.
	members := placement.PackOrder(fleet)
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "policy\tIT kWh\tavg W\tpeak W\tfleet EE\tfacility kWh\tUSD\tkg CO2")
	var annualNote []string
	for _, policy := range cluster.AllPolicies() {
		r, err := fleetsim.Run(fleetsim.Config{Members: members, Policy: policy, Trace: tr})
		if err != nil {
			return err
		}
		bill, err := tariff.BillOf(r.EnergyKWh)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%.1f\t%.0f\t%.0f\t%.1f\t%.1f\t$%.2f\t%.1f\n",
			policy, r.EnergyKWh, r.AvgPowerWatts, r.PeakPowerWatts, r.AvgEE,
			bill.FacilityKWh, bill.USD, bill.KgCO2)
		annual, err := trace.AnnualizedBill(bill, float64(*days))
		if err != nil {
			return err
		}
		annualNote = append(annualNote,
			fmt.Sprintf("  %-14s $%.0f/yr, %.1f t CO2/yr", policy, annual.USD, annual.KgCO2/1000))
	}
	tw.Flush()
	fmt.Fprintf(stdout, "\nannualized (tariff $%.2f/kWh, %.2f kgCO2/kWh, PUE %.2f):\n%s\n",
		*price, *carbon, *pue, strings.Join(annualNote, "\n"))
	return nil
}

func load2(path string, seed int64) (*dataset.Repository, error) {
	if path == "" {
		return synth.NewRepository(synth.Config{Seed: seed})
	}
	return dataset.ReadPath(path)
}
