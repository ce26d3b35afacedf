// Datacenter: a week of operations. Builds a heterogeneous fleet from
// the synthetic corpus, synthesizes a diurnal demand trace with weekend
// dips and bursts, and simulates the week under each cluster policy —
// quantifying the paper's motivation that fluctuating, low-to-medium
// utilization is where energy proportionality pays.
// Also shows cluster-wide proportionality: the same fleet's aggregate
// power curve under each load-distribution policy.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	corpus, err := repro.GenerateCorpus(repro.SynthConfig{Seed: 11})
	if err != nil {
		return err
	}
	servers := corpus.Valid().YearRange(2011, 2016).All()[:30]
	fleet := make([]*repro.PlacementProfile, 0, len(servers))
	var capacity float64
	for _, r := range servers {
		p, err := repro.NewPlacementProfile(r.ID, r.MustCurve())
		if err != nil {
			return err
		}
		fleet = append(fleet, p)
		capacity += p.MaxOps
	}

	// A week of demand averaging 45% of capacity, peaking around 75%,
	// with weekend dips and occasional bursts.
	tr, err := repro.DiurnalTrace(repro.DiurnalConfig{
		Seed:          5,
		Days:          7,
		BaseOps:       0.45 * capacity,
		DailySwing:    0.55,
		NoiseFrac:     0.04,
		SpikeProb:     0.01,
		WeekendFactor: 0.6,
	})
	if err != nil {
		return err
	}
	stats := tr.Stats()
	fmt.Printf("fleet: %d servers, %.1fM ops capacity\n", len(fleet), capacity/1e6)
	fmt.Printf("trace: %d days, mean %.1fM ops (%.0f%% of capacity), peak %.1fM, load factor %.2f\n\n",
		7, stats.MeanOps/1e6, 100*stats.MeanOps/capacity, stats.PeakOps/1e6, stats.LoadFactor)

	// The simulator engages members in order: hand it a copy in
	// PackToFull's order, and keep the corpus order for the cluster
	// study below.
	members := repro.PackOrder(fleet)
	fmt.Println("one week of operations by cluster policy:")
	var spread, off repro.FleetSimResult
	for _, policy := range []repro.ClusterPolicy{
		repro.PolicySpread, repro.PolicyPack, repro.PolicyPackPowerOff, repro.PolicyOptimalRegion,
	} {
		r, err := repro.SimulateFleet(repro.FleetSimConfig{Members: members, Policy: policy, Trace: tr})
		if err != nil {
			return err
		}
		switch policy {
		case repro.PolicySpread:
			spread = r
		case repro.PolicyPackPowerOff:
			off = r
		}
		fmt.Printf("  %-14s %8.1f kWh  avg %6.0f W  peak %6.0f W  fleet EE %6.1f  (%+.1f%% vs spread)\n",
			policy, r.EnergyKWh, r.AvgPowerWatts, r.PeakPowerWatts, r.AvgEE,
			100*(r.EnergyKWh/spread.EnergyKWh-1))
	}
	fmt.Println()

	// What powering idle servers off is worth on the bill, annualized.
	tariff := repro.DefaultTariff()
	spreadBill, err := tariff.BillOf(spread.EnergyKWh)
	if err != nil {
		return err
	}
	offBill, err := tariff.BillOf(off.EnergyKWh)
	if err != nil {
		return err
	}
	spreadYear, _ := repro.AnnualizedBill(spreadBill, 7)
	offYear, _ := repro.AnnualizedBill(offBill, 7)
	fmt.Printf("annualized at $%.2f/kWh, %.2f kgCO2/kWh, PUE %.1f:\n",
		tariff.USDPerKWh, tariff.KgCO2PerKWh, tariff.PUE)
	fmt.Printf("  spread:   $%.0f/yr, %.1f t CO2\n", spreadYear.USD, spreadYear.KgCO2/1000)
	fmt.Printf("  pack+off: $%.0f/yr, %.1f t CO2  (saves $%.0f and %.1f t CO2 per year)\n\n",
		offYear.USD, offYear.KgCO2/1000, spreadYear.USD-offYear.USD, (spreadYear.KgCO2-offYear.KgCO2)/1000)

	// Cluster-wide proportionality: the fleet's aggregate curve under
	// each distribution policy.
	fmt.Println("cluster-wide energy proportionality of the same fleet:")
	cmp, err := repro.CompareClusterPolicies(fleet)
	if err != nil {
		return err
	}
	for _, row := range cmp.Rows {
		fmt.Printf("  policy %-15s cluster EP %.3f  idle %.1f%%  half-load draw %.0f W\n",
			row.Policy, row.EP, 100*row.IdleFraction, row.HalfLoadWatts)
	}
	fmt.Println("\npacking with power-off approaches ideal proportionality (EP → 1):")
	sizes := []int{1, 2, 4, 8, 16}
	pts, err := repro.ClusterScalingStudy(fleet[0], sizes, repro.PolicyPackPowerOff)
	if err != nil {
		return err
	}
	for _, p := range pts {
		fmt.Printf("  %2d nodes: cluster EP %.3f\n", p.Nodes, p.EP)
	}
	return nil
}
