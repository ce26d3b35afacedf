// Command specbench runs the simulated SPECpower_ssj2008 benchmark on a
// modeled server: a single run under one governor and memory
// configuration, or the paper's full memory-per-core × frequency sweep
// (Fig. 18-21).
//
// Usage:
//
//	specbench -server 4                 # sweep server #4 (Fig. 20/21)
//	specbench -server 2 -single -governor ondemand -memory 16
package main

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"text/tabwriter"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/par"
	"repro/internal/power"
	"repro/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "specbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := cli.New("specbench",
		"[-server 1-4] [-seed N] [-single] [-governor G] [-memory GB] [-repeat N]",
		"runs the simulated SPECpower_ssj2008 benchmark on a modeled server: one run or the full memory x frequency sweep", stderr)
	var (
		serverNo = fs.Int("server", 4, "Table II server to test (1-4)")
		seed     = fs.Int64("seed", 1, "simulation seed")
		interval = fs.Int("interval", 60, "measurement interval seconds (SPEC default 240)")
		single   = fs.Bool("single", false, "run one benchmark instead of the sweep")
		governor = fs.String("governor", "performance", "governor for -single: performance, ondemand, powersave, or a frequency like 2.1")
		memoryGB = fs.Int("memory", 0, "installed memory GB for -single (0 = as configured)")
		repeatN  = fs.Int("repeat", 0, "with -single: run N times and report run-to-run repeatability")
		fidelity = fs.String("fidelity", "fast", "simulation fidelity for -single: fast or tx (transaction-level with latency)")
		nodes    = fs.Int("nodes", 1, "with -single: run N identical nodes as a multi-node test")
		workers  = fs.Int("workers", 0, "max parallel workers for sweep cells and repeats (0 = all cores); output is identical at any count")
	)
	if done, err := cli.Parse(fs, args, stdout); done || err != nil {
		return err
	}
	if *interval <= 0 {
		return fmt.Errorf("-interval %d: want a positive interval", *interval)
	}
	if *workers > 0 {
		defer par.SetMaxWorkers(par.SetMaxWorkers(*workers))
	}
	servers := power.TableIIServers()
	if *serverNo < 1 || *serverNo > len(servers) {
		return fmt.Errorf("server %d out of range 1-%d", *serverNo, len(servers))
	}
	srv := servers[*serverNo-1]

	if *single {
		fid := bench.FidelityFast
		switch *fidelity {
		case "fast":
		case "tx":
			fid = bench.FidelityTransaction
		default:
			return fmt.Errorf("unknown fidelity %q (want fast or tx)", *fidelity)
		}
		if *repeatN > 1 {
			return runRepeat(stdout, srv, *governor, *memoryGB, *seed, *interval, *repeatN)
		}
		return runSingle(stdout, srv, *governor, *memoryGB, *seed, *interval, fid, *nodes)
	}
	pts, err := bench.SweepWith(srv, bench.PaperMemoryConfigs(srv), bench.AllFrequencyGovernors(srv),
		bench.SweepOptions{Seed: *seed, IntervalSeconds: *interval})
	if err != nil {
		return err
	}
	title := fmt.Sprintf("Memory-per-core × frequency sweep on #%d (%s)", *serverNo, srv.Name)
	fmt.Fprintln(stdout, report.SweepFigure(title, pts))
	if *serverNo == 4 {
		fmt.Fprintln(stdout, report.Fig21PowerAndEE(pts))
	}
	return nil
}

// runRepeat reports the run-to-run repeatability of one configuration.
func runRepeat(w io.Writer, srv power.ServerConfig, governor string, memoryGB int, seed int64, interval, n int) error {
	gov, err := parseGovernor(governor)
	if err != nil {
		return err
	}
	if memoryGB > 0 {
		srv, err = srv.WithMemory(memoryGB, srv.DIMMs[0].SizeGB)
		if err != nil {
			return err
		}
	}
	rep, err := bench.Repeat(bench.Config{
		Server:          srv,
		Governor:        gov,
		Seed:            seed,
		IntervalSeconds: interval,
	}, n)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s — %d runs under governor %s\n", srv.Name, rep.Runs, gov.Name())
	fmt.Fprintf(w, "overall EE: mean %.1f (95%% CI %.1f-%.1f), median %.1f, spread %.2f%%\n",
		rep.OverallEE.Mean, rep.CILow, rep.CIHigh, rep.OverallEE.Median, 100*rep.SpreadFrac)
	return nil
}

func runSingle(w io.Writer, srv power.ServerConfig, governor string, memoryGB int, seed int64, interval int, fid bench.Fidelity, nodes int) error {
	gov, err := parseGovernor(governor)
	if err != nil {
		return err
	}
	if memoryGB > 0 {
		srv, err = srv.WithMemory(memoryGB, srv.DIMMs[0].SizeGB)
		if err != nil {
			return err
		}
	}
	runner, err := bench.NewRunner(bench.Config{
		Server:          srv,
		Governor:        gov,
		Seed:            seed,
		IntervalSeconds: interval,
		Fidelity:        fid,
		Nodes:           nodes,
	})
	if err != nil {
		return err
	}
	res, err := runner.Run()
	if err != nil {
		return err
	}
	nodeNote := ""
	if res.Nodes > 1 {
		nodeNote = fmt.Sprintf(", %d nodes", res.Nodes)
	}
	fmt.Fprintf(w, "%s — governor %s (busy %.2f GHz), %d GB memory (%.2f GB/core)%s\n",
		srv.Name, res.Governor, res.BusyFreqGHz, int(srv.MemoryGB()), srv.MemoryPerCore(), nodeNote)
	fmt.Fprintf(w, "calibrated throughput: %.0f ssj_ops\n\n", res.CalibratedOps)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if fid == bench.FidelityTransaction {
		fmt.Fprintln(tw, "target load\tssj_ops\tavg power (W)\tEE (ops/W)\tp50 (ms)\tp99 (ms)")
		for i := len(res.Levels) - 1; i >= 0; i-- {
			lv := res.Levels[i]
			fmt.Fprintf(tw, "%.0f%%\t%.0f\t%.1f\t%.1f\t%.2f\t%.2f\n",
				100*lv.TargetLoad, lv.OpsPerSec, lv.AvgPowerWatts, lv.EE(),
				1000*lv.LatencyP50, 1000*lv.LatencyP99)
		}
	} else {
		fmt.Fprintln(tw, "target load\tssj_ops\tavg power (W)\tEE (ops/W)")
		for i := len(res.Levels) - 1; i >= 0; i-- {
			lv := res.Levels[i]
			fmt.Fprintf(tw, "%.0f%%\t%.0f\t%.1f\t%.1f\n",
				100*lv.TargetLoad, lv.OpsPerSec, lv.AvgPowerWatts, lv.EE())
		}
	}
	fmt.Fprintf(tw, "active idle\t0\t%.1f\t-\n", res.ActiveIdle.AvgPowerWatts)
	tw.Flush()
	peak, at := res.PeakEE()
	fmt.Fprintf(w, "\noverall EE (SPECpower score): %.1f   peak EE %.1f at %.0f%% load   peak power %.0f W\n",
		res.OverallEE(), peak, 100*at, res.PeakPowerWatts())
	return nil
}

func parseGovernor(s string) (power.Governor, error) {
	switch s {
	case "performance":
		return power.Performance(), nil
	case "ondemand":
		return power.OnDemand(), nil
	case "powersave":
		return power.PowerSave(), nil
	default:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return power.Governor{}, fmt.Errorf("unknown governor %q", s)
		}
		return power.UserSpace(f), nil
	}
}
