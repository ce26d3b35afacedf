// Command perfbench is the repository's benchmark. It drives one seeded
// workload through the same library entry points the CLIs use, checks
// the outputs outside the timed region, and prints every metric by
// name and unit, ending with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured without
// tracing. With -trace 1 every other pass or request records a span
// around every layer call, and the run reports per-layer metrics plus
// the tracing overhead. The exit status is non-zero when any check
// fails. See README.md for the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fleet-batch|serve-mixed \
//	    --seed N --seconds S --trace 0|1
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/par"
)

// workers pins both GOMAXPROCS and the internal/par pool, so numbers
// taken on hosts with more cores stay comparable.
const workers = 2

// setupReps is how many times each workload sets up from scratch;
// setup_s is the median.
const setupReps = 5

// runConfig is what every workload receives.
type runConfig struct {
	seed  int64
	dur   time.Duration
	trace bool
}

// result is what a workload measured. opMs and setupS feed the
// end-to-end metrics of an untraced run; layer holds the per-layer
// metrics of a traced run.
type result struct {
	attempted, failed int
	setupS            []float64
	opMs              []float64
	peakRSSMB         float64
	layer             map[string]float64
}

// fail records one failed operation and why.
func (r *result) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "check failed: "+format+"\n", args...)
}

var workloads = map[string]func(runConfig) (*result, error){
	"fleet-batch": runFleetBatch,
	"serve-mixed": runServeMixed,
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, the same on every
// workload. An operation is one pass for fleet-batch and one request
// for serve-mixed.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "fleet-batch or serve-mixed")
		seed    = fs.Int64("seed", 1, "seed every input is generated from")
		seconds = fs.Float64("seconds", 15, "measured seconds, after set-up")
		traced  = fs.Int("trace", 0, "1 measures per-layer metrics with spans; 0 the end-to-end metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traced)
		return 2
	}
	runtime.GOMAXPROCS(workers)
	par.SetMaxWorkers(workers)
	printStamp(*name, *seed, *seconds, *traced)

	res, err := w(runConfig{seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), trace: *traced == 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var defs []metricDef
	values := map[string]float64{}
	if *traced == 1 {
		defs = perLayer
		for _, d := range defs {
			values[d.name] = res.layer[d.name]
		}
		values["fail_ratio"] = float64(res.failed) / float64(max(res.attempted, 1))
	} else {
		defs = endToEnd
		t := windowedTail(res.opMs) // before percentile sorts res.opMs
		values["setup_s"] = percentile(res.setupS, 50)
		values["p50_ms"] = percentile(res.opMs, 50)
		values["tail_ms"] = t.Value
		values["peak_rss_mb"] = res.peakRSSMB
		fmt.Printf("samples ops=%d tail=p%g windows=%d setups=%d\n", t.N, t.P, t.Windows, len(res.setupS))
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]metric{}}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", d.name, v)
			return 1
		}
		fmt.Printf("metric %s %s %s\n", d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
		out.Metrics[d.name] = metric{v, d.unit}
	}
	if res.attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation completed")
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if res.failed > 0 {
		return 1
	}
	return 0
}

// printStamp prints what a result must be read with: numbers from runs
// whose stamps differ in anything but the seed are not comparable.
func printStamp(workload string, seed int64, seconds float64, traced int) {
	// Builds outside a git checkout carry no revision.
	commit, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	stamp := map[string]any{
		"workload": workload, "seed": seed, "seconds": seconds, "trace": traced,
		"commit": commit + dirty, "go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"cpu": cpuModel(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"par_workers": par.Workers(math.MaxInt32),
	}
	keys := make([]string, 0, len(stamp))
	for k := range stamp {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%v", k, stamp[k])
	}
	fmt.Println("stamp" + b.String())
}

// cpuModel reads the CPU model name, or "unknown" off Linux.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.Join(strings.Fields(v), "_")
		}
	}
	return "unknown"
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM),
// or 0 off Linux.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(v); len(f) > 0 {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// measurePasses calls pass until d has elapsed, and at least once,
// timing each call; check runs after each successful pass, outside its
// timing. Every pass and failure counts into res. A traced run traces
// every odd pass, so traced and untraced passes share the machine's
// conditions: res.opMs gets the untraced times, and the traced ones are
// returned.
func measurePasses(res *result, tr *tracer, d time.Duration, pass, check func(op int64) error) (traced []float64) {
	end := time.Now().Add(d)
	for op := int64(0); op == 0 || time.Now().Before(end); op++ {
		tr.setOn(op%2 == 1)
		t0 := time.Now()
		err := pass(op)
		lat := ms(time.Since(t0))
		tr.setOn(false)
		if err == nil {
			err = check(op)
		}
		res.attempted++
		if err != nil {
			res.fail("%v", err)
		}
		if tr != nil && op%2 == 1 {
			traced = append(traced, lat)
		} else {
			res.opMs = append(res.opMs, lat)
		}
	}
	return traced
}
