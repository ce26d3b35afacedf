# Standard targets for the reproduction repository.

GO ?= go

.PHONY: all check fmt build vet test race bench fleetbench colbench simbench optbench carbonbench servebench report report-html verify fuzz serve selftest examples clean

all: check

# The default gate: formatting, compile, vet, unit tests, and the race
# detector over every package (the memo/column caches are lock-free on
# the read path, so the race run is part of the standard check).
check: fmt build vet test race

# gofmt gate over the module and perfbench/ (gofmt -l walks into it).
fmt:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; echo "gofmt: reformat the files above"; exit 1; }

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One benchmark per paper table/figure; prints each regenerated series once.
bench:
	$(GO) test -bench=. -benchmem -count=1

# Fleet-scale smoke: one iteration of each 10k/100k-server benchmark
# (composition, generation, codec) to catch fast-path regressions
# without the full benchtime cost.
fleetbench:
	$(GO) test -run '^$$' -bench 'BenchmarkFleet' -benchtime 1x .

# Columnar-core smoke: one iteration of the 10k/100k generate, EPFB v2
# load, derive and full-report benchmarks, the report both warm
# (ColumnarReport100k reuses its store) and cold (ColumnarReportCold100k
# renders a freshly decoded store, as fleet-batch does). The 1M
# variants are excluded to keep the CI run short; run them by hand with
# `go test -bench 'BenchmarkColumnar.*1M' -benchtime 2x .`
# when refreshing BENCH_columnar.json.
colbench:
	$(GO) test -run '^$$' -bench 'BenchmarkColumnar.*(10k|100k)$$' -benchtime 1x -timeout 20m .

# Fleet-simulator smoke: one iteration of the incremental/naive
# benchmarks, including the 100k-server × 1-minute-week perf target
# (BenchmarkFleetSimIncremental100kWeek must stay ≤ 5 s per op; see
# BENCH_fleetsim.json for the recorded before/after matrix).
simbench:
	$(GO) test -run '^$$' -bench 'BenchmarkFleetSim' -benchtime 1x ./internal/fleetsim

# Composition-optimizer smoke: one iteration of the grouped/pruned/
# naive benchmarks and of fleet-batch's three searches
# (BenchmarkOptimizeAllPolicies: all four policies, pruning on, static
# energy, diurnal carbon and two-region carbon with embodied carbon).
# Targets, single-threaded: BenchmarkOptimizeGrouped scores all 16,806
# candidates of a 5-model space against a 1-minute week in under
# 42 ms, and scanning a candidate that is infeasible, pruned, or scored
# but not kept allocates nothing (TestScanAllocs); see
# BENCH_optimize.json for the recorded parent/change matrix.
optbench:
	$(GO) test -run '^$$' -bench 'BenchmarkOptimize' -benchtime 1x ./internal/optimize

# Carbon-aware-optimizer smoke: one iteration each of the static-rate
# baseline, the 2-D demand×intensity fold (all 16,806 candidates under
# a diurnal grid profile; target ≤ 1.5× the static time), and the
# per-candidate exact-replay reference (see BENCH_carbon.json).
carbonbench:
	$(GO) test -run '^$$' -bench 'BenchmarkCarbon' -benchtime 1x ./internal/optimize

# Serving-layer smoke: one iteration of the /metrics scrape and keyed
# workspace benchmarks (BenchmarkMetricsScrapeWarm must stay <= 1 ms
# per op warm; see BENCH_serve.json for the recorded matrix).
servebench:
	$(GO) test -run '^$$' -bench 'BenchmarkMetrics|BenchmarkKeyed' -benchtime 1x ./internal/serve

# The full evaluation section as text / standalone HTML.
report:
	$(GO) run ./cmd/specreport

report-html:
	$(GO) run ./cmd/specreport -format html -out report.html

# Run the paper-invariant verification engine: structural, metric and
# differential checks over the default corpus (exit non-zero on any
# failure).
verify:
	$(GO) run ./cmd/specverify -seed 1

# Fuzz every target the CI verify job smokes, for a short burst each:
# the EP metric kernel, the curve solvers, the solver against its
# pre-rewrite reference copy, the EPFB v2 codec (each
# decoded row's metric columns checked against core.Curve), the CSV and
# JSON corpus codecs, the CPU model parser, the OpenMetrics parser, the
# intensity and demand-trace CSV parsers, the Theil-Sen slope median,
# the HTTP request surface and the cluster evaluator's batched power
# against its one-demand form (raise FUZZTIME locally for a longer run).
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzCurveEP -fuzztime $(FUZZTIME) ./internal/synth
	$(GO) test -run '^$$' -fuzz FuzzIdleForEP -fuzztime $(FUZZTIME) ./internal/synth
	$(GO) test -run '^$$' -fuzz FuzzSolveCurve -fuzztime $(FUZZTIME) ./internal/synth
	$(GO) test -run '^$$' -fuzz FuzzReadBinary -fuzztime $(FUZZTIME) ./internal/dataset
	$(GO) test -run '^$$' -fuzz FuzzReadCSV -fuzztime $(FUZZTIME) ./internal/dataset
	$(GO) test -run '^$$' -fuzz FuzzReadJSON -fuzztime $(FUZZTIME) ./internal/dataset
	$(GO) test -run '^$$' -fuzz FuzzParseCPUModel -fuzztime $(FUZZTIME) ./internal/microarch
	$(GO) test -run '^$$' -fuzz FuzzParseExposition -fuzztime $(FUZZTIME) ./internal/metrics
	$(GO) test -run '^$$' -fuzz FuzzReadIntensityCSV -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzReadTraceCSV -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzTheilSen -fuzztime $(FUZZTIME) ./internal/stats
	$(GO) test -run '^$$' -fuzz FuzzMedian -fuzztime $(FUZZTIME) ./internal/stats
	$(GO) test -run '^$$' -fuzz FuzzServeRequest -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzPowerAtEach -fuzztime $(FUZZTIME) ./internal/cluster

# Serve the report/figures/metrics over HTTP from the snapshot cache.
serve:
	$(GO) run ./cmd/specserved

# End-to-end API smoke check over a loopback listener.
selftest:
	$(GO) run ./cmd/specserved -selftest -no-sweeps

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/placement
	$(GO) run ./examples/hwconfig
	$(GO) run ./examples/fleet
	$(GO) run ./examples/datacenter
	$(GO) run ./examples/whatif

clean:
	rm -f report.html test_output.txt bench_output.txt
