# Standard targets for the reproduction repository.

GO ?= go

.PHONY: all check fmt build vet test race bench fleetbench colbench simbench optbench carbonbench servebench report report-html verify calibrate fuzz serve selftest examples clean

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

# Columnar-core smoke: one iteration of the 10k/100k generate, load
# (EPFB v1 vs v2), and full-report benchmarks. The 1M variants are
# excluded to keep the CI run short; run them by hand with
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
# naive benchmarks (BenchmarkOptimizeGrouped scores all 16,806
# candidates of a 5-model space against a 1-minute week and must stay
# <= 1 s single-threaded; see BENCH_optimize.json for the recorded
# before/after matrix).
optbench:
	$(GO) test -run '^$$' -bench 'BenchmarkOptimize' -benchtime 1x ./internal/optimize

# Carbon-aware-optimizer smoke: one iteration each of the static-rate
# baseline, the 2-D demand×intensity fold (all 16,806 candidates under
# a diurnal grid profile; must stay ≤ 2× the static time), and the
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
# failure). `make calibrate` is the older, looser calibration table.
verify:
	$(GO) run ./cmd/specverify -seed 1

# Check the synthetic corpus against every paper target (any-seed bands).
calibrate:
	$(GO) run ./cmd/specgen -verify -q

# Fuzz the EP metric kernel, the curve solvers and the demand-trace
# CSV parser for a short burst each (CI smoke; raise FUZZTIME locally
# for a real session).
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzCurveEP -fuzztime $(FUZZTIME) ./internal/synth
	$(GO) test -run '^$$' -fuzz FuzzIdleForEP -fuzztime $(FUZZTIME) ./internal/synth
	$(GO) test -run '^$$' -fuzz FuzzReadTraceCSV -fuzztime $(FUZZTIME) ./internal/trace

# Serve the report/figures/metrics over HTTP from the snapshot cache.
serve:
	$(GO) run ./cmd/specserved

# End-to-end API smoke check + load benchmark over a loopback listener.
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
