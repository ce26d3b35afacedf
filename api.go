package repro

import (
	"io"

	"repro/internal/analysis"
	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fleetsim"
	"repro/internal/metrics"
	"repro/internal/optimize"
	"repro/internal/placement"
	"repro/internal/power"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/verify"
	"repro/internal/workload"
)

// Metric kernel (internal/core).
type (
	// Curve is a SPECpower-style power/performance curve over graduated
	// utilization levels.
	Curve = core.Curve
	// CurvePoint is one measurement interval of a curve.
	CurvePoint = core.Point
	// Interval is a closed utilization range.
	Interval = core.Interval
)

// NewCurve validates and builds a curve from measurement points.
func NewCurve(points []CurvePoint) (*Curve, error) { return core.NewCurve(points) }

// NewStandardCurve builds a curve on the standard SPECpower grid from
// an idle power reading and ten (power, ops) pairs ordered 10%..100%.
func NewStandardCurve(idleWatts float64, watts, ops []float64) (*Curve, error) {
	return core.NewStandardCurve(idleWatts, watts, ops)
}

// StandardUtilizations are the eleven SPECpower target loads.
func StandardUtilizations() []float64 {
	return append([]float64(nil), core.StandardUtilizations...)
}

// Dataset model (internal/dataset).
type (
	// Result is one SPECpower submission.
	Result = dataset.Result
	// LoadLevel is one graduated measurement interval of a result.
	LoadLevel = dataset.LoadLevel
	// Repository is a queryable result collection.
	Repository = dataset.Repository
	// FormFactor is the disclosed chassis type.
	FormFactor = dataset.FormFactor
)

// NewRepository copies results into a column store and wraps it in a
// repository. Later edits to results are not seen, and the results All
// returns are the repository's own row views, not the given pointers.
//
// The repository keeps index-aligned metric columns (EP, overall EE,
// peak EE, idle fraction, dynamic range, …) that EPs, OverallEEs,
// SortByEP, and the envelope/correlation analyses read directly. The
// columns build themselves lazily and in parallel on first use; call
// PrecomputeMetrics to pay the cold cost up front. Each row view caches
// its own validated curve and metrics on first access.
func NewRepository(results []*Result) *Repository { return dataset.NewRepository(results) }

// PrecomputeMetrics eagerly builds rp's metric columns across all CPUs,
// so subsequent column analyses run on warm columns. Optional: every
// accessor builds the columns on first use anyway.
func PrecomputeMetrics(rp *Repository) { rp.Precompute() }

// Validate checks one result against the SPEC compliance rules.
func Validate(r *Result) error { return dataset.Validate(r) }

// ReadCSV parses results from the flat CSV schema.
func ReadCSV(r io.Reader) ([]*Result, error) { return dataset.ReadCSV(r) }

// WriteCSV writes results as CSV with a header row.
func WriteCSV(w io.Writer, rs []*Result) error { return dataset.WriteCSV(w, rs) }

// ReadJSON parses a JSON array of results.
func ReadJSON(r io.Reader) ([]*Result, error) { return dataset.ReadJSON(r) }

// WriteJSON writes results as an indented JSON array.
func WriteJSON(w io.Writer, rs []*Result) error { return dataset.WriteJSON(w, rs) }

// Columnar corpus core (internal/dataset).
type (
	// ColumnStore is the struct-of-arrays corpus representation: every
	// metric and disclosure field lives in an index-aligned column, the
	// graduated load levels in flattened arrays behind an offsets table.
	// Repositories are backed by one; analyses iterate its columns
	// directly and *Result views materialize lazily per row.
	ColumnStore = dataset.ColumnStore
	// ColumnWriter streams column stores to the sectioned columnar EPFB
	// v2 encoding chunk by chunk.
	ColumnWriter = dataset.ColumnWriter
)

// BuildColumns copies result structs into a column store; its derived
// metric columns build on first use.
func BuildColumns(rs []*Result) *ColumnStore { return dataset.BuildColumns(rs) }

// NewColumnRepository wraps a column store in a repository without
// materializing result views; rows materialize lazily on access.
func NewColumnRepository(cs *ColumnStore) *Repository { return dataset.NewColumnRepository(cs) }

// ReadColumns parses a binary corpus (EPFB v2) directly into a column
// store; no result structs are built. The whole input is read into
// memory and decoded with ReadColumnsBytes.
func ReadColumns(r io.Reader) (*ColumnStore, error) { return dataset.ReadColumns(r) }

// ReadColumnsBytes parses an in-memory binary corpus into a column
// store — the fastest load path: columns are sized up front from the
// chunk framing and section payloads decode in place. The store does
// not retain data. EPFB v1 input is rejected.
func ReadColumnsBytes(data []byte) (*ColumnStore, error) { return dataset.ReadColumnsBytes(data) }

// WriteColumns writes a column store in the sectioned columnar EPFB v2
// encoding — the fleet-scale format that round-trips 100k-server
// corpora in milliseconds where CSV/JSON parse in seconds. Every float
// round-trips bit-for-bit.
func WriteColumns(w io.Writer, cs *ColumnStore) error { return dataset.WriteColumns(w, cs) }

// NewColumnWriter starts a streaming EPFB v2 encode to w; call
// WriteChunk per shard and Flush at the end.
func NewColumnWriter(w io.Writer) (*ColumnWriter, error) { return dataset.NewColumnWriter(w) }

// ReadDatasetPath loads a corpus file into a repository, sniffing the
// format: EPFB v2 binaries decode straight into columns, ".json"
// selects the JSON codec, anything else the CSV codec.
func ReadDatasetPath(path string) (*Repository, error) { return dataset.ReadPath(path) }

// Synthetic corpus (internal/synth).
type (
	// SynthConfig seeds corpus generation.
	SynthConfig = synth.Config
	// FleetConfig sizes and seeds fleet-scale corpus generation.
	FleetConfig = synth.FleetConfig
)

// GenerateCorpus produces the full 517-submission synthetic corpus
// calibrated to the paper's statistics.
func GenerateCorpus(cfg SynthConfig) (*Repository, error) { return synth.NewRepository(cfg) }

// GenerateFleet produces a fleet of cfg.Servers synthetic results
// sampled from the same calibrated plan tables as the default corpus.
// Generation shards across CPUs on fixed-size RNG streams, so the
// output depends only on the seed and fleet size — never on the worker
// count — and smaller fleets are strict prefixes of larger ones.
func GenerateFleet(cfg FleetConfig) ([]*Result, error) { return synth.GenerateFleet(cfg) }

// GenerateFleetStore produces the same fleet as GenerateFleet directly
// as a column store — no result structs are held; pair with
// NewColumnRepository for fleet-scale analyses.
func GenerateFleetStore(cfg FleetConfig) (*ColumnStore, error) {
	return synth.GenerateFleetStore(cfg)
}

// GenerateFleetShards streams the fleet shard by shard, in order, to
// fn — the bounded-memory path for writing million-server corpora to
// disk (each shard is ~1k rows; pair with a ColumnWriter). fn runs on
// the caller's goroutine, one shard at a time, while later shards
// generate in parallel.
func GenerateFleetShards(cfg FleetConfig, fn func(shard int, cs *ColumnStore) error) error {
	return synth.GenerateFleetShards(cfg, fn)
}

// FleetProfiles derives placement profiles from fleet results in
// parallel, ready for ComposeCluster and the placement planners.
func FleetProfiles(results []*Result) ([]*PlacementProfile, error) {
	return placement.Profiles(results)
}

// Analyses (internal/analysis).
type (
	YearStats         = analysis.YearStats
	FamilyCount       = analysis.FamilyCount
	CodenameStats     = analysis.CodenameStats
	GroupStats        = analysis.GroupStats
	Envelope          = analysis.Envelope
	Representative    = analysis.Representative
	MPCBucket         = analysis.MPCBucket
	Correlations      = analysis.Correlations
	IdleRegression    = analysis.IdleRegression
	AsyncStats        = analysis.AsyncStats
	TwoChipComparison = analysis.TwoChipComparison
)

// YearlyTrend computes the per-year EP/EE statistics (Fig. 2-4).
func YearlyTrend(rp *Repository) ([]YearStats, error) { return analysis.YearlyTrend(rp) }

// ByFamily groups the corpus by microarchitecture family (Fig. 6).
func ByFamily(rp *Repository) []FamilyCount { return analysis.ByFamily(rp) }

// ByCodename groups the corpus by processor codename (Fig. 7).
func ByCodename(rp *Repository) []CodenameStats { return analysis.ByCodename(rp) }

// PowerEnvelope computes the pencil-head chart band (Fig. 9).
func PowerEnvelope(rp *Repository) Envelope { return analysis.PowerEnvelope(rp) }

// EEEnvelope computes the almond chart band (Fig. 11).
func EEEnvelope(rp *Repository) Envelope { return analysis.EEEnvelope(rp) }

// ByNodes computes the node-count economies-of-scale grouping (Fig. 13).
func ByNodes(rp *Repository, minCount int) []GroupStats { return analysis.ByNodes(rp, minCount) }

// ByChips computes the single-node chip-count grouping (Fig. 14).
func ByChips(rp *Repository, minCount int) []GroupStats { return analysis.ByChips(rp, minCount) }

// MemoryPerCore buckets servers by GB/core (Table I / Fig. 17).
func MemoryPerCore(rp *Repository, minCount int) []MPCBucket {
	return analysis.MemoryPerCore(rp, minCount)
}

// ComputeCorrelations quantifies the paper's metric relationships.
func ComputeCorrelations(rp *Repository) (Correlations, error) {
	return analysis.ComputeCorrelations(rp)
}

// FitIdleRegression fits the paper's Eq. 2 over the repository.
func FitIdleRegression(rp *Repository) (IdleRegression, error) {
	return analysis.FitIdleRegression(rp)
}

// Asynchronization computes the §IV.B top-decile statistics.
func Asynchronization(rp *Repository) AsyncStats { return analysis.Asynchronization(rp) }

// Server power models and benchmark harness (internal/power,
// internal/bench).
type (
	ServerConfig = power.ServerConfig
	CPUSpec      = power.CPUSpec
	Governor     = power.Governor
	BenchConfig  = bench.Config
	BenchResult  = bench.Result
	SweepPoint   = bench.SweepPoint
	MemoryConfig = bench.MemoryConfig
)

// TableIIServers returns the paper's four modeled rack servers.
func TableIIServers() []ServerConfig { return power.TableIIServers() }

// Performance returns the governor pinned to the top P-state.
func Performance() Governor { return power.Performance() }

// OnDemand returns the governor that ramps to the top frequency while
// busy.
func OnDemand() Governor { return power.OnDemand() }

// PowerSave returns the governor pinned to the lowest P-state.
func PowerSave() Governor { return power.PowerSave() }

// UserSpace returns a governor pinned to the given frequency.
func UserSpace(freqGHz float64) Governor { return power.UserSpace(freqGHz) }

// NewBenchRunner builds a SPECpower-style benchmark runner over a
// modeled server.
func NewBenchRunner(cfg BenchConfig) (*bench.Runner, error) { return bench.NewRunner(cfg) }

// Sweep runs the benchmark across memory configurations × governors
// (the Fig. 18-21 experiments).
func Sweep(srv ServerConfig, mems []MemoryConfig, govs []Governor, seed int64) ([]SweepPoint, error) {
	return bench.Sweep(srv, mems, govs, seed)
}

// Placement engine (internal/placement).
type (
	PlacementProfile = placement.Profile
	PlacementPlan    = placement.Plan
	PlacementOptions = placement.Options
	Cluster          = placement.Cluster
)

// NewPlacementProfile derives a placement profile from a measured
// curve.
func NewPlacementProfile(id string, curve *Curve) (*PlacementProfile, error) {
	return placement.NewProfile(id, curve)
}

// BuildClusters groups profiles into EP-banded logical clusters with
// overlapping optimal working regions (§V.C).
func BuildClusters(profiles []*PlacementProfile, epBandWidth float64) ([]Cluster, error) {
	return placement.BuildClusters(profiles, epBandWidth)
}

// PlaceProportional is the §V.C strategy: engage servers at their
// optimal utilization in descending optimal-efficiency order.
func PlaceProportional(ps []*PlacementProfile, demandOps float64, opts PlacementOptions) (PlacementPlan, error) {
	return placement.PlaceProportional(ps, demandOps, opts)
}

// PackToFull is the conventional baseline: fill each server to 100%
// before engaging the next.
func PackToFull(ps []*PlacementProfile, demandOps float64, opts PlacementOptions) (PlacementPlan, error) {
	return placement.PackToFull(ps, demandOps, opts)
}

// PackOrder returns a copy of the profiles in PackToFull's engage
// order, descending full-load efficiency: the member order under which
// SimulateFleet's pack policies draw what PackToFull plans.
func PackOrder(ps []*PlacementProfile) []*PlacementProfile { return placement.PackOrder(ps) }

// SpreadEvenly is the load-balancer baseline: every server at equal
// utilization.
func SpreadEvenly(ps []*PlacementProfile, demandOps float64, opts PlacementOptions) (PlacementPlan, error) {
	return placement.SpreadEvenly(ps, demandOps, opts)
}

// MaxThroughputUnderCap maximizes fleet throughput under a power
// budget.
func MaxThroughputUnderCap(ps []*PlacementProfile, capWatts float64, opts PlacementOptions) (PlacementPlan, error) {
	return placement.MaxThroughputUnderCap(ps, capWatts, opts)
}

// Reporting (internal/report).
type ReportOptions = report.Options

// FullReport regenerates the paper's complete evaluation section.
func FullReport(rp *Repository, opts ReportOptions) (string, error) { return report.Full(rp, opts) }

// FigureIDs lists the selectors of the report table — every figure and
// table of the paper addressable by its number ("1".."17", "t1", "t2")
// plus the extension analyses ("e1", "e3".."e7").
func FigureIDs() []string { return report.FigureIDs() }

// Figure renders one selected figure as its terminal-chart form.
func Figure(rp *Repository, id string) (string, error) { return report.Figure(rp, id) }

// FigureSVG renders one selected figure as standalone SVG; figures
// without a chart form return an error wrapping report.ErrNoSVG.
func FigureSVG(rp *Repository, id string) (string, error) { return report.FigureSVG(rp, id) }

// Snapshot-cached HTTP serving (internal/serve).
type (
	// ServeConfig configures the snapshot-cached HTTP server.
	ServeConfig = serve.Config
	// ServeSnapshot is one immutable served corpus generation:
	// repository, validated subset, seed, report options, and the
	// byte-level response cache rendered from them.
	ServeSnapshot = serve.Snapshot
	// ServeKey addresses one keyed scenario in the server's
	// multi-corpus workspace: a synthesis seed, optionally with a
	// fleet size.
	ServeKey = serve.Key
)

// NewServer builds the HTTP server behind cmd/specserved: the report,
// every figure, the EP/EE/correlation metrics and the corpus listing,
// served from an immutable snapshot with coalesced renders, ETag
// revalidation and pre-compressed gzip variants. Plug
// srv.Handler() into http.ListenAndServe; srv.Reload atomically swaps
// in a new corpus seed without blocking readers.
func NewServer(cfg ServeConfig) (*serve.Server, error) { return serve.New(cfg) }

// OpenMetrics text exposition (internal/metrics).
type (
	// MetricsFamily is one metric family: name, help, type and samples.
	MetricsFamily = metrics.Family
	// MetricsSample is one labeled sample within a family.
	MetricsSample = metrics.Sample
	// MetricsLabel is one label pair on a sample.
	MetricsLabel = metrics.Label
	// MetricsType distinguishes gauge, counter and histogram families.
	MetricsType = metrics.Type
)

// MetricsContentType is the Content-Type of the OpenMetrics 1.0 text
// exposition served on /metrics.
const MetricsContentType = metrics.ContentType

// WriteOpenMetrics renders families as canonical OpenMetrics 1.0 text:
// families, samples and labels sorted, metadata before samples, `# EOF`
// terminated. Output is byte-deterministic for a given sample set.
func WriteOpenMetrics(w io.Writer, fams []MetricsFamily) error { return metrics.Write(w, fams) }

// ParseOpenMetrics parses — and strictly lints — an OpenMetrics 1.0
// text exposition, returning the families in document order.
func ParseOpenMetrics(data []byte) ([]MetricsFamily, error) { return metrics.Parse(data) }

// Cluster-wide proportionality (internal/cluster).
type (
	ClusterPolicy       = cluster.Policy
	ClusterAggregate    = cluster.Aggregate
	ClusterComparison   = cluster.Comparison
	ClusterScalingPoint = cluster.ScalingPoint
)

// Cluster load-distribution policies.
const (
	PolicySpread        = cluster.PolicySpread
	PolicyPack          = cluster.PolicyPack
	PolicyPackPowerOff  = cluster.PolicyPackPowerOff
	PolicyOptimalRegion = cluster.PolicyOptimalRegion
)

// ComposeCluster builds the aggregate power-utilization curve of a
// server group under a load-distribution policy.
func ComposeCluster(members []*PlacementProfile, policy ClusterPolicy) (ClusterAggregate, error) {
	return cluster.Compose(members, policy)
}

// CompareClusterPolicies evaluates cluster-wide EP under every policy.
func CompareClusterPolicies(members []*PlacementProfile) (ClusterComparison, error) {
	return cluster.Compare(members)
}

// ClusterScalingStudy replicates one server into clusters of the given
// sizes and reports cluster EP — the computational counterpart of the
// paper's Fig. 13.
func ClusterScalingStudy(prototype *PlacementProfile, sizes []int, policy ClusterPolicy) ([]ClusterScalingPoint, error) {
	return cluster.ScalingStudy(prototype, sizes, policy)
}

// Demand traces (internal/trace).
type (
	Trace         = trace.Trace
	DiurnalConfig = trace.DiurnalConfig
	BurstyConfig  = trace.BurstyConfig
)

// DiurnalTrace synthesizes a day/night demand pattern.
func DiurnalTrace(cfg DiurnalConfig) (*Trace, error) { return trace.Diurnal(cfg) }

// BurstyTrace synthesizes a flash-crowd demand pattern: Poisson burst
// arrivals with exponential decay over a flat base load.
func BurstyTrace(cfg BurstyConfig) (*Trace, error) { return trace.Bursty(cfg) }

// ReadTraceCSV parses a demand trace from CSV (one demand column, or
// time,demand pairs; optional header) at the given sampling period.
func ReadTraceCSV(r io.Reader, stepSeconds float64) (*Trace, error) {
	return trace.ReadCSV(r, stepSeconds)
}

// Streaming fleet simulation (internal/fleetsim): a time-stepped
// replay of a demand trace against a composed fleet with online
// power management (on/off transitions, hysteresis) and incremental
// per-step cluster state — O(log n) per step instead of an O(n)
// recompose.
type (
	FleetSimConfig  = fleetsim.Config
	FleetSimPower   = fleetsim.PowerConfig
	FleetSimLatency = fleetsim.LatencyConfig
	FleetSimStep    = fleetsim.StepStats
	FleetSimResult  = fleetsim.Result
	FleetSimStepper = fleetsim.Stepper
)

// SimulateFleet replays cfg.Trace against cfg.Members. Trace segments
// shard across CPUs and stitch deterministically: the result (and
// every StepStats emitted through cfg.Sink, in step order) is
// byte-identical at any worker count.
func SimulateFleet(cfg FleetSimConfig) (FleetSimResult, error) { return fleetsim.Run(cfg) }

// NewFleetStepper builds the incremental simulator core directly for
// callers that want to drive steps themselves (live dashboards, custom
// accounting); feed it trace demands in order via Step.
func NewFleetStepper(cfg FleetSimConfig) (*FleetSimStepper, error) { return fleetsim.NewStepper(cfg) }

// Composition-space what-if optimization (internal/optimize): search
// over fleet compositions — counts per server model crossed with pack
// policy — minimizing trace-weighted energy, cost, or carbon. Grouped
// evaluators, a compressed demand histogram, and an admissible
// lower-bound pruner make tens of thousands of candidates per second;
// the top-k shortlist is re-ranked by exact fleet simulation. Results
// are byte-identical at any worker count.
type (
	OptimizeConfig    = optimize.Config
	OptimizeObjective = optimize.Objective
	OptimizeMetric    = optimize.Metric
	OptimizeCandidate = optimize.Candidate
	OptimizeResult    = optimize.Result
	// FleetGroup is a homogeneous run of identical servers — the
	// multiset input shared by NewGroupedEvaluator, FleetSimConfig's
	// Groups field, and the optimizer's candidates.
	FleetGroup = placement.Group
)

// Optimization metrics.
const (
	MetricEnergy = optimize.MetricEnergy
	MetricCost   = optimize.MetricCost
	MetricCarbon = optimize.MetricCarbon
)

// OptimizeComposition searches fleet-composition space for the
// candidate minimizing cfg.Objective over cfg.Trace.
func OptimizeComposition(cfg OptimizeConfig) (OptimizeResult, error) {
	return optimize.OptimizeComposition(cfg)
}

// ParseOptimizeMetric resolves a metric name (energy, cost, carbon).
func ParseOptimizeMetric(s string) (OptimizeMetric, error) { return optimize.ParseMetric(s) }

// Transaction-level workload simulation (internal/workload).
type (
	WorkloadConfig  = workload.Config
	WorkloadMetrics = workload.Metrics
	TxType          = workload.TxType
	TxMix           = workload.Mix
)

// Benchmark fidelity levels.
const (
	FidelityFast        = bench.FidelityFast
	FidelityTransaction = bench.FidelityTransaction
)

// SimulateWorkload runs one transaction-level measurement interval.
func SimulateWorkload(cfg WorkloadConfig) (WorkloadMetrics, error) { return workload.Simulate(cfg) }

// DefaultTxMix returns the published ssj_2008 transaction mix.
func DefaultTxMix() TxMix { return workload.DefaultMix() }

// Extension analyses.
type (
	GapRow     = analysis.GapRow
	GapSummary = analysis.GapSummary
	EraRate    = analysis.EraRate
	Breakdown  = power.Breakdown
	Component  = power.Component
)

// ProportionalityGapByYear quantifies the low-utilization gap trend
// (extension E1).
func ProportionalityGapByYear(rp *Repository) ([]GapRow, error) {
	return analysis.ProportionalityGapByYear(rp)
}

// ImprovementRates fits robust per-era EP/EE improvement rates
// (extension E4).
func ImprovementRates(rp *Repository, eras [][2]int) ([]EraRate, error) {
	return analysis.ImprovementRates(rp, eras)
}

// Disclosure renders one result in the style of a published SPECpower
// disclosure.
func Disclosure(r *Result) (string, error) { return report.Disclosure(r) }

// Energy cost and carbon accounting (internal/trace).
type (
	Tariff = trace.Tariff
	Bill   = trace.Bill
)

// Time-varying rate signals and carbon-aware optimization
// (internal/trace, internal/optimize).
type (
	// IntensityProfile is a periodic time-varying rate signal: grid
	// carbon intensity (kgCO2/kWh) or electricity price (USD/kWh).
	// Attach one to FleetSimConfig for per-step billing or to
	// OptimizeObjective to price the composition search.
	IntensityProfile = trace.IntensityProfile
	// IntensityConfig parameterizes the synthetic intensity shapes.
	IntensityConfig = trace.IntensityConfig
	// TraceHist2D is the trace fold of CompressTrace2D: the weighted
	// demand histogram, crossed with any rate signals so trace-weighted
	// cost/carbon under a time-varying rate becomes a double sum over
	// its cells.
	TraceHist2D = trace.Hist2D
	// OptimizeRegion is one candidate siting region — a tariff plus
	// optional time-varying profiles; the optimizer scores every
	// candidate at its cheapest region in a single pass.
	OptimizeRegion = optimize.Region
	// EmbodiedCarbon amortizes per-server manufacturing carbon over a
	// service lifetime into the carbon objective.
	EmbodiedCarbon = optimize.Embodied
)

// DiurnalIntensity synthesizes the sinusoidal day/night grid-intensity
// profile (dirtiest at the evening peak, cleanest in the small hours).
func DiurnalIntensity(cfg IntensityConfig) (*IntensityProfile, error) {
	return trace.DiurnalIntensity(cfg)
}

// DuckCurveIntensity synthesizes the solar duck curve: the diurnal
// evening peak plus a midday trough where solar displaces fossil
// generation.
func DuckCurveIntensity(cfg IntensityConfig) (*IntensityProfile, error) {
	return trace.DuckCurveIntensity(cfg)
}

// ReadIntensityCSV parses an intensity (or price) profile from CSV (one
// rate column, or time,rate pairs; optional header) at the given
// sampling period.
func ReadIntensityCSV(r io.Reader, stepSeconds float64) (*IntensityProfile, error) {
	return trace.ReadIntensityCSV(r, stepSeconds)
}

// CompressTrace2D folds a demand trace, jointly with zero or more
// aligned rate signals (see IntensityProfile.Align), into the histogram
// the composition optimizer scores against. With no rate signal it is
// the plain demand histogram, and a constant rate signal leaves the
// demand cells bit-identical to it.
func CompressTrace2D(tr *Trace, bins, rateBins int, rateSets ...[]float64) (*TraceHist2D, error) {
	return tr.Compress2D(bins, rateBins, rateSets...)
}

// DefaultEmbodiedCarbon returns the reference per-server embodied model
// (1300 kgCO2e amortized over a 4-year service life).
func DefaultEmbodiedCarbon() EmbodiedCarbon { return optimize.DefaultEmbodied() }

// DefaultTariff returns a typical 2016 US datacenter tariff.
func DefaultTariff() Tariff { return trace.DefaultTariff() }

// AnnualizedBill scales a bill measured over traceDays to a 365-day
// year.
func AnnualizedBill(b Bill, traceDays float64) (Bill, error) {
	return trace.AnnualizedBill(b, traceDays)
}

// FitServer builds a component-level power model approximating a
// measured single-node result, enabling what-if simulation (different
// memory or frequencies) on any corpus server.
func FitServer(r *Result) (ServerConfig, error) { return power.FitServer(r) }

// Projection is the forward extrapolation of the corpus trends.
type Projection = analysis.Projection

// ProjectTrends extrapolates EP/EE past 2016 from the post-dip era
// rates and the Eq. 2 fit (extension E6).
func ProjectTrends(rp *Repository, targetYear int) (Projection, error) {
	return analysis.ProjectTrends(rp, targetYear)
}

// The paper-invariant verification engine (cmd/specverify drives it;
// internal/verify houses the registry).
type (
	// VerifyReport is the outcome of one invariant run: per-check
	// findings plus pass/fail tallies.
	VerifyReport = verify.Report
	// VerifyFinding is one invariant's measured outcome.
	VerifyFinding = verify.Finding
	// VerifyInvariant is one registered check (name, category, doc).
	VerifyInvariant = verify.Invariant
	// VerifyCategory selects structural, metric or differential checks.
	VerifyCategory = verify.Category
)

// Verify generates the calibrated synthetic corpus at seed and runs
// every registered paper invariant over it: structural counts, metric
// recomputations against the paper's published numbers, and
// differential cross-checks of caches, worker schedules and the
// serving layer.
func Verify(seed int64) (*VerifyReport, error) { return verify.Synthetic(seed) }

// VerifyCorpus runs the invariant registry over an already-loaded
// repository. Generation-dependent invariants are skipped.
func VerifyCorpus(rp *Repository, seed int64) *VerifyReport { return verify.Corpus(rp, seed) }

// VerifyInvariants lists the registered invariants without running
// them.
func VerifyInvariants() []VerifyInvariant { return verify.Registry() }

// KnightShift composes a primary server with a low-power companion that
// serves low loads — the related work's server-level heterogeneity
// (refs [17]/[40]) — and returns the combined power-utilization curve.
func KnightShift(primary, knight *PlacementProfile, primaryOff bool) (ClusterAggregate, error) {
	return cluster.KnightShift(primary, knight, primaryOff)
}

// MaxRateUnderSLA finds the highest sustainable arrival rate whose
// simulated p99 latency meets the SLA; divide by capacity to obtain a
// PlacementProfile.UtilizationCap for latency-critical servers.
func MaxRateUnderSLA(cfg WorkloadConfig, slaP99Seconds float64) (float64, error) {
	return workload.MaxRateUnderSLA(cfg, slaP99Seconds)
}
