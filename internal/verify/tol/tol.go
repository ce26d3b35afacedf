// Package tol is the single home of the numeric tolerance bands the
// reproduction is verified against. Two families live here:
//
//   - Default-corpus bands: tight acceptance intervals calibrated for
//     the default synthetic corpus (the one every CLI generates when no
//     dataset file is given). internal/verify's invariant engine,
//     cmd/specverify, and the seed-pinned unit tests in
//     internal/analysis and internal/synth all share them, so a band
//     can never drift apart between the engine and the tests.
//
//   - Calibration bands (Cal* prefix): the looser any-seed intervals
//     internal/synth's TestInvariantsAcrossSeeds holds seeds 2, 5, 17
//     and 101 to, wide enough that every generator seed passes while a
//     genuine calibration regression still fails. No command applies
//     them: specverify's verdicts use the default-corpus bands, which
//     are calibrated for seed 1.
//
// The package is an import leaf — it depends on nothing — so test
// packages inside the very packages internal/verify exercises can
// import it without a cycle.
package tol

// Paper targets (the published values the bands are centred on).
const (
	// CorrEPIdleTarget is the paper's corr(EP, idle%) = −0.92 (§III.D).
	CorrEPIdleTarget = -0.92
	// CorrEPEETarget is the paper's corr(EP, overall EE) = 0.741 (§IV.B).
	CorrEPEETarget = 0.741
	// Eq2ATarget and Eq2BTarget are the paper's Eq. 2 fit
	// EP = 1.2969·e^(−2.06·idle) with R² = 0.892.
	Eq2ATarget  = 1.2969
	Eq2BTarget  = -2.06
	Eq2R2Target = 0.892
	// PeakAtFullShareTarget is the paper's 69.25% of servers reaching
	// peak efficiency at 100% load (§IV.A).
	PeakAtFullShareTarget = 0.6925
	// TopDecile2012Target is the paper's 91.7% of the top-EP decile
	// built in 2012 (§IV.B).
	TopDecile2012Target = 0.917
)

// Default-corpus bands.
const (
	// CorrEPIdleMin/Max bound corr(EP, idle%) for the default corpus.
	CorrEPIdleMin = -0.98
	CorrEPIdleMax = -0.88

	// CorrEPEEMin/Max bound corr(EP, overall EE) for the default corpus.
	CorrEPEEMin = 0.60
	CorrEPEEMax = 0.82

	// Eq2MinR2 is the Eq. 2 goodness-of-fit floor for the default
	// corpus; Eq2MaxR2 guards against a degenerately perfect fit, which
	// would mean the scatter the paper reports has been lost.
	Eq2MinR2 = 0.88
	Eq2MaxR2 = 0.96

	// Eq2AMin/Max and Eq2BMin/Max bound the fitted Eq. 2 coefficients.
	Eq2AMin = 1.15
	Eq2AMax = 1.40
	Eq2BMin = -2.5
	Eq2BMax = -1.6

	// PeakAtFullShareMin/Max bound the share of valid servers with a
	// peak-efficiency spot at 100% load. Every seed tested stays
	// inside, so TestInvariantsAcrossSeeds applies this band too.
	PeakAtFullShareMin = 0.64
	PeakAtFullShareMax = 0.77

	// TopDecile2012Min floors the share of the top-EP decile built in
	// 2012. Every seed tested clears it, so TestInvariantsAcrossSeeds
	// applies it too.
	TopDecile2012Min = 0.75
)

// Calibration bands: the any-seed acceptance intervals
// TestInvariantsAcrossSeeds applies at every seed it generates.
const (
	CalCorrEPIdleMin = -0.99
	CalCorrEPIdleMax = -0.85
	CalCorrEPEEMin   = 0.55
	CalCorrEPEEMax   = 0.85
	CalEq2MinR2      = 0.80
	CalEq2AMin       = 1.1
	CalEq2AMax       = 1.45
)

// Exactness tolerances for recomputation and cross-implementation
// checks (the differential side of the invariant engine).
const (
	// CorrTolerance bounds the disagreement allowed between two
	// independent correlation implementations over the same vectors
	// (e.g. the engine's reference Pearson versus stats.Pearson).
	CorrTolerance = 0.005

	// EPRecomputeTolerance bounds |cached EP − EP recomputed from the
	// raw disclosure fields|. The two paths share the trapezoid rule but
	// not the arithmetic order, so this is a float round-off budget, not
	// a modeling band.
	EPRecomputeTolerance = 1e-9

	// RelativeEETolerance bounds the relative error between the cached
	// overall-EE score and its recomputation from raw ops/watts sums.
	RelativeEETolerance = 1e-9

	// SimpsonTolerance bounds |EP(trapezoid) − EP(Simpson)| per curve:
	// the two quadratures agree to a few thousandths on physical curves
	// (see core.Curve.EPSimpson).
	SimpsonTolerance = 0.05

	// AnchorEPTolerance bounds the deviation of the pinned extreme EPs
	// (0.18 and 1.05) from their exact targets.
	AnchorEPTolerance = 1e-6
)

// Structural bounds on per-curve scalars.
const (
	// MinEP/MaxEP bound Eq. 1 for any curve whose normalized power stays
	// within (0, peak]: the trapezoid area lies in (0, 1), so
	// EP = 2 − 2A lies in (0, 2).
	MinEP = 0.0
	MaxEP = 2.0
)
