// Package synth generates a synthetic SPECpower result set whose joint
// distribution is calibrated to every statistic the paper reports for
// the real 2007-2016Q3 submission corpus: 517 submissions of which 40
// are non-compliant; 477 valid results distributed over hardware
// availability years 2004-2016 with the paper's per-year EP/EE
// statistics, microarchitecture mix, per-codename mean EP, node/chip
// population, memory-per-core histogram (Table I), peak-efficiency
// utilization shares (Fig. 16), and published-vs-availability-year
// mismatches (74 results, 15.5%).
//
// The paper's analyses are pure functions of the dataset, so a dataset
// matching the published marginals and couplings exercises the same
// code paths and reproduces the shape of every figure. All sampling is
// driven by a caller-provided seed and is fully deterministic.
package synth

import (
	"slices"

	"repro/internal/microarch"
)

// Corpus-level counts from the paper (§I).
const (
	// TotalSubmissions is every result submitted to SPEC until 2016Q3.
	TotalSubmissions = 517
	// NonCompliantCount is the number published without efficiency data.
	NonCompliantCount = 40
	// ValidCount is the number of analyzable results.
	ValidCount = TotalSubmissions - NonCompliantCount
	// YearMismatchCount is how many valid results have a published year
	// different from their hardware availability year (15.5%).
	YearMismatchCount = 74
)

// yearPlan fixes the number of valid results per hardware availability
// year. The totals are reconstructed from the paper's cross-checkable
// statistics: 2012 holds 27.4% of all results (§IV.B); 2016 Q1-Q3 has
// 18 results (§IV.A); 2013-2016 jointly hold 112 results (the Fig. 16
// peak-shift shares 23.21%/35.71%/26.79% resolve to n·k/112); 2004-2006
// and 2014 are sparse (§III.A).
var yearPlan = map[int]int{
	2004: 2,
	2005: 3,
	2006: 4,
	2007: 35,
	2008: 48,
	2009: 55,
	2010: 47,
	2011: 40,
	2012: 131,
	2013: 71,
	2014: 8,
	2015: 15,
	2016: 18,
}

// epYearStats fixes the per-year energy proportionality distribution:
// mean and spread targets plus hard floor/ceiling, matching Fig. 3 and
// §III.A (avg 0.30 in 2005 → 0.82 in 2012 → 0.84 in 2016; the two tock
// steps 2008→09 +48.65% and 2011→12 +24.24%; the 2013-14 dip; minimum
// 0.73 in 2016; global extremes 0.18 in 2008 and 1.05 in 2012).
type epStats struct {
	mean, sigma float64
	lo, hi      float64
}

var epYearStats = map[int]epStats{
	2004: {0.33, 0.04, 0.28, 0.42},
	2005: {0.28, 0.04, 0.24, 0.36},
	2006: {0.30, 0.05, 0.25, 0.42},
	2007: {0.32, 0.05, 0.22, 0.46},
	2008: {0.375, 0.06, 0.20, 0.50},
	2009: {0.515, 0.05, 0.40, 0.70},
	2010: {0.615, 0.04, 0.42, 0.74},
	2011: {0.645, 0.04, 0.50, 0.78},
	2012: {0.775, 0.085, 0.55, 0.99},
	2013: {0.74, 0.07, 0.58, 0.88},
	2014: {0.80, 0.06, 0.60, 0.88},
	2015: {0.78, 0.05, 0.68, 0.88},
	2016: {0.83, 0.06, 0.73, 0.91},
}

// eeYearStats fixes the per-year overall-efficiency distribution
// (SPECpower score, ssj_ops per watt) matching Fig. 4's monotone growth:
// lognormal around the mean with a mild spread, clamped to the band.
type eeStats struct {
	mean   float64
	spread float64 // multiplicative sigma, e.g. 0.25 → ±25%
	lo, hi float64
}

var eeYearStats = map[int]eeStats{
	2004: {150, 0.20, 90, 220},
	2005: {180, 0.20, 110, 260},
	2006: {260, 0.22, 150, 400},
	2007: {450, 0.25, 220, 800},
	2008: {700, 0.25, 320, 1250},
	2009: {1300, 0.25, 600, 2300},
	2010: {2000, 0.25, 950, 3400},
	2011: {2800, 0.25, 1350, 4600},
	2012: {4200, 0.30, 2000, 8600},
	2013: {4900, 0.25, 2400, 7600},
	2014: {5000, 0.35, 1400, 7400},
	2015: {9500, 0.15, 7200, 12600},
	2016: {11300, 0.12, 8800, 12900},
}

// codenameMix fixes, per year, the processor generations in play and
// their weights. The induced family totals match the Fig. 6 grouping
// (Netburst 3, Core ~78, Nehalem ~137, Sandy Bridge ~152, Haswell ~65,
// Skylake and AMD making up the remainder) and the per-codename first/
// last availability years in internal/microarch.
var codenameMix = map[int][]codenameWeight{
	2004: {{microarch.Netburst, 1}},
	2005: {{microarch.Netburst, 1}, {microarch.UnknownCodename, 1}},
	2006: {{microarch.Netburst, 1}, {microarch.CoreMerom, 3}},
	2007: {{microarch.CoreMerom, 5}, {microarch.Penryn, 6}, {microarch.UnknownCodename, 1}},
	2008: {{microarch.CoreMerom, 3}, {microarch.Penryn, 7}, {microarch.Yorkfield, 2}},
	2009: {{microarch.Penryn, 1}, {microarch.Yorkfield, 0.5}, {microarch.NehalemEP, 8}, {microarch.Lynnfield, 2}},
	2010: {{microarch.NehalemEP, 3}, {microarch.NehalemEX, 1}, {microarch.Lynnfield, 1}, {microarch.Westmere, 2}, {microarch.WestmereEP, 5}},
	2011: {{microarch.WestmereEP, 4}, {microarch.Westmere, 1}, {microarch.SandyBridge, 3}, {microarch.Interlagos, 1}},
	2012: {{microarch.SandyBridge, 2}, {microarch.SandyBridgeEP, 6}, {microarch.SandyBridgeEN, 2}, {microarch.IvyBridge, 1}, {microarch.AbuDhabi, 0.5}, {microarch.Seoul, 0.5}, {microarch.Interlagos, 0.3}},
	2013: {{microarch.SandyBridgeEP, 0.8}, {microarch.IvyBridge, 1.5}, {microarch.IvyBridgeEP, 3}, {microarch.Haswell, 5.5}, {microarch.AbuDhabi, 0.75}, {microarch.Seoul, 0.75}},
	2014: {{microarch.IvyBridgeEP, 3}, {microarch.Haswell, 4}, {microarch.IvyBridge, 1}},
	2015: {{microarch.Haswell, 6}, {microarch.Broadwell, 5}, {microarch.Skylake, 2}},
	2016: {{microarch.Broadwell, 8}, {microarch.Skylake, 7}, {microarch.Haswell, 3}},
}

type codenameWeight struct {
	code   microarch.Codename
	weight float64
}

// codenameEPBias shifts a server's EP target by its processor
// generation relative to the year mean, reproducing the Fig. 7 ordering
// (Sandy Bridge EN 0.90 on top; Ivy Bridge below Sandy Bridge despite
// the finer process; Nehalem EX the family laggard; AMD mid-pack).
var codenameEPBias = map[microarch.Codename]float64{
	microarch.Netburst:        -0.02,
	microarch.CoreMerom:       -0.03,
	microarch.Penryn:          -0.03,
	microarch.Yorkfield:       +0.06,
	microarch.Lynnfield:       +0.20,
	microarch.NehalemEP:       +0.02,
	microarch.NehalemEX:       -0.14,
	microarch.Westmere:        -0.06,
	microarch.WestmereEP:      +0.03,
	microarch.SandyBridge:     -0.02,
	microarch.SandyBridgeEP:   +0.07,
	microarch.SandyBridgeEN:   +0.15,
	microarch.IvyBridge:       -0.06,
	microarch.IvyBridgeEP:     -0.02,
	microarch.Haswell:         +0.05,
	microarch.Broadwell:       +0.03,
	microarch.Skylake:         -0.09,
	microarch.Interlagos:      -0.02,
	microarch.AbuDhabi:        -0.10,
	microarch.Seoul:           -0.12,
	microarch.UnknownCodename: 0,
}

// peakSpotPlan fixes, per year, the categorical distribution of the
// utilization level where servers reach peak efficiency (Fig. 16).
// Before 2010 every server peaks at 100%; the mass then shifts to 80%
// and 70% across 2013-2016 (§IV.A: 2016 splits 3/10/5 across
// 100%/80%/70%).
var peakSpotPlan = map[int][]spotWeight{
	2010: {{1.0, 44}, {0.9, 2}, {0.8, 1}},
	2011: {{1.0, 32}, {0.9, 4}, {0.8, 3}, {0.7, 1}},
	2012: {{1.0, 88}, {0.9, 6}, {0.8, 12}, {0.7, 23}, {0.6, 2}},
	2013: {{1.0, 20}, {0.9, 3}, {0.8, 21}, {0.7, 22}, {0.6, 5}},
	2014: {{1.0, 2}, {0.8, 2}, {0.7, 3}, {0.6, 1}},
	2015: {{1.0, 3}, {0.9, 1}, {0.8, 4}, {0.7, 6}, {0.6, 1}},
	2016: {{1.0, 3}, {0.8, 10}, {0.7, 5}},
}

type spotWeight struct {
	spot   float64
	weight float64
}

// mpcBuckets fixes the Table I memory-per-core histogram: 430 of the
// 477 servers land exactly on one of the seven tabulated ratios; the
// remaining 47 scatter over other ratios.
var mpcBuckets = []struct {
	GBPerCore float64
	Count     int
}{
	{0.67, 15},
	{1.00, 153},
	{1.33, 32},
	{1.50, 68},
	{1.78, 13},
	{2.00, 123},
	{4.00, 26},
}

// TableI returns a copy of the Table I histogram the generator pins:
// each tabulated memory-per-core ratio (GB per core, two decimals) with
// the number of valid servers on it, in table order.
func TableI() []struct {
	GBPerCore float64
	Count     int
} {
	return slices.Clone(mpcBuckets)
}

// otherMPCValues are the ratios used by the 47 off-table servers.
var otherMPCValues = []float64{0.5, 0.75, 1.25, 2.67, 3.0, 5.33, 6.0, 8.0}

// mpcEPBonus and mpcEEBonus couple the memory configuration to EP and
// efficiency so the Fig. 17 ordering holds: 1.5 GB/core is the best EP
// configuration, 1.78 GB/core the best efficiency configuration.
var mpcEPBonus = map[float64]float64{
	0.67: -0.05, 1.00: -0.01, 1.33: 0.00, 1.50: +0.055, 1.78: +0.015, 2.00: +0.01, 4.00: -0.03,
}

var mpcEEBonus = map[float64]float64{
	0.67: -0.10, 1.00: -0.02, 1.33: 0.00, 1.50: +0.04, 1.78: +0.09, 2.00: +0.02, 4.00: -0.05,
}

// nodePlan fixes the multi-node population: 403 single-node servers
// (77/284/36/6 with 1/2/4/8 chips, §III.E) and 74 multi-node results.
var nodePlan = []struct {
	Nodes int
	Count int
}{
	{2, 38},
	{4, 20},
	{8, 6},
	{16, 10},
}

// singleNodeChipPlan fixes chips for the 403 single-node servers.
var singleNodeChipPlan = []struct {
	Chips int
	Count int
}{
	{1, 77},
	{2, 284},
	{4, 36},
	{8, 6},
}

// nodeEPBonus reproduces the economies-of-scale effect (Fig. 13):
// median EP rises monotonically with node count; the 8-node group is
// small and noisy enough for its average to dip.
var nodeEPBonus = map[int]float64{
	1: 0, 2: +0.03, 4: +0.05, 8: +0.055, 16: +0.13,
}

// chipEPBonus reproduces Fig. 14: 2-chip single-node servers lead;
// efficiency and proportionality fall from 2 chips to 4 and 8 (power
// density outgrows the performance gain).
var chipEPBonus = map[int]float64{
	1: -0.005, 2: +0.02, 4: -0.045, 8: -0.09,
}

// chipEEBonus biases overall efficiency by chip count (Fig. 14/15:
// 2-chip servers beat the per-year average by ~4% on EE).
var chipEEBonus = map[int]float64{
	1: -0.03, 2: +0.045, 4: -0.06, 8: -0.12,
}

// vendors supplies disclosure metadata.
var vendors = []string{
	"Hewlett-Packard", "Dell Inc.", "IBM Corporation", "Fujitsu",
	"Sugon", "Lenovo", "Acer Incorporated", "NEC Corporation",
	"Inspur Corporation", "Huawei", "SuperMicro", "Toshiba",
}

// jvms and oses supply software-stack metadata by era.
var jvms = []string{
	"IBM J9 VM", "Oracle HotSpot", "BEA JRockit", "OpenJDK",
}

var oses = []string{
	"Windows Server 2008 R2", "Windows Server 2012 R2",
	"Red Hat Enterprise Linux 6", "SUSE Linux Enterprise Server 11",
	"CentOS 7",
}

// sortedYears returns the plan years ascending.
func sortedYears() []int {
	years := make([]int, 0, len(yearPlan))
	for y := 2004; y <= 2016; y++ {
		if _, ok := yearPlan[y]; ok {
			years = append(years, y)
		}
	}
	return years
}
