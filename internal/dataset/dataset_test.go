package dataset

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/microarch"
)

// validResult builds a compliant linear-power result for tests.
func validResult(id string) *Result {
	r := &Result{
		ID:               id,
		Vendor:           "Acme Systems",
		System:           "Acme R2000",
		FormFactor:       FormRack,
		PublishedYear:    2015,
		PublishedQuarter: 2,
		HWAvailYear:      2015,
		HWAvailQuarter:   1,
		Nodes:            1,
		Chips:            2,
		CoresPerChip:     8,
		CPUModel:         "Intel Xeon E5-2640 v3",
		Codename:         microarch.Haswell,
		NominalGHz:       2.6,
		MemoryGB:         32,
		JVM:              "AcmeJDK 8",
		OS:               "AcmeLinux 7",
		ActiveIdleWatts:  45,
	}
	r.Levels = make([]LoadLevel, 10)
	for i := 0; i < 10; i++ {
		u := float64(i+1) / 10
		r.Levels[i] = LoadLevel{
			TargetLoad:    u,
			ActualLoad:    u + 0.005,
			OpsPerSec:     1e6 * u,
			AvgPowerWatts: 45 + 255*u,
		}
	}
	return r
}

func TestResultDerivedFields(t *testing.T) {
	r := validResult("r1")
	if got := r.TotalCores(); got != 16 {
		t.Errorf("TotalCores = %d, want 16", got)
	}
	if got := r.MemoryPerCore(); got != 2 {
		t.Errorf("MemoryPerCore = %v, want 2", got)
	}
	if got := r.ChipsPerNode(); got != 2 {
		t.Errorf("ChipsPerNode = %d, want 2", got)
	}
	zero := &Result{}
	if zero.MemoryPerCore() != 0 || zero.ChipsPerNode() != 0 {
		t.Error("zero-value result should not divide by zero")
	}
}

func TestResultCurveAndMetrics(t *testing.T) {
	r := validResult("r1")
	c, err := r.Curve()
	if err != nil {
		t.Fatal(err)
	}
	if c.NumLevels() != 11 {
		t.Errorf("NumLevels = %d", c.NumLevels())
	}
	// Linear curve with idle fraction 45/300 = 0.15 → EP = 0.85.
	if ep := r.EP(); math.Abs(ep-0.85) > 1e-9 {
		t.Errorf("EP = %v, want 0.85", ep)
	}
	if r.OverallEE() <= 0 {
		t.Error("OverallEE should be positive")
	}
}

func TestResultCurveInvalid(t *testing.T) {
	r := validResult("bad")
	r.Levels = r.Levels[:5]
	if _, err := r.Curve(); err == nil {
		t.Error("truncated levels: expected curve error")
	}
	if r.EP() != 0 || r.OverallEE() != 0 {
		t.Error("invalid curve should yield zero metrics")
	}
}

func TestMustCurvePanics(t *testing.T) {
	r := validResult("bad")
	r.ActiveIdleWatts = -1
	defer func() {
		if recover() == nil {
			t.Fatal("MustCurve on invalid result did not panic")
		}
	}()
	r.MustCurve()
}

func TestClone(t *testing.T) {
	r := validResult("r1")
	c := r.Clone()
	c.Levels[0].AvgPowerWatts = 1
	c.Vendor = "Other"
	if r.Levels[0].AvgPowerWatts == 1 || r.Vendor == "Other" {
		t.Error("Clone shares state with original")
	}
}

func TestValidateAcceptsCompliant(t *testing.T) {
	if err := Validate(validResult("ok")); err != nil {
		t.Fatalf("valid result rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Result)
	}{
		{"missing id", func(r *Result) { r.ID = "" }},
		{"nine levels", func(r *Result) { r.Levels = r.Levels[:9] }},
		{"wrong target", func(r *Result) { r.Levels[3].TargetLoad = 0.45 }},
		{"zero power", func(r *Result) { r.Levels[2].AvgPowerWatts = 0 }},
		{"zero ops", func(r *Result) { r.Levels[2].OpsPerSec = 0 }},
		{"load deviation", func(r *Result) { r.Levels[4].ActualLoad = 0.6 }},
		{"ops not increasing", func(r *Result) { r.Levels[5].OpsPerSec = r.Levels[4].OpsPerSec }},
		{"zero idle", func(r *Result) { r.ActiveIdleWatts = 0 }},
		{"idle above peak", func(r *Result) { r.ActiveIdleWatts = 1000 }},
		{"hw year early", func(r *Result) { r.HWAvailYear = 2003 }},
		{"hw year late", func(r *Result) { r.HWAvailYear = 2017 }},
		{"pub year early", func(r *Result) { r.PublishedYear = 2006 }},
		{"pub quarter", func(r *Result) { r.PublishedQuarter = 5 }},
		{"hw quarter", func(r *Result) { r.HWAvailQuarter = 0 }},
		{"zero nodes", func(r *Result) { r.Nodes = 0 }},
		{"chips not multiple", func(r *Result) { r.Nodes = 3; r.Chips = 4 }},
		{"zero cores", func(r *Result) { r.CoresPerChip = 0 }},
		{"zero memory", func(r *Result) { r.MemoryGB = 0 }},
		{"NaN power", func(r *Result) { r.Levels[4].AvgPowerWatts = math.NaN() }},
		{"NaN ops", func(r *Result) { r.Levels[9].OpsPerSec = math.NaN() }},
		{"NaN target", func(r *Result) { r.Levels[2].TargetLoad = math.NaN() }},
		{"NaN actual load", func(r *Result) { r.Levels[2].ActualLoad = math.NaN() }},
		{"NaN idle", func(r *Result) { r.ActiveIdleWatts = math.NaN() }},
		{"NaN memory", func(r *Result) { r.MemoryGB = math.NaN() }},
		{"+Inf power", func(r *Result) { r.Levels[9].AvgPowerWatts = math.Inf(1) }},
		{"+Inf ops", func(r *Result) { r.Levels[9].OpsPerSec = math.Inf(1) }},
		{"+Inf memory", func(r *Result) { r.MemoryGB = math.Inf(1) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := validResult("x")
			tt.mutate(r)
			err := Validate(r)
			if err == nil {
				t.Fatal("expected rejection")
			}
			if !errors.Is(err, ErrNonCompliant) {
				t.Fatalf("error %v does not wrap ErrNonCompliant", err)
			}
			if IsCompliant(r) {
				t.Error("IsCompliant disagrees with Validate")
			}
		})
	}
}

// TestValidateReadsFullWidthIntegers pins Validate's verdict and text
// for integer fields beyond int32, which the column store's int32
// columns would wrap.
func TestValidateReadsFullWidthIntegers(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Result)
		want   string // the message after the result ID; "" for compliant
	}{
		{"hw year", func(r *Result) { r.HWAvailYear = 2010 + 1<<32 },
			"hardware availability year 4294969306 outside [2004, 2016]"},
		{"cores per chip", func(r *Result) { r.CoresPerChip = 1 << 32 }, ""},
		{"nodes", func(r *Result) { r.Nodes = 1 << 32 },
			"chip count 2 not a positive multiple of 4294967296 nodes"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := validResult("x")
			tt.mutate(r)
			err := Validate(r)
			if tt.want == "" {
				if err != nil {
					t.Fatalf("compliant result rejected: %v", err)
				}
				return
			}
			if want := "dataset: non-compliant result: x: " + tt.want; err == nil || err.Error() != want {
				t.Fatalf("Validate = %v, want %q", err, want)
			}
		})
	}
}

func TestRepositoryFilters(t *testing.T) {
	a := validResult("a") // 2015, 1 node
	b := validResult("b")
	b.HWAvailYear = 2012
	b.PublishedYear = 2013
	b.Nodes = 4
	b.Chips = 4
	c := validResult("c")
	c.ActiveIdleWatts = 0 // non-compliant

	rp := NewRepository([]*Result{a, b, c})
	if rp.Len() != 3 {
		t.Fatalf("Len = %d", rp.Len())
	}
	if got := rp.Valid().Len(); got != 2 {
		t.Errorf("Valid = %d, want 2", got)
	}
	if got := rp.NonCompliant().Len(); got != 1 {
		t.Errorf("NonCompliant = %d, want 1", got)
	}
	if got := rp.SingleNode().Len(); got != 2 {
		t.Errorf("SingleNode = %d, want 2", got)
	}
	if got := rp.MultiNode().Len(); got != 1 {
		t.Errorf("MultiNode = %d, want 1", got)
	}
	if got := rp.YearRange(2012, 2012).Len(); got != 1 {
		t.Errorf("YearRange = %d, want 1", got)
	}
	if got := rp.YearMismatched().Len(); got != 1 {
		t.Errorf("YearMismatched = %d, want 1", got)
	}
}

func TestRepositoryGroupings(t *testing.T) {
	a := validResult("a")
	b := validResult("b")
	b.HWAvailYear = 2012
	b.Codename = microarch.SandyBridgeEP
	b.Chips = 4
	rp := NewRepository([]*Result{a, b})

	byYear := rp.ByHWYear()
	if len(byYear[2015]) != 1 || len(byYear[2012]) != 1 {
		t.Errorf("ByHWYear = %v", byYear)
	}
	byFam := rp.ByFamily()
	if len(byFam[microarch.FamilyHaswell]) != 1 || len(byFam[microarch.FamilySandyBridge]) != 1 {
		t.Errorf("ByFamily sizes wrong")
	}
	byCode := rp.ByCodename()
	if len(byCode[microarch.Haswell]) != 1 {
		t.Errorf("ByCodename sizes wrong")
	}
	byChips := rp.ByChips()
	if len(byChips[2]) != 1 || len(byChips[4]) != 1 {
		t.Errorf("ByChips sizes wrong")
	}
	years := rp.HWYears()
	if len(years) != 2 || years[0] != 2012 || years[1] != 2015 {
		t.Errorf("HWYears = %v", years)
	}
}

func TestRepositoryMetricsAndSort(t *testing.T) {
	a := validResult("a") // EP 0.85
	b := validResult("b")
	for i := range b.Levels {
		b.Levels[i].AvgPowerWatts = 300 // flat power → EP 0
	}
	b.ActiveIdleWatts = 299
	rp := NewRepository([]*Result{a, b})
	eps := rp.EPs()
	if len(eps) != 2 || eps[0] <= eps[1] {
		t.Errorf("EPs = %v", eps)
	}
	sorted := rp.SortByEP()
	if sorted[0].ID != "b" || sorted[1].ID != "a" {
		t.Errorf("SortByEP order = %s, %s", sorted[0].ID, sorted[1].ID)
	}
	ees := rp.OverallEEs()
	if len(ees) != 2 || ees[0] <= ees[1] {
		t.Errorf("OverallEEs = %v", ees)
	}
}

func TestRepositoryAllIsCopy(t *testing.T) {
	rp := NewRepository([]*Result{validResult("a")})
	all := rp.All()
	all[0] = nil
	if rp.All()[0] == nil {
		t.Error("All() exposes internal slice")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	in := []*Result{validResult("r1"), validResult("r2")}
	in[1].Codename = microarch.UnknownCodename
	in[1].FormFactor = FormMultiNode
	in[1].Nodes = 2
	in[1].Chips = 4

	var buf bytes.Buffer
	if err := WriteCSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("round trip count = %d", len(out))
	}
	for i := range in {
		if in[i].ID != out[i].ID || in[i].Codename != out[i].Codename ||
			in[i].FormFactor != out[i].FormFactor || in[i].Nodes != out[i].Nodes {
			t.Errorf("result %d metadata mismatch: %+v vs %+v", i, in[i], out[i])
		}
		if math.Abs(in[i].EP()-out[i].EP()) > 1e-12 {
			t.Errorf("result %d EP drifted across CSV round trip", i)
		}
		for j := range in[i].Levels {
			if in[i].Levels[j] != out[i].Levels[j] {
				t.Errorf("result %d level %d mismatch", i, j)
			}
		}
	}
}

func TestCSVRejectsBadHeader(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("foo,bar\n")); err == nil {
		t.Error("bad header accepted")
	}
}

func TestCSVRejectsBadField(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, []*Result{validResult("r1")}); err != nil {
		t.Fatal(err)
	}
	corrupted := strings.Replace(buf.String(), "2015", "not-a-year", 1)
	if _, err := ReadCSV(strings.NewReader(corrupted)); err == nil {
		t.Error("corrupt year accepted")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	in := []*Result{validResult("r1")}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].ID != "r1" || len(out[0].Levels) != 10 {
		t.Fatalf("round trip = %+v", out)
	}
	if math.Abs(in[0].EP()-out[0].EP()) > 1e-12 {
		t.Error("EP drifted across JSON round trip")
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{nope")); err == nil {
		t.Error("garbage JSON accepted")
	}
}

func TestFormFactorRoundTrip(t *testing.T) {
	for _, f := range []FormFactor{FormRack, FormTower, FormBlade, FormMultiNode} {
		got, err := ParseFormFactor(f.String())
		if err != nil || got != f {
			t.Errorf("round trip %v: got %v, err %v", f, got, err)
		}
	}
	if FormFactor(99).String() != "Unknown" {
		t.Error("unknown form factor String")
	}
	if _, err := ParseFormFactor("Mainframe"); err == nil {
		t.Error("unknown form factor accepted")
	}
}
