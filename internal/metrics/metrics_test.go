package metrics

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// writeString renders families or fails the test.
func writeString(t *testing.T, fams []Family) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, fams); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.String()
}

// TestWriteCanonicalForm pins the exposition shape: HELP/TYPE/UNIT
// metadata, sorted families, sorted samples, counter _total suffix,
// histogram series (buckets by ascending le, then _count and _sum),
// and the EOF terminator.
func TestWriteCanonicalForm(t *testing.T) {
	fams := []Family{
		{
			Name: "spec_fleet_power_watts", Help: "Fleet power.", Unit: "watts", Type: TypeGauge,
			Samples: []Sample{
				{Labels: []Label{{"policy", "spread"}, {"corpus", "seed=1"}}, Value: 1234.5},
				{Labels: []Label{{"policy", "pack"}, {"corpus", "seed=1"}}, Value: 1000},
			},
		},
		{
			Name: "spec_serve_requests", Help: "Requests served.", Type: TypeCounter,
			Samples: []Sample{{Labels: []Label{{"endpoint", "report"}}, Value: 3}},
		},
		{
			Name: "spec_serve_request_duration_seconds", Help: "Latency.", Unit: "seconds", Type: TypeHistogram,
			Samples: []Sample{
				{Labels: []Label{{"endpoint", "scrape"}}, Value: 0.5,
					Buckets: []Bucket{{0.001, 0}, {math.Inf(1), 1}}},
				{Labels: []Label{{"endpoint", "report"}}, Value: 0.0125,
					Buckets: []Bucket{{0.001, 1}, {0.01, 2}, {math.Inf(1), 3}}},
			},
		},
	}
	want := strings.Join([]string{
		"# HELP spec_fleet_power_watts Fleet power.",
		"# TYPE spec_fleet_power_watts gauge",
		"# UNIT spec_fleet_power_watts watts",
		`spec_fleet_power_watts{corpus="seed=1",policy="pack"} 1000`,
		`spec_fleet_power_watts{corpus="seed=1",policy="spread"} 1234.5`,
		"# HELP spec_serve_request_duration_seconds Latency.",
		"# TYPE spec_serve_request_duration_seconds histogram",
		"# UNIT spec_serve_request_duration_seconds seconds",
		`spec_serve_request_duration_seconds_bucket{endpoint="report",le="0.001"} 1`,
		`spec_serve_request_duration_seconds_bucket{endpoint="report",le="0.01"} 2`,
		`spec_serve_request_duration_seconds_bucket{endpoint="report",le="+Inf"} 3`,
		`spec_serve_request_duration_seconds_count{endpoint="report"} 3`,
		`spec_serve_request_duration_seconds_sum{endpoint="report"} 0.0125`,
		`spec_serve_request_duration_seconds_bucket{endpoint="scrape",le="0.001"} 0`,
		`spec_serve_request_duration_seconds_bucket{endpoint="scrape",le="+Inf"} 1`,
		`spec_serve_request_duration_seconds_count{endpoint="scrape"} 1`,
		`spec_serve_request_duration_seconds_sum{endpoint="scrape"} 0.5`,
		"# HELP spec_serve_requests Requests served.",
		"# TYPE spec_serve_requests counter",
		`spec_serve_requests_total{endpoint="report"} 3`,
		"# EOF",
		"",
	}, "\n")
	if got := writeString(t, fams); got != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestWriteDeterministic: shuffled family/sample/label order renders
// the identical bytes.
func TestWriteDeterministic(t *testing.T) {
	a := []Family{
		{Name: "b_gauge", Type: TypeGauge, Samples: []Sample{
			{Labels: []Label{{"y", "2"}, {"x", "1"}}, Value: 2},
			{Labels: []Label{{"x", "0"}}, Value: 1},
		}},
		{Name: "a_gauge", Type: TypeGauge, Samples: []Sample{{Value: 7}}},
	}
	b := []Family{
		{Name: "a_gauge", Type: TypeGauge, Samples: []Sample{{Value: 7}}},
		{Name: "b_gauge", Type: TypeGauge, Samples: []Sample{
			{Labels: []Label{{"x", "0"}}, Value: 1},
			{Labels: []Label{{"x", "1"}, {"y", "2"}}, Value: 2},
		}},
	}
	if got, want := writeString(t, a), writeString(t, b); got != want {
		t.Fatalf("orderings rendered differently:\n%s\nvs\n%s", got, want)
	}
}

// TestWriteEscaping covers label-value and HELP escaping.
func TestWriteEscaping(t *testing.T) {
	fams := []Family{{
		Name: "g", Help: "line one\nline \\ two", Type: TypeGauge,
		Samples: []Sample{{Labels: []Label{{"l", "a\"b\\c\nd"}}, Value: 1}},
	}}
	out := writeString(t, fams)
	if !strings.Contains(out, `# HELP g line one\nline \\ two`) {
		t.Fatalf("HELP not escaped:\n%s", out)
	}
	if !strings.Contains(out, `g{l="a\"b\\c\nd"} 1`) {
		t.Fatalf("label value not escaped:\n%s", out)
	}
	// The escaped form must round-trip to the original value.
	fams2, err := Parse([]byte(out))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if fams2[0].Help != fams[0].Help {
		t.Fatalf("HELP round-trip %q != %q", fams2[0].Help, fams[0].Help)
	}
	if got := fams2[0].Samples[0].Labels[0].Value; got != "a\"b\\c\nd" {
		t.Fatalf("label round-trip %q", got)
	}
}

// TestWriteSpecialValues covers the non-finite spellings (gauges only —
// counters must stay finite and non-negative).
func TestWriteSpecialValues(t *testing.T) {
	out := writeString(t, []Family{{Name: "g", Type: TypeGauge, Samples: []Sample{
		{Labels: []Label{{"k", "nan"}}, Value: math.NaN()},
		{Labels: []Label{{"k", "pinf"}}, Value: math.Inf(1)},
		{Labels: []Label{{"k", "ninf"}}, Value: math.Inf(-1)},
	}}})
	for _, want := range []string{`g{k="nan"} NaN`, `g{k="pinf"} +Inf`, `g{k="ninf"} -Inf`} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if _, err := Parse([]byte(out)); err != nil {
		t.Fatalf("special values do not parse: %v", err)
	}
}

// TestWriteRejects pins the writer's validation errors.
func TestWriteRejects(t *testing.T) {
	cases := map[string][]Family{
		"bad family name":   {{Name: "1bad", Type: TypeGauge}},
		"empty family name": {{Name: "", Type: TypeGauge}},
		"duplicate family":  {{Name: "g", Type: TypeGauge}, {Name: "g", Type: TypeGauge}},
		"unit mismatch":     {{Name: "g_bytes", Unit: "watts", Type: TypeGauge}},
		"negative counter":  {{Name: "c", Type: TypeCounter, Samples: []Sample{{Value: -1}}}},
		"NaN counter":       {{Name: "c", Type: TypeCounter, Samples: []Sample{{Value: math.NaN()}}}},
		"bad label name":    {{Name: "g", Type: TypeGauge, Samples: []Sample{{Labels: []Label{{"0x", "v"}}, Value: 1}}}},
		"reserved label":    {{Name: "g", Type: TypeGauge, Samples: []Sample{{Labels: []Label{{"__x", "v"}}, Value: 1}}}},
		"duplicate label":   {{Name: "g", Type: TypeGauge, Samples: []Sample{{Labels: []Label{{"x", "a"}, {"x", "b"}}, Value: 1}}}},
		"duplicate sample": {{Name: "g", Type: TypeGauge, Samples: []Sample{
			{Labels: []Label{{"x", "a"}}, Value: 1},
			{Labels: []Label{{"x", "a"}}, Value: 2},
		}}},
		"counter name collision": {
			{Name: "c", Type: TypeCounter, Samples: []Sample{{Value: 1}}},
			{Name: "c_total", Type: TypeGauge, Samples: []Sample{{Value: 1}}},
		},
		"histogram name collision": {
			{Name: "h", Type: TypeHistogram, Samples: []Sample{{Buckets: []Bucket{{math.Inf(1), 1}}}}},
			{Name: "h_count", Type: TypeGauge, Samples: []Sample{{Value: 1}}},
		},
		"histogram without +Inf bucket": {{Name: "h", Type: TypeHistogram, Samples: []Sample{
			{Buckets: []Bucket{{1, 1}}},
		}}},
		"histogram decreasing counts": {{Name: "h", Type: TypeHistogram, Samples: []Sample{
			{Buckets: []Bucket{{1, 2}, {math.Inf(1), 1}}},
		}}},
		"histogram non-ascending bounds": {{Name: "h", Type: TypeHistogram, Samples: []Sample{
			{Buckets: []Bucket{{2, 1}, {1, 1}, {math.Inf(1), 1}}},
		}}},
		"histogram le label": {{Name: "h", Type: TypeHistogram, Samples: []Sample{
			{Labels: []Label{{"le", "1"}}, Buckets: []Bucket{{math.Inf(1), 1}}},
		}}},
	}
	for name, fams := range cases {
		if err := Write(&bytes.Buffer{}, fams); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestValueLookup covers the Family.Value, Family.Count and Find
// helpers.
func TestValueLookup(t *testing.T) {
	fams := []Family{{Name: "g", Type: TypeGauge, Samples: []Sample{
		{Labels: []Label{{"a", "1"}, {"b", "2"}}, Value: 42},
	}}}
	f := Find(fams, "g")
	if f == nil {
		t.Fatal("Find missed g")
	}
	if v, ok := f.Value(Label{"b", "2"}, Label{"a", "1"}); !ok || v != 42 {
		t.Fatalf("Value = %v, %v", v, ok)
	}
	if _, ok := f.Value(Label{"a", "1"}); ok {
		t.Fatal("partial label set matched")
	}
	if Find(fams, "nope") != nil {
		t.Fatal("Find invented a family")
	}
	h := Family{Name: "h", Type: TypeHistogram, Samples: []Sample{
		{Labels: []Label{{"k", "v"}}, Value: 2.5, Buckets: []Bucket{{1, 2}, {math.Inf(1), 3}}},
	}}
	if v, ok := h.Value(Label{"k", "v"}); !ok || v != 2.5 {
		t.Fatalf("histogram Value (its sum) = %v, %v", v, ok)
	}
	if n, ok := h.Count(Label{"k", "v"}); !ok || n != 3 {
		t.Fatalf("histogram Count = %v, %v", n, ok)
	}
	if _, ok := fams[0].Count(Label{"a", "1"}, Label{"b", "2"}); ok {
		t.Fatal("Count read a gauge sample")
	}
}
