package metrics

import (
	"bytes"
	"math"
	"testing"
)

// FuzzParseExposition round-trips the writer and parser over
// fuzz-chosen family shapes: any family the writer accepts must parse
// back cleanly, decode to the same logical content, and re-render
// byte-identically (Write∘Parse identity on canonical expositions).
// Inputs the writer rejects are required to be rejected for a reason —
// the error must not be a panic — and are then skipped. typ selects
// gauge, counter or histogram; a histogram's samples share the buckets
// {bound: below} and {+Inf: total}, and value is their sum.
func FuzzParseExposition(f *testing.F) {
	f.Add("spec_corpus_ep", "Paper Eq. 1 metric.", "", "corpus", "seed=1", 1.05, uint8(0), 0.0, 0.0, 0.0)
	f.Add("spec_fleet_power_watts", "Fleet draw.", "watts", "policy", "pack+off", 1234.5, uint8(0), 0.0, 0.0, 0.0)
	f.Add("spec_serve_requests", "Requests.", "", "endpoint", "report", 3.0, uint8(1), 0.0, 0.0, 0.0)
	f.Add("g", "", "", "l", "value with \"quotes\" and \\slashes\\\nand newlines", 0.0, uint8(0), 0.0, 0.0, 0.0)
	f.Add("weird", "help\ntext", "", "k", "", math.Inf(1), uint8(0), 0.0, 0.0, 0.0)
	f.Add("1bad", "x", "", "k", "v", 1.0, uint8(0), 0.0, 0.0, 0.0)
	f.Add("c", "x", "", "__reserved", "v", 1.0, uint8(1), 0.0, 0.0, 0.0)
	// Histogram shapes: a valid series, then one per writer rejection —
	// a label named le, decreasing counts, a bound that does not ascend
	// to +Inf, and a non-finite count.
	f.Add("spec_serve_request_duration_seconds", "Request latency.", "seconds", "endpoint", "figures", 0.0123, uint8(2), 0.005, 3.0, 4.0)
	f.Add("h", "", "", "k", "v", 0.0, uint8(2), 1e-9, 0.0, 0.0)
	f.Add("h", "x", "", "le", "1", 1.0, uint8(2), 1.0, 1.0, 1.0)
	f.Add("h", "x", "", "k", "v", 2.0, uint8(2), 0.5, 2.0, 1.0)
	f.Add("h", "x", "", "k", "v", 2.0, uint8(2), math.Inf(1), 1.0, 1.0)
	f.Add("h", "x", "", "k", "v", 2.0, uint8(2), math.NaN(), 1.0, 1.0)
	f.Add("h", "x", "", "k", "v", 2.0, uint8(2), 0.5, -1.0, math.Inf(1))

	f.Fuzz(func(t *testing.T, name, help, unit, labelName, labelValue string, value float64, typ uint8, bound, below, total float64) {
		fam := Family{Name: name, Help: help, Unit: unit, Type: Type(typ % 3)}
		var buckets []Bucket
		if fam.Type == TypeHistogram {
			buckets = []Bucket{{bound, below}, {math.Inf(1), total}}
		}
		fam.Samples = []Sample{
			{Labels: []Label{{Name: labelName, Value: labelValue}}, Value: value, Buckets: buckets},
			{Value: value, Buckets: buckets},
		}
		var first bytes.Buffer
		if err := Write(&first, []Family{fam}); err != nil {
			t.Skip() // writer rejected the shape; rejection (not panic) is the contract
		}
		parsed, err := Parse(first.Bytes())
		if err != nil {
			t.Fatalf("writer output does not parse: %v\n%s", err, first.String())
		}
		if len(parsed) != 1 {
			t.Fatalf("parsed %d families, want 1", len(parsed))
		}
		got := parsed[0]
		if got.Name != fam.Name || got.Help != fam.Help || got.Unit != fam.Unit || got.Type != fam.Type {
			t.Fatalf("metadata round-trip: got %+v, want %+v", got, fam)
		}
		if len(got.Samples) != len(fam.Samples) {
			t.Fatalf("sample count %d, want %d", len(got.Samples), len(fam.Samples))
		}
		wantLabeled, ok1 := (&fam).Value(Label{labelName, labelValue})
		gotLabeled, ok2 := (&got).Value(Label{labelName, labelValue})
		if ok1 != ok2 || !sameValue(wantLabeled, gotLabeled) {
			t.Fatalf("labeled sample round-trip: got %v/%v, want %v/%v", gotLabeled, ok2, wantLabeled, ok1)
		}
		wantCount, ok1 := (&fam).Count(Label{labelName, labelValue})
		gotCount, ok2 := (&got).Count(Label{labelName, labelValue})
		if ok1 != ok2 || wantCount != gotCount {
			t.Fatalf("labeled histogram count round-trip: got %v/%v, want %v/%v", gotCount, ok2, wantCount, ok1)
		}
		var second bytes.Buffer
		if err := Write(&second, parsed); err != nil {
			t.Fatalf("re-Write: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip not identity:\nfirst:\n%s\nsecond:\n%s", first.String(), second.String())
		}
	})
}

// sameValue compares floats treating NaN as equal to itself.
func sameValue(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}
