package metrics

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestParseValid parses a canonical exposition and checks the decoded
// structure.
func TestParseValid(t *testing.T) {
	text := strings.Join([]string{
		"# HELP spec_corpus_servers Corpus size.",
		"# TYPE spec_corpus_servers gauge",
		`spec_corpus_servers{corpus="seed=1",subset="all"} 517`,
		`spec_corpus_servers{corpus="seed=1",subset="valid"} 477`,
		"# TYPE spec_serve_requests counter",
		`spec_serve_requests_total{endpoint="report"} 12`,
		"# EOF",
		"",
	}, "\n")
	fams, err := Parse([]byte(text))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(fams) != 2 {
		t.Fatalf("parsed %d families, want 2", len(fams))
	}
	if fams[0].Name != "spec_corpus_servers" || fams[0].Type != TypeGauge || len(fams[0].Samples) != 2 {
		t.Fatalf("family 0 = %+v", fams[0])
	}
	if v, ok := fams[0].Value(Label{"corpus", "seed=1"}, Label{"subset", "valid"}); !ok || v != 477 {
		t.Fatalf("valid-subset gauge = %v, %v", v, ok)
	}
	if fams[1].Type != TypeCounter || fams[1].Name != "spec_serve_requests" {
		t.Fatalf("family 1 = %+v", fams[1])
	}
	if v, ok := fams[1].Value(Label{"endpoint", "report"}); !ok || v != 12 {
		t.Fatalf("counter = %v, %v", v, ok)
	}
}

// TestParseRejects pins the lint's failure modes, including the torn
// and malformed shapes the scrape-safety race test must catch.
func TestParseRejects(t *testing.T) {
	cases := map[string]string{
		"no EOF":                 "# TYPE g gauge\ng 1\n",
		"content after EOF":      "# TYPE g gauge\ng 1\n# EOF\ng 2\n",
		"empty line":             "# TYPE g gauge\n\ng 1\n# EOF\n",
		"sample before TYPE":     "g 1\n# EOF\n",
		"HELP only then sample":  "# HELP g text\ng 1\n# EOF\n",
		"interleaved families":   "# TYPE a gauge\na 1\n# TYPE b gauge\nb 1\na 2\n# EOF\n",
		"reopened family":        "# TYPE a gauge\na 1\n# TYPE b gauge\nb 1\n# TYPE a gauge\n# EOF\n",
		"metadata after sample":  "# TYPE a gauge\na 1\n# HELP a text\n# EOF\n",
		"duplicate TYPE":         "# TYPE a gauge\n# TYPE a gauge\na 1\n# EOF\n",
		"duplicate HELP":         "# HELP a x\n# HELP a y\n# TYPE a gauge\n# EOF\n",
		"unknown type":           "# TYPE a summary\na 1\n# EOF\n",
		"unit mismatch":          "# TYPE a_bytes gauge\n# UNIT a_bytes watts\na_bytes 1\n# EOF\n",
		"wrong sample name":      "# TYPE a gauge\nb 1\n# EOF\n",
		"counter without total":  "# TYPE c counter\nc 1\n# EOF\n",
		"negative counter":       "# TYPE c counter\nc_total -1\n# EOF\n",
		"missing value":          "# TYPE g gauge\ng\n# EOF\n",
		"bad value":              "# TYPE g gauge\ng x\n# EOF\n",
		"timestamp rejected":     "# TYPE g gauge\ng 1 1234567890\n# EOF\n",
		"bad label name":         "# TYPE g gauge\ng{0x=\"v\"} 1\n# EOF\n",
		"unquoted label":         "# TYPE g gauge\ng{x=v} 1\n# EOF\n",
		"unterminated labels":    "# TYPE g gauge\ng{x=\"v\" 1\n# EOF\n",
		"bad escape":             "# TYPE g gauge\ng{x=\"\\t\"} 1\n# EOF\n",
		"dangling escape":        "# TYPE g gauge\ng{x=\"\\\"} 1\n# EOF\n",
		"duplicate label":        "# TYPE g gauge\ng{x=\"a\",x=\"b\"} 1\n# EOF\n",
		"duplicate sample":       "# TYPE g gauge\ng{x=\"a\"} 1\ng{x=\"a\"} 2\n# EOF\n",
		"stray comment":          "# nonsense line\n# EOF\n",
		"garbage after labels":   "# TYPE g gauge\ng{x=\"a\"}z 1\n# EOF\n",
		"histogram without +Inf": "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_count 1\nh_sum 1\n# EOF\n",
		"histogram decreasing counts": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_count 1\nh_sum 1\n# EOF\n",
		"histogram non-ascending le": "# TYPE h histogram\n" +
			"h_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_count 1\nh_sum 1\n# EOF\n",
		"histogram count not +Inf":  "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_count 3\nh_sum 1\n# EOF\n",
		"histogram without sum":     "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_count 2\n# EOF\n",
		"histogram sum then family": "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_count 2\n# TYPE g gauge\ng 1\n# EOF\n",
		"histogram user le label":   "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_count{le=\"x\"} 2\nh_sum 1\n# EOF\n",
		"histogram bucket sans le":  "# TYPE h histogram\nh_bucket 2\nh_count 2\nh_sum 1\n# EOF\n",
		"histogram bare sample":     "# TYPE h histogram\nh 2\n# EOF\n",
		"histogram repeated series": "# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 1\nh_count 1\nh_sum 1\nh_bucket{le=\"+Inf\"} 1\nh_count 1\nh_sum 1\n# EOF\n",
	}
	for name, text := range cases {
		if _, err := Parse([]byte(text)); err == nil {
			t.Errorf("%s: accepted:\n%s", name, text)
		}
	}
}

// TestParseWriteRoundTrip: Write∘Parse is the identity on canonical
// expositions.
func TestParseWriteRoundTrip(t *testing.T) {
	fams := []Family{
		{Name: "a_watts", Help: "with \\ and\nnewline", Unit: "watts", Type: TypeGauge,
			Samples: []Sample{
				{Labels: []Label{{"corpus", `seed=1`}, {"weird", "a\"b"}}, Value: 0.125},
				{Value: 3},
			}},
		{Name: "c", Help: "counts", Type: TypeCounter,
			Samples: []Sample{{Labels: []Label{{"k", "v"}}, Value: 9}}},
		{Name: "empty_family", Type: TypeGauge},
		{Name: "h_seconds", Help: "latency", Unit: "seconds", Type: TypeHistogram,
			Samples: []Sample{
				{Labels: []Label{{"k", "a\"b"}}, Value: 0.75, Buckets: []Bucket{{0.0005, 0}, {0.25, 2}, {math.Inf(1), 3}}},
				{Value: 0, Buckets: []Bucket{{math.Inf(1), 0}}},
			}},
	}
	var first bytes.Buffer
	if err := Write(&first, fams); err != nil {
		t.Fatalf("Write: %v", err)
	}
	parsed, err := Parse(first.Bytes())
	if err != nil {
		t.Fatalf("Parse: %v\n%s", err, first.String())
	}
	var second bytes.Buffer
	if err := Write(&second, parsed); err != nil {
		t.Fatalf("re-Write: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("round trip not identity:\nfirst:\n%s\nsecond:\n%s", first.String(), second.String())
	}
}
