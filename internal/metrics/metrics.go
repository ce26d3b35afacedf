// Package metrics is a hand-rolled OpenMetrics text-exposition layer:
// a writer that renders counter, gauge and histogram families in the
// canonical form Prometheus scrapes (HELP/TYPE/UNIT metadata, escaped
// label values, `# EOF` terminator) and a minimal validating parser
// used as a lint in tests and self-checks. It has no client_golang
// dependency and no registry: callers assemble []Family per scrape
// from whatever state they want to expose.
//
// The writer is canonical and deterministic: families are emitted in
// name order, labels within a sample in name order, and samples within
// a family in label-lexicographic order, so the same logical state
// always renders byte-identically — which is what lets the serving
// layer pin scrape output with sha256 digests at any worker count.
package metrics

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Type is the OpenMetrics metric type of a family.
type Type int

// Supported family types. Counters expose one monotonically
// non-decreasing `_total` sample per label set; gauges expose current
// values; histograms expose, per label set, cumulative `_bucket` counts
// by ascending `le` bound, then `_count` and `_sum`.
const (
	TypeGauge Type = iota
	TypeCounter
	TypeHistogram
)

// String returns the exposition spelling of the type.
func (t Type) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// sampleSuffixes lists what each type's sample lines add to its name.
var sampleSuffixes = map[Type][]string{
	TypeGauge:     {""},
	TypeCounter:   {"_total"},
	TypeHistogram: {"_bucket", "_count", "_sum"},
}

// ContentType is the media type of an OpenMetrics 1.0 text exposition.
const ContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// Label is one name→value pair of a sample.
type Label struct {
	Name, Value string
}

// Sample is one measured value with its label set. Label order is not
// significant; the writer sorts by label name.
//
// A histogram sample is one series: Buckets holds its cumulative
// counts by strictly ascending upper bound, the last bound +Inf (whose
// count is the series' `_count`), and Value holds its `_sum`.
type Sample struct {
	Labels  []Label
	Value   float64
	Buckets []Bucket
}

// Bucket is one cumulative histogram bucket: Count observations were at
// most UpperBound.
type Bucket struct {
	UpperBound float64
	Count      float64
}

// Family is one metric family: metadata plus its samples. For
// counters, Name is the family name without the `_total` suffix — the
// writer appends it to every sample as the spec requires. When Unit is
// set, Name must end in "_"+Unit.
type Family struct {
	Name string
	Help string
	Unit string
	Type Type

	Samples []Sample
}

// Value returns the value of the sample whose label set matches the
// given labels exactly (order-insensitive), and whether one exists. A
// histogram sample's value is its sum.
func (f *Family) Value(labels ...Label) (float64, bool) {
	want := canonicalLabels(labels)
	for _, s := range f.Samples {
		if labelsEqual(canonicalLabels(s.Labels), want) {
			return s.Value, true
		}
	}
	return 0, false
}

// Count returns the observation count (the +Inf bucket) of the
// histogram sample whose label set matches the given labels exactly,
// and whether one exists.
func (f *Family) Count(labels ...Label) (float64, bool) {
	want := canonicalLabels(labels)
	for _, s := range f.Samples {
		if len(s.Buckets) > 0 && labelsEqual(canonicalLabels(s.Labels), want) {
			return s.Buckets[len(s.Buckets)-1].Count, true
		}
	}
	return 0, false
}

// Find returns the family with the given name, or nil.
func Find(fams []Family, name string) *Family {
	for i := range fams {
		if fams[i].Name == name {
			return &fams[i]
		}
	}
	return nil
}

// Write renders the families as one canonical OpenMetrics text
// exposition ending in `# EOF`. It validates as it goes: metric and
// label names must be legal, units must suffix the family name,
// counter values must be finite and non-negative, histogram series
// must follow writeSeries' rules and carry no `le` label of their own,
// and no two samples of a family may share a label set. Nothing
// reaches w unless every family validates. The input is not mutated.
func Write(w io.Writer, fams []Family) error {
	ordered := make([]*Family, len(fams))
	for i := range fams {
		ordered[i] = &fams[i]
	}
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Name < ordered[j].Name })

	var sb strings.Builder
	seen := make(map[string]bool, len(ordered))
	for _, f := range ordered {
		if err := writeFamily(&sb, f, seen); err != nil {
			return err
		}
	}
	sb.WriteString("# EOF\n")
	_, err := io.WriteString(w, sb.String())
	return err
}

// writeFamily renders one family's metadata and sorted samples.
func writeFamily(sb *strings.Builder, f *Family, seen map[string]bool) error {
	if !validName(f.Name) {
		return fmt.Errorf("metrics: invalid family name %q", f.Name)
	}
	if seen[f.Name] {
		return fmt.Errorf("metrics: duplicate family %q", f.Name)
	}
	seen[f.Name] = true
	for _, suffix := range sampleSuffixes[f.Type] {
		// A counter's or histogram's sample names extend f.Name; another
		// family with one of those literal names would collide in the
		// exposition.
		if suffix == "" {
			continue
		}
		if seen[f.Name+suffix] {
			return fmt.Errorf("metrics: %s %q collides with family %q", f.Type, f.Name, f.Name+suffix)
		}
		seen[f.Name+suffix] = true
	}
	if f.Unit != "" && !strings.HasSuffix(f.Name, "_"+f.Unit) {
		return fmt.Errorf("metrics: family %q does not end in unit %q", f.Name, f.Unit)
	}

	if f.Help != "" {
		sb.WriteString("# HELP ")
		sb.WriteString(f.Name)
		sb.WriteByte(' ')
		sb.WriteString(escapeHelp(f.Help))
		sb.WriteByte('\n')
	}
	sb.WriteString("# TYPE ")
	sb.WriteString(f.Name)
	sb.WriteByte(' ')
	sb.WriteString(f.Type.String())
	sb.WriteByte('\n')
	if f.Unit != "" {
		sb.WriteString("# UNIT ")
		sb.WriteString(f.Name)
		sb.WriteByte(' ')
		sb.WriteString(f.Unit)
		sb.WriteByte('\n')
	}

	sampleName := f.Name
	if f.Type == TypeCounter {
		sampleName += "_total"
	}
	rendered := make([]string, 0, len(f.Samples))
	keys := make(map[string]bool, len(f.Samples))
	for _, s := range f.Samples {
		if f.Type == TypeCounter && (s.Value < 0 || math.IsNaN(s.Value) || math.IsInf(s.Value, 0)) {
			return fmt.Errorf("metrics: counter %q has non-monotone-capable value %v", f.Name, s.Value)
		}
		labels := canonicalLabels(s.Labels)
		var line strings.Builder
		line.WriteString(sampleName)
		if len(labels) > 0 {
			line.WriteByte('{')
			for i, l := range labels {
				if !validLabelName(l.Name) {
					return fmt.Errorf("metrics: family %q has invalid label name %q", f.Name, l.Name)
				}
				if i > 0 && labels[i-1].Name == l.Name {
					return fmt.Errorf("metrics: family %q sample repeats label %q", f.Name, l.Name)
				}
				if f.Type == TypeHistogram && l.Name == "le" {
					return fmt.Errorf("metrics: histogram %q sample carries the bucket label le", f.Name)
				}
				if i > 0 {
					line.WriteByte(',')
				}
				line.WriteString(l.Name)
				line.WriteString(`="`)
				line.WriteString(escapeLabelValue(l.Value))
				line.WriteByte('"')
			}
			line.WriteByte('}')
		}
		key := line.String()
		if keys[key] {
			return fmt.Errorf("metrics: family %q has duplicate sample %s", f.Name, key)
		}
		keys[key] = true
		if f.Type == TypeHistogram {
			// A series renders as one block, so the sort below keeps
			// its lines together and in order.
			line.Reset()
			line.Grow((len(s.Buckets) + 2) * (len(key) + 40))
			if err := writeSeries(&line, f.Name, key[len(f.Name):], s); err != nil {
				return err
			}
		} else {
			line.WriteByte(' ')
			writeValue(&line, s.Value)
			line.WriteByte('\n')
		}
		rendered = append(rendered, line.String())
	}
	sort.Strings(rendered)
	for _, line := range rendered {
		sb.WriteString(line)
	}
	return nil
}

// writeSeries renders one histogram series, whose rendered label set
// is set: its buckets, then _count and _sum. Bucket bounds must
// strictly ascend to +Inf, the bound rendered as the last label, and
// counts must be finite and must not decrease.
func writeSeries(b *strings.Builder, name, set string, s Sample) error {
	bucket := name + `_bucket{le="`
	if set != "" {
		bucket = name + "_bucket" + set[:len(set)-1] + `,le="`
	}
	prev := Bucket{UpperBound: math.Inf(-1)}
	for _, bk := range s.Buckets {
		if !(bk.UpperBound > prev.UpperBound) || !(bk.Count >= prev.Count) || math.IsInf(bk.Count, 1) {
			return fmt.Errorf("metrics: histogram %q%s: bucket %v after %v: bounds must ascend, counts must be finite and not decrease",
				name, set, bk, prev)
		}
		b.WriteString(bucket)
		writeValue(b, bk.UpperBound)
		b.WriteString(`"} `)
		writeValue(b, bk.Count)
		b.WriteByte('\n')
		prev = bk
	}
	if !math.IsInf(prev.UpperBound, 1) {
		return fmt.Errorf("metrics: histogram %q%s has no +Inf bucket", name, set)
	}
	fmt.Fprintf(b, "%s_count%s ", name, set)
	writeValue(b, prev.Count)
	fmt.Fprintf(b, "\n%s_sum%s ", name, set)
	writeValue(b, s.Value)
	b.WriteByte('\n')
	return nil
}

// writeValue renders a float the way the exposition format expects:
// the shortest decimal that round-trips, with strconv's NaN, +Inf and
// -Inf being the spec spellings of the non-finite values. Formatting
// into a stack buffer keeps a scrape from allocating per value.
func writeValue(b *strings.Builder, v float64) {
	var buf [32]byte
	b.Write(strconv.AppendFloat(buf[:0], v, 'g', -1, 64))
}

// canonicalLabels returns the labels sorted by name, without mutating
// the input; labels already in order are returned as they are.
func canonicalLabels(labels []Label) []Label {
	byName := func(a, b Label) int { return strings.Compare(a.Name, b.Name) }
	if slices.IsSortedFunc(labels, byName) {
		return labels
	}
	out := slices.Clone(labels)
	slices.SortStableFunc(out, byName)
	return out
}

func labelsEqual(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// validName reports whether s is a legal metric name.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		if r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') {
			continue
		}
		if r >= '0' && r <= '9' && i > 0 {
			continue
		}
		return false
	}
	return true
}

// validLabelName reports whether s is a legal label name.
func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i, r := range s {
		if r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') {
			continue
		}
		if r >= '0' && r <= '9' && i > 0 {
			continue
		}
		return false
	}
	return true
}

// escapeHelp escapes a HELP text: backslash and newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabelValue escapes a label value: backslash, double quote and
// newline.
func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
