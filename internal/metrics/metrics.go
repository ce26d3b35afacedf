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
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
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
// must follow series' rules and carry no `le` label of their own, and
// no two samples of a family may share a label set. Nothing reaches w
// unless every family validates: the exposition renders into one
// pooled buffer, which a single Write hands to w. The input is not
// mutated.
func Write(w io.Writer, fams []Family) error {
	e := encoders.Get().(*encoder)
	defer e.release()
	for i := range fams {
		e.ordered = append(e.ordered, &fams[i])
	}
	slices.SortStableFunc(e.ordered, func(a, b *Family) int { return strings.Compare(a.Name, b.Name) })
	for _, f := range e.ordered {
		if err := e.family(f); err != nil {
			return err
		}
	}
	e.buf = append(e.buf, "# EOF\n"...)
	_, err := w.Write(e.buf)
	return err
}

// encoder renders families into buf. Its scratch slices and map keep
// their capacity from one Write to the next through encoders, so a
// warm scrape allocates little beyond what the caller's families hold.
type encoder struct {
	buf     []byte
	lines   []line
	labels  []Label
	ordered []*Family
	seen    map[string]Type // family names rendered so far
}

// line locates one rendered sample in an encoder's buf: its label-set
// key (the sample name and labels) and the text the exposition carries
// for it. A gauge or counter line starts with its key; a histogram
// series renders its block after the key, which only identifies it.
type line struct {
	key, keyEnd, start, end int
}

var encoders = sync.Pool{New: func() any { return &encoder{seen: make(map[string]Type)} }}

// release empties e, keeping its capacity but no reference to the
// caller's families, and returns it to encoders.
func (e *encoder) release() {
	clear(e.ordered)
	clear(e.labels[:cap(e.labels)])
	e.buf, e.lines, e.labels, e.ordered = e.buf[:0], e.lines[:0], e.labels[:0], e.ordered[:0]
	clear(e.seen)
	encoders.Put(e)
}

// family renders one family's metadata and sorted samples onto buf.
func (e *encoder) family(f *Family) error {
	if !validName(f.Name) {
		return fmt.Errorf("metrics: invalid family name %q", f.Name)
	}
	if _, dup := e.seen[f.Name]; dup {
		return fmt.Errorf("metrics: duplicate family %q", f.Name)
	}
	// A counter's or histogram's sample names extend its family name; a
	// family with one of those literal names would collide in the
	// exposition. Families render in name order, so the shorter name
	// has been seen by the time the extended one comes. (An unseen name
	// reads as TypeGauge, whose samples add no suffix.)
	for _, t := range []Type{TypeCounter, TypeHistogram} {
		for _, suffix := range sampleSuffixes[t] {
			if base, ok := strings.CutSuffix(f.Name, suffix); ok && e.seen[base] == t {
				return fmt.Errorf("metrics: %s %q collides with family %q", t, base, f.Name)
			}
		}
	}
	e.seen[f.Name] = f.Type
	if f.Unit != "" && !strings.HasSuffix(f.Name, "_"+f.Unit) {
		return fmt.Errorf("metrics: family %q does not end in unit %q", f.Name, f.Unit)
	}

	if f.Help != "" {
		e.buf = append(e.buf, "# HELP "...)
		e.buf = append(e.buf, f.Name...)
		e.buf = append(e.buf, ' ')
		e.buf = appendEscaped(e.buf, f.Help, false)
		e.buf = append(e.buf, '\n')
	}
	e.buf = append(e.buf, "# TYPE "...)
	e.buf = append(e.buf, f.Name...)
	e.buf = append(e.buf, ' ')
	e.buf = append(e.buf, f.Type.String()...)
	e.buf = append(e.buf, '\n')
	if f.Unit != "" {
		e.buf = append(e.buf, "# UNIT "...)
		e.buf = append(e.buf, f.Name...)
		e.buf = append(e.buf, ' ')
		e.buf = append(e.buf, f.Unit...)
		e.buf = append(e.buf, '\n')
	}

	// Render every sample after the metadata, then append the lines in
	// sorted order and move them down over the unsorted ones.
	samples := len(e.buf)
	e.lines = e.lines[:0]
	for _, s := range f.Samples {
		if f.Type == TypeCounter && (s.Value < 0 || math.IsNaN(s.Value) || math.IsInf(s.Value, 0)) {
			return fmt.Errorf("metrics: counter %q has non-monotone-capable value %v", f.Name, s.Value)
		}
		l := line{key: len(e.buf)}
		e.buf = append(e.buf, f.Name...)
		if f.Type == TypeCounter {
			e.buf = append(e.buf, "_total"...)
		}
		if labels := e.sortedLabels(s.Labels); len(labels) > 0 {
			e.buf = append(e.buf, '{')
			for i, lb := range labels {
				if !validLabelName(lb.Name) {
					return fmt.Errorf("metrics: family %q has invalid label name %q", f.Name, lb.Name)
				}
				if i > 0 && labels[i-1].Name == lb.Name {
					return fmt.Errorf("metrics: family %q sample repeats label %q", f.Name, lb.Name)
				}
				if f.Type == TypeHistogram && lb.Name == "le" {
					return fmt.Errorf("metrics: histogram %q sample carries the bucket label le", f.Name)
				}
				if i > 0 {
					e.buf = append(e.buf, ',')
				}
				e.buf = append(e.buf, lb.Name...)
				e.buf = append(e.buf, `="`...)
				e.buf = appendEscaped(e.buf, lb.Value, true)
				e.buf = append(e.buf, '"')
			}
			e.buf = append(e.buf, '}')
		}
		l.keyEnd, l.start = len(e.buf), l.key
		if f.Type == TypeHistogram {
			l.start = l.keyEnd
			if err := e.series(f.Name, l.key+len(f.Name), l.keyEnd, s); err != nil {
				return err
			}
		} else {
			e.buf = append(e.buf, ' ')
			e.buf = strconv.AppendFloat(e.buf, s.Value, 'g', -1, 64)
			e.buf = append(e.buf, '\n')
		}
		l.end = len(e.buf)
		e.lines = append(e.lines, l)
	}
	buf := e.buf
	slices.SortFunc(e.lines, func(a, b line) int { return bytes.Compare(buf[a.start:a.end], buf[b.start:b.end]) })
	// A label set renders prefix-free, and no other sample's text
	// starts with what a sample's text starts with up to its value (a
	// histogram's up to its first bound), so samples sharing a label set
	// sort next to each other.
	for i := 1; i < len(e.lines); i++ {
		a, b := e.lines[i-1], e.lines[i]
		if key := buf[b.key:b.keyEnd]; bytes.Equal(buf[a.key:a.keyEnd], key) {
			return fmt.Errorf("metrics: family %q has duplicate sample %s", f.Name, key)
		}
	}
	sorted := len(e.buf)
	for _, l := range e.lines {
		e.buf = append(e.buf, e.buf[l.start:l.end]...)
	}
	e.buf = e.buf[:samples+copy(e.buf[samples:], e.buf[sorted:])]
	return nil
}

// sortedLabels returns labels sorted by name: labels itself when it is
// already in order, else a sorted copy in e's scratch.
func (e *encoder) sortedLabels(labels []Label) []Label {
	if slices.IsSortedFunc(labels, labelOrder) {
		return labels
	}
	e.labels = append(e.labels[:0], labels...)
	slices.SortStableFunc(e.labels, labelOrder)
	return e.labels
}

// series renders one histogram series, whose rendered label set is
// buf[set:setEnd]: its buckets, then _count and _sum. Bucket bounds
// must strictly ascend to +Inf, the bound rendered as the last label,
// and counts must be finite and must not decrease.
func (e *encoder) series(name string, set, setEnd int, s Sample) error {
	labeled := setEnd > set
	prev := Bucket{UpperBound: math.Inf(-1)}
	for _, bk := range s.Buckets {
		if !(bk.UpperBound > prev.UpperBound) || !(bk.Count >= prev.Count) || math.IsInf(bk.Count, 1) {
			return fmt.Errorf("metrics: histogram %q%s: bucket %v after %v: bounds must ascend, counts must be finite and not decrease",
				name, e.buf[set:setEnd], bk, prev)
		}
		e.buf = append(e.buf, name...)
		e.buf = append(e.buf, "_bucket"...)
		if labeled {
			e.buf = append(e.buf, e.buf[set:setEnd-1]...)
			e.buf = append(e.buf, `,le="`...)
		} else {
			e.buf = append(e.buf, `{le="`...)
		}
		e.buf = strconv.AppendFloat(e.buf, bk.UpperBound, 'g', -1, 64)
		e.buf = append(e.buf, `"} `...)
		e.buf = strconv.AppendFloat(e.buf, bk.Count, 'g', -1, 64)
		e.buf = append(e.buf, '\n')
		prev = bk
	}
	if !math.IsInf(prev.UpperBound, 1) {
		return fmt.Errorf("metrics: histogram %q%s has no +Inf bucket", name, e.buf[set:setEnd])
	}
	e.seriesTotal(name, "_count", set, setEnd, prev.Count)
	e.seriesTotal(name, "_sum", set, setEnd, s.Value)
	return nil
}

// seriesTotal renders a series' _count or _sum line (suffix), whose
// label set is buf[set:setEnd].
func (e *encoder) seriesTotal(name, suffix string, set, setEnd int, v float64) {
	e.buf = append(e.buf, name...)
	e.buf = append(e.buf, suffix...)
	e.buf = append(e.buf, e.buf[set:setEnd]...)
	e.buf = append(e.buf, ' ')
	e.buf = strconv.AppendFloat(e.buf, v, 'g', -1, 64)
	e.buf = append(e.buf, '\n')
}

// canonicalLabels returns the labels sorted by name, without mutating
// the input; labels already in order are returned as they are.
func canonicalLabels(labels []Label) []Label {
	if slices.IsSortedFunc(labels, labelOrder) {
		return labels
	}
	out := slices.Clone(labels)
	slices.SortStableFunc(out, labelOrder)
	return out
}

// labelOrder orders labels by name.
func labelOrder(a, b Label) int { return strings.Compare(a.Name, b.Name) }

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

// appendEscaped appends s to b with backslashes and newlines escaped,
// and double quotes too when quote is set: the HELP text escapes, and
// with quote the label value escapes.
func appendEscaped(b []byte, s string, quote bool) []byte {
	special := "\\\n"
	if quote {
		special = "\\\n\""
	}
	for {
		i := strings.IndexAny(s, special)
		if i < 0 {
			return append(b, s...)
		}
		b = append(b, s[:i]...)
		switch s[i] {
		case '\n':
			b = append(b, `\n`...)
		default:
			b = append(b, '\\', s[i])
		}
		s = s[i+1:]
	}
}
