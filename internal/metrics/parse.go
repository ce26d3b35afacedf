package metrics

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Parse validates data as an OpenMetrics text exposition and returns
// its families in file order. It is deliberately strict — a lint, not
// a general scraper: every family must declare a TYPE before its
// samples, families must not interleave or repeat, label names and
// escapes must be legal, counter samples must carry the `_total`
// suffix with finite non-negative values, no sample may repeat a label
// set, timestamps are rejected, and the exposition must end with
// `# EOF`. A histogram family must read exactly as Write renders it,
// which holds its series to the writer's rules. The serving layer's
// self-test and race tests run every scrape through it.
//
// Write∘Parse is the identity on canonical expositions: parsing the
// writer's output and re-writing it reproduces the bytes exactly.
func Parse(data []byte) ([]Family, error) {
	text := string(data)
	if !strings.HasSuffix(text, "# EOF\n") && !strings.HasSuffix(text, "# EOF") {
		return nil, fmt.Errorf("metrics: exposition does not end with # EOF")
	}
	var (
		fams     []Family
		cur      *Family
		curStart int                     // offset of cur's first line
		closed   = make(map[string]bool) // family names already finished
		keys     map[string]bool         // current family's sample label sets
		typed    bool                    // current family has seen its TYPE line
		sawEOF   bool
		lineNum  int
	)
	// finish closes cur, whose text ends at offset end.
	finish := func(end int) error {
		if cur == nil {
			return nil
		}
		if cur.Type == TypeHistogram {
			// Re-rendering applies the writer's series rules, and the
			// bytes must match: each _count is its +Inf count, every
			// series ends in _sum, and no line is out of place.
			e := encoder{seen: make(map[string]Type)}
			if err := e.family(cur); err != nil {
				return err
			}
			if !bytes.Equal(e.buf, data[curStart:end]) {
				return fmt.Errorf("histogram %q does not read as Write renders it", cur.Name)
			}
		}
		closed[cur.Name] = true
		fams = append(fams, *cur)
		cur, keys = nil, nil
		return nil
	}
	for len(text) > 0 {
		lineNum++
		start := len(data) - len(text)
		line := text
		if i := strings.IndexByte(text, '\n'); i >= 0 {
			line, text = text[:i], text[i+1:]
		} else {
			text = ""
		}
		if sawEOF {
			return nil, fmt.Errorf("metrics: line %d: content after # EOF", lineNum)
		}
		if line == "# EOF" {
			if err := finish(start); err != nil {
				return nil, fmt.Errorf("metrics: line %d: %w", lineNum, err)
			}
			sawEOF = true
			continue
		}
		if line == "" {
			return nil, fmt.Errorf("metrics: line %d: empty line", lineNum)
		}
		if strings.HasPrefix(line, "#") {
			kind, name, rest, err := parseMeta(line)
			if err != nil {
				return nil, fmt.Errorf("metrics: line %d: %w", lineNum, err)
			}
			if cur == nil || cur.Name != name {
				if err := finish(start); err != nil {
					return nil, fmt.Errorf("metrics: line %d: %w", lineNum, err)
				}
				if closed[name] {
					return nil, fmt.Errorf("metrics: line %d: family %q reopened", lineNum, name)
				}
				if !validName(name) {
					return nil, fmt.Errorf("metrics: line %d: invalid family name %q", lineNum, name)
				}
				cur, curStart = &Family{Name: name, Type: TypeGauge}, start
				keys = make(map[string]bool)
				typed = false
			}
			if len(cur.Samples) > 0 {
				return nil, fmt.Errorf("metrics: line %d: metadata after samples of %q", lineNum, name)
			}
			switch kind {
			case "HELP":
				if cur.Help != "" {
					return nil, fmt.Errorf("metrics: line %d: duplicate HELP for %q", lineNum, name)
				}
				help, err := unescapeHelp(rest)
				if err != nil {
					return nil, fmt.Errorf("metrics: line %d: %w", lineNum, err)
				}
				cur.Help = help
			case "TYPE":
				if typed {
					return nil, fmt.Errorf("metrics: line %d: duplicate TYPE for %q", lineNum, name)
				}
				typed = true
				switch rest {
				case "gauge":
					cur.Type = TypeGauge
				case "counter":
					cur.Type = TypeCounter
				case "histogram":
					cur.Type = TypeHistogram
				default:
					return nil, fmt.Errorf("metrics: line %d: unsupported type %q", lineNum, rest)
				}
			case "UNIT":
				if cur.Unit != "" {
					return nil, fmt.Errorf("metrics: line %d: duplicate UNIT for %q", lineNum, name)
				}
				if !strings.HasSuffix(name, "_"+rest) {
					return nil, fmt.Errorf("metrics: line %d: family %q does not end in unit %q", lineNum, name, rest)
				}
				cur.Unit = rest
			}
			continue
		}

		// Sample line.
		if cur == nil || !typed {
			return nil, fmt.Errorf("metrics: line %d: sample before its family's TYPE declaration", lineNum)
		}
		suffix, sample, key, err := parseSample(line, cur)
		if err == nil && cur.Type == TypeHistogram {
			err = addHistogramLine(cur, suffix, sample)
		} else if err == nil && keys[key] {
			err = fmt.Errorf("duplicate sample %s of family %q", key, cur.Name)
		} else if err == nil {
			keys[key] = true
			cur.Samples = append(cur.Samples, sample)
		}
		if err != nil {
			return nil, fmt.Errorf("metrics: line %d: %w", lineNum, err)
		}
	}
	if !sawEOF {
		return nil, fmt.Errorf("metrics: missing # EOF")
	}
	return fams, nil
}

// addHistogramLine folds one `_bucket`, `_count` or `_sum` line into
// fam: a line whose label set, le aside, is not the last sample's
// starts a new sample, a bucket line appends its bucket, and a _sum
// line sets the value. Parse checks the assembled family, _count lines
// included, once it ends.
func addHistogramLine(fam *Family, suffix string, s Sample) error {
	if suffix == "_bucket" {
		i := slices.IndexFunc(s.Labels, func(l Label) bool { return l.Name == "le" })
		if i < 0 {
			return fmt.Errorf("histogram %q bucket has no le", fam.Name)
		}
		le, err := strconv.ParseFloat(s.Labels[i].Value, 64)
		if err != nil {
			return fmt.Errorf("histogram %q bucket has bad le %q", fam.Name, s.Labels[i].Value)
		}
		s.Buckets = []Bucket{{UpperBound: le, Count: s.Value}}
		s.Labels = append(s.Labels[:i:i], s.Labels[i+1:]...)
	}
	n := len(fam.Samples)
	if n == 0 || !labelsEqual(canonicalLabels(fam.Samples[n-1].Labels), canonicalLabels(s.Labels)) {
		fam.Samples = append(fam.Samples, Sample{Labels: s.Labels})
	}
	last := &fam.Samples[len(fam.Samples)-1]
	switch suffix {
	case "_bucket":
		last.Buckets = append(last.Buckets, s.Buckets...)
	case "_sum":
		last.Value = s.Value
	}
	return nil
}

// parseMeta splits a `# HELP|TYPE|UNIT name rest` comment line.
func parseMeta(line string) (kind, name, rest string, err error) {
	body, ok := strings.CutPrefix(line, "# ")
	if !ok {
		return "", "", "", fmt.Errorf("comment line %q is not HELP/TYPE/UNIT metadata", line)
	}
	kind, body, ok = strings.Cut(body, " ")
	if !ok || (kind != "HELP" && kind != "TYPE" && kind != "UNIT") {
		return "", "", "", fmt.Errorf("unknown metadata line %q", line)
	}
	name, rest, ok = strings.Cut(body, " ")
	if !ok || name == "" || rest == "" {
		return "", "", "", fmt.Errorf("malformed %s line %q", kind, line)
	}
	if kind != "HELP" && strings.ContainsAny(rest, " ") {
		return "", "", "", fmt.Errorf("malformed %s line %q", kind, line)
	}
	return kind, name, rest, nil
}

// parseSample parses one `name{labels} value` line of fam, returning
// the suffix its name adds to the family name, the sample and its
// canonical label-set key.
func parseSample(line string, fam *Family) (string, Sample, string, error) {
	end := strings.IndexAny(line, "{ ")
	if end < 0 {
		end = len(line)
	}
	suffix, ok := strings.CutPrefix(line[:end], fam.Name)
	if !ok || !slices.Contains(sampleSuffixes[fam.Type], suffix) {
		return "", Sample{}, "", fmt.Errorf("sample %q does not belong to %s family %q", line, fam.Type, fam.Name)
	}
	rest := line[end:]
	var s Sample
	if strings.HasPrefix(rest, "{") {
		var err error
		rest, err = parseLabels(rest[1:], &s)
		if err != nil {
			return "", Sample{}, "", err
		}
	}
	rest, ok = strings.CutPrefix(rest, " ")
	if !ok || rest == "" {
		return "", Sample{}, "", fmt.Errorf("sample %q has no value", line)
	}
	if strings.ContainsAny(rest, " ") {
		return "", Sample{}, "", fmt.Errorf("sample %q carries a timestamp or trailing garbage", line)
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return "", Sample{}, "", fmt.Errorf("sample %q has bad value: %v", line, err)
	}
	if fam.Type == TypeCounter && (v < 0 || math.IsNaN(v) || math.IsInf(v, 0)) {
		return "", Sample{}, "", fmt.Errorf("counter sample %q has value %v", line, v)
	}
	s.Value = v

	key := ""
	seen := make(map[string]bool, len(s.Labels))
	for _, l := range canonicalLabels(s.Labels) {
		if seen[l.Name] {
			return "", Sample{}, "", fmt.Errorf("sample %q repeats label %q", line, l.Name)
		}
		seen[l.Name] = true
		key += l.Name + "=" + strconv.Quote(l.Value) + ","
	}
	return suffix, s, key, nil
}

// parseLabels consumes `name="value",...}` and returns what follows
// the closing brace.
func parseLabels(rest string, s *Sample) (string, error) {
	for {
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return "", fmt.Errorf("unterminated label set")
		}
		name := rest[:eq]
		if !validLabelName(name) {
			return "", fmt.Errorf("invalid label name %q", name)
		}
		rest = rest[eq+1:]
		if !strings.HasPrefix(rest, `"`) {
			return "", fmt.Errorf("label %q value is not quoted", name)
		}
		value, remainder, err := unquoteLabelValue(rest[1:])
		if err != nil {
			return "", fmt.Errorf("label %q: %w", name, err)
		}
		s.Labels = append(s.Labels, Label{Name: name, Value: value})
		rest = remainder
		if strings.HasPrefix(rest, ",") {
			rest = rest[1:]
			continue
		}
		if strings.HasPrefix(rest, "}") {
			return rest[1:], nil
		}
		return "", fmt.Errorf("expected ',' or '}' after label %q", name)
	}
}

// unquoteLabelValue decodes an escaped label value up to its closing
// quote, returning the decoded value and the text after the quote.
func unquoteLabelValue(rest string) (string, string, error) {
	var sb strings.Builder
	for i := 0; i < len(rest); i++ {
		switch c := rest[i]; c {
		case '"':
			return sb.String(), rest[i+1:], nil
		case '\\':
			if i+1 >= len(rest) {
				return "", "", fmt.Errorf("dangling escape")
			}
			i++
			switch rest[i] {
			case '\\':
				sb.WriteByte('\\')
			case '"':
				sb.WriteByte('"')
			case 'n':
				sb.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("invalid escape \\%c", rest[i])
			}
		case '\n':
			return "", "", fmt.Errorf("raw newline in label value")
		default:
			sb.WriteByte(c)
		}
	}
	return "", "", fmt.Errorf("unterminated label value")
}

// unescapeHelp decodes a HELP text (backslash and newline escapes).
func unescapeHelp(s string) (string, error) {
	if !strings.ContainsRune(s, '\\') {
		return s, nil
	}
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' {
			sb.WriteByte(s[i])
			continue
		}
		if i+1 >= len(s) {
			return "", fmt.Errorf("dangling escape in HELP text")
		}
		i++
		switch s[i] {
		case '\\':
			sb.WriteByte('\\')
		case 'n':
			sb.WriteByte('\n')
		default:
			return "", fmt.Errorf("invalid escape \\%c in HELP text", s[i])
		}
	}
	return sb.String(), nil
}
