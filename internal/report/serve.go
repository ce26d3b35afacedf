package report

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/dataset"
)

// ErrNoSVG marks figure selectors that only exist in tabular text form.
var ErrNoSVG = errors.New("no SVG form")

// figure finds the report-table entry a selector names.
func figure(id string) (*section, error) {
	for i := range sections {
		if id != "" && sections[i].id == id {
			return &sections[i], nil
		}
	}
	return nil, fmt.Errorf("report: unknown figure %q (valid: %s)", id, strings.Join(FigureIDs(), ", "))
}

// FigureIDs lists every selector Figure accepts, sorted: the paper's
// figures "1".."17", its tables "t1" and "t2", and the extensions "e1"
// and "e3".."e7". The report-only sections (the headline statistics,
// E2 and the sweep figures 18-21) have none.
func FigureIDs() []string {
	var out []string
	for _, s := range sections {
		if s.id != "" {
			out = append(out, s.id)
		}
	}
	sort.Strings(out)
	return out
}

// FigureTitle returns the display title of a figure selector ("" for an
// unknown id).
func FigureTitle(id string) string {
	s, err := figure(id)
	if err != nil {
		return ""
	}
	return s.title
}

// FigureHasSVG reports whether a selector has a chart-backed SVG form.
func FigureHasSVG(id string) bool {
	s, err := figure(id)
	return err == nil && s.chart
}

// Figure renders one corpus figure or table by selector as text. The
// repository should already be filtered to valid results, matching the
// full report. A figure the corpus cannot supply (Fig. 1 without a 2016
// server) is an error matching analysis.ErrTooFewServers.
func Figure(rp *dataset.Repository, id string) (string, error) {
	s, err := figure(id)
	if err != nil {
		return "", err
	}
	ch, table, err := s.render(newRenderCtx(rp, Options{}))
	if err != nil {
		return "", err
	}
	return text(ch, table), nil
}

// FigureSVG renders one chart-backed figure as a standalone SVG
// element. Table-style figures report ErrNoSVG.
func FigureSVG(rp *dataset.Repository, id string) (string, error) {
	s, err := figure(id)
	if err != nil {
		return "", err
	}
	if !s.chart {
		return "", fmt.Errorf("report: figure %q: %w", id, ErrNoSVG)
	}
	ch, _, err := s.render(newRenderCtx(rp, Options{}))
	if err != nil {
		return "", err
	}
	return ch.RenderSVG(), nil
}

// Figures renders the selected figures as text in report order, whatever
// the order of ids, each followed by a blank line. A selected figure the
// corpus cannot supply is left out, as in Full; an unknown id is an
// error.
func Figures(rp *dataset.Repository, ids []string) (string, error) {
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		if _, err := figure(id); err != nil {
			return "", err
		}
		want[id] = true
	}
	return renderAll(rp, Options{}, func(s *section) bool { return want[s.id] }, textBlock)
}
