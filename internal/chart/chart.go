// Package chart renders terminal (ASCII) charts: multi-series line
// plots, scatter plots, horizontal bar charts, and stacked share bars.
// The benchmark harness uses it to regenerate each of the paper's
// figures as a plot the user can eyeball in a terminal or diff in CI.
package chart

import (
	"fmt"
	"math"
	"strings"
)

// Series is one plotted line or point set.
type Series struct {
	Name   string
	X, Y   []float64
	Marker rune
	// PointsOnly suppresses segment interpolation (scatter mode).
	PointsOnly bool
}

// finite reports whether point i has finite coordinates. Charts skip
// the other points and every segment that touches one: a NaN or
// infinite coordinate has no position on the plot.
func (s Series) finite(i int) bool {
	x, y := s.X[i], s.Y[i]
	return !math.IsNaN(x) && !math.IsInf(x, 0) && !math.IsNaN(y) && !math.IsInf(y, 0)
}

// markers cycles when series don't specify one.
var markers = []rune{'*', 'o', '+', 'x', '#', '@', '%', '~', '^', '&', '=', '$'}

// LineChart is a multi-series XY plot.
type LineChart struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// Width and Height are the plot area dimensions in characters;
	// zero selects defaults (72×20).
	Width, Height int
	// YMin/YMax pin the y-range; nil auto-scales.
	YMin, YMax *float64
}

const (
	defaultWidth  = 72
	defaultHeight = 20
)

// Render draws the chart.
func (c *LineChart) Render() string {
	w, h := c.Width, c.Height
	if w <= 0 {
		w = defaultWidth
	}
	if h <= 0 {
		h = defaultHeight
	}
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	any := false
	for _, s := range c.Series {
		for i := range s.X {
			if !s.finite(i) {
				continue
			}
			any = true
			xmin = math.Min(xmin, s.X[i])
			xmax = math.Max(xmax, s.X[i])
			ymin = math.Min(ymin, s.Y[i])
			ymax = math.Max(ymax, s.Y[i])
		}
	}
	if !any {
		return c.Title + "\n(no data)\n"
	}
	if c.YMin != nil {
		ymin = *c.YMin
	}
	if c.YMax != nil {
		ymax = *c.YMax
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}

	grid := make([][]rune, h)
	for i := range grid {
		grid[i] = make([]rune, w)
		for j := range grid[i] {
			grid[i][j] = ' '
		}
	}
	toCol := func(x float64) int {
		return int(math.Round((x - xmin) / (xmax - xmin) * float64(w-1)))
	}
	toRow := func(y float64) int {
		return (h - 1) - int(math.Round((y-ymin)/(ymax-ymin)*float64(h-1)))
	}
	set := func(row, col int, m rune) {
		if row >= 0 && row < h && col >= 0 && col < w {
			grid[row][col] = m
		}
	}
	for si, s := range c.Series {
		m := s.Marker
		if m == 0 {
			m = markers[si%len(markers)]
		}
		// Segments first so explicit points overwrite them.
		if !s.PointsOnly {
			for i := 1; i < len(s.X); i++ {
				if !s.finite(i-1) || !s.finite(i) {
					continue
				}
				c0, c1 := toCol(s.X[i-1]), toCol(s.X[i])
				if c1 < c0 {
					c0, c1 = c1, c0
				}
				for col := c0; col <= c1; col++ {
					var frac float64
					if c1 > c0 {
						frac = float64(col-c0) / float64(c1-c0)
					}
					y := s.Y[i-1] + frac*(s.Y[i]-s.Y[i-1])
					if toCol(s.X[i]) < toCol(s.X[i-1]) {
						y = s.Y[i] + frac*(s.Y[i-1]-s.Y[i])
					}
					set(toRow(y), col, '.')
				}
			}
		}
		for i := range s.X {
			if s.finite(i) {
				set(toRow(s.Y[i]), toCol(s.X[i]), m)
			}
		}
	}

	var b strings.Builder
	if c.Title != "" {
		b.WriteString(c.Title + "\n")
	}
	yFmt := pickFormat(ymin, ymax)
	for i, row := range grid {
		label := "          "
		switch i {
		case 0:
			label = fmt.Sprintf("%10s", fmt.Sprintf(yFmt, ymax))
		case h / 2:
			label = fmt.Sprintf("%10s", fmt.Sprintf(yFmt, (ymin+ymax)/2))
		case h - 1:
			label = fmt.Sprintf("%10s", fmt.Sprintf(yFmt, ymin))
		}
		b.WriteString(label + " |" + string(row) + "\n")
	}
	b.WriteString(strings.Repeat(" ", 11) + "+" + strings.Repeat("-", w) + "\n")
	xFmt := pickFormat(xmin, xmax)
	lo := fmt.Sprintf(xFmt, xmin)
	hi := fmt.Sprintf(xFmt, xmax)
	pad := w - len(lo) - len(hi)
	if pad < 1 {
		pad = 1
	}
	b.WriteString(strings.Repeat(" ", 12) + lo + strings.Repeat(" ", pad) + hi + "\n")
	if c.XLabel != "" || c.YLabel != "" {
		b.WriteString(fmt.Sprintf("%12sx: %s   y: %s\n", "", c.XLabel, c.YLabel))
	}
	// Legend.
	if len(c.Series) > 0 {
		b.WriteString(strings.Repeat(" ", 12))
		for si, s := range c.Series {
			m := s.Marker
			if m == 0 {
				m = markers[si%len(markers)]
			}
			if s.Name != "" {
				fmt.Fprintf(&b, "[%c %s] ", m, s.Name)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

func pickFormat(lo, hi float64) string {
	span := math.Max(math.Abs(lo), math.Abs(hi))
	switch {
	case span >= 1000:
		return "%.0f"
	case span >= 10:
		return "%.1f"
	default:
		return "%.2f"
	}
}

// Bar is one horizontal bar.
type Bar struct {
	Label string
	Value float64
	// Annotation is appended after the value (e.g. a mean EP).
	Annotation string
}

// BarChart renders labeled horizontal bars scaled to the widest value.
type BarChart struct {
	Title string
	Bars  []Bar
	// Width is the maximum bar length in characters (default 50).
	Width int
}

// Render draws the bar chart.
func (c *BarChart) Render() string {
	width := c.Width
	if width <= 0 {
		width = 50
	}
	var b strings.Builder
	if c.Title != "" {
		b.WriteString(c.Title + "\n")
	}
	maxVal := 0.0
	maxLabel := 0
	for _, bar := range c.Bars {
		maxVal = math.Max(maxVal, bar.Value)
		if len(bar.Label) > maxLabel {
			maxLabel = len(bar.Label)
		}
	}
	for _, bar := range c.Bars {
		n := 0
		if maxVal > 0 {
			n = int(math.Round(bar.Value / maxVal * float64(width)))
		}
		if bar.Value > 0 && n == 0 {
			n = 1
		}
		fmt.Fprintf(&b, "%-*s |%s %.4g", maxLabel, bar.Label, strings.Repeat("#", n), bar.Value)
		if bar.Annotation != "" {
			b.WriteString("  " + bar.Annotation)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// StackedRow is one row of a stacked share chart.
type StackedRow struct {
	Label string
	// Shares maps category name to fraction; fractions are normalized
	// to their sum.
	Shares map[string]float64
}

// StackedChart renders rows of proportional segments, one rune per
// category — the Fig. 8 / Fig. 16 form.
type StackedChart struct {
	Title string
	// Categories fixes segment order and legend; categories absent from
	// a row render as zero width.
	Categories []string
	Rows       []StackedRow
	// Width is the full bar width (default 60).
	Width int
}

// Render draws the stacked chart with a legend.
func (c *StackedChart) Render() string {
	width := c.Width
	if width <= 0 {
		width = 60
	}
	var b strings.Builder
	if c.Title != "" {
		b.WriteString(c.Title + "\n")
	}
	maxLabel := 0
	for _, r := range c.Rows {
		if len(r.Label) > maxLabel {
			maxLabel = len(r.Label)
		}
	}
	for _, row := range c.Rows {
		var total float64
		for _, cat := range c.Categories {
			total += row.Shares[cat]
		}
		fmt.Fprintf(&b, "%-*s |", maxLabel, row.Label)
		used := 0
		for ci, cat := range c.Categories {
			if total <= 0 {
				break
			}
			n := int(math.Round(row.Shares[cat] / total * float64(width)))
			if used+n > width {
				n = width - used
			}
			b.WriteString(strings.Repeat(string(markers[ci%len(markers)]), n))
			used += n
		}
		b.WriteString(strings.Repeat(" ", width-used) + "|\n")
	}
	b.WriteString("legend: ")
	for ci, cat := range c.Categories {
		fmt.Fprintf(&b, "[%c %s] ", markers[ci%len(markers)], cat)
	}
	b.WriteString("\n")
	return b.String()
}
