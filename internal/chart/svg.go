package chart

import (
	"fmt"
	"html"
	"math"
	"strings"
)

// SVG rendering: the same chart values render as self-contained SVG for
// the HTML report. No external assets or scripts — every figure is one
// <svg> element.

// palette holds the series colors (colorblind-safe Okabe-Ito).
var palette = []string{
	"#0072B2", "#E69F00", "#009E73", "#D55E00",
	"#CC79A7", "#56B4E9", "#F0E442", "#000000",
	"#999999", "#8C510A", "#5AB4AC", "#762A83",
}

const (
	svgWidth   = 760
	svgHeight  = 420
	marginL    = 64
	marginR    = 16
	marginT    = 34
	marginB    = 72
	plotW      = svgWidth - marginL - marginR
	plotH      = svgHeight - marginT - marginB
	fontFamily = "ui-monospace, SFMono-Regular, Menlo, monospace"
)

// legendRows computes how many legend lines the series need.
func legendRows(series []Series) int {
	rows, x := 1, marginL
	any := false
	for _, s := range series {
		if s.Name == "" {
			continue
		}
		any = true
		x += 14 + 7*len(s.Name) + 18
		if x > svgWidth-120 {
			x = marginL
			rows++
		}
	}
	if !any {
		return 0
	}
	return rows
}

// RenderSVG draws the line chart as a self-contained SVG element.
func (c *LineChart) RenderSVG() string {
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	any := false
	for _, s := range c.Series {
		for i := range s.X {
			if !s.finite(i) {
				continue
			}
			any = true
			xmin, xmax = math.Min(xmin, s.X[i]), math.Max(xmax, s.X[i])
			ymin, ymax = math.Min(ymin, s.Y[i]), math.Max(ymax, s.Y[i])
		}
	}
	extra := 16 * (legendRows(c.Series) - 1)
	if extra < 0 {
		extra = 0
	}
	var b strings.Builder
	if !any {
		openSVG(&b, c.Title, extra)
		text(&b, svgWidth/2, svgHeight/2, "middle", "(no data)")
		b.WriteString("</svg>")
		return b.String()
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
	toX := func(x float64) float64 { return marginL + (x-xmin)/(xmax-xmin)*plotW }
	toY := func(y float64) float64 { return marginT + plotH - (y-ymin)/(ymax-ymin)*plotH }

	openSVG(&b, c.Title, extra)
	drawAxes(&b, xmin, xmax, ymin, ymax, c.XLabel, c.YLabel)
	for si, s := range c.Series {
		color := palette[si%len(palette)]
		if !s.PointsOnly {
			// One polyline per run of finite points, so a non-finite
			// point breaks the line instead of entering a coordinate.
			var pts []string
			flush := func() {
				if len(pts) > 1 {
					fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.6"/>`,
						strings.Join(pts, " "), color)
				}
				pts = pts[:0]
			}
			for i := range s.X {
				if !s.finite(i) {
					flush()
					continue
				}
				pts = append(pts, fmt.Sprintf("%.1f,%.1f", toX(s.X[i]), toY(s.Y[i])))
			}
			flush()
		}
		for i := range s.X {
			if s.finite(i) {
				fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="%.1f" fill="%s"/>`,
					toX(s.X[i]), toY(s.Y[i]), markerRadius(s), color)
			}
		}
	}
	drawLegend(&b, c.Series)
	b.WriteString("</svg>")
	return b.String()
}

func markerRadius(s Series) float64 {
	if s.PointsOnly {
		return 2.2
	}
	return 2.8
}

// RenderSVG draws the bar chart as an SVG element (horizontal bars).
func (c *BarChart) RenderSVG() string {
	var b strings.Builder
	rowH := 24
	height := marginT + len(c.Bars)*rowH + 24
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="%s" font-size="12">`,
		svgWidth, height, fontFamily)
	text(&b, marginL, 18, "start", c.Title)
	maxVal := 0.0
	for _, bar := range c.Bars {
		maxVal = math.Max(maxVal, bar.Value)
	}
	if maxVal == 0 {
		maxVal = 1
	}
	labelW := 150.0
	barMax := float64(svgWidth) - labelW - 180
	for i, bar := range c.Bars {
		y := marginT + i*rowH
		w := bar.Value / maxVal * barMax
		text(&b, int(labelW)-6, y+15, "end", bar.Label)
		fmt.Fprintf(&b, `<rect x="%.1f" y="%d" width="%.1f" height="%d" fill="%s"/>`,
			labelW, y+3, math.Max(w, 1), rowH-8, palette[0])
		ann := fmt.Sprintf("%.4g", bar.Value)
		if bar.Annotation != "" {
			ann += "  " + bar.Annotation
		}
		text(&b, int(labelW+w)+6, y+15, "start", ann)
	}
	b.WriteString("</svg>")
	return b.String()
}

// RenderSVG draws the stacked share chart as an SVG element.
func (c *StackedChart) RenderSVG() string {
	var b strings.Builder
	rowH := 26
	height := marginT + len(c.Rows)*rowH + 46
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="%s" font-size="12">`,
		svgWidth, height, fontFamily)
	text(&b, marginL, 18, "start", c.Title)
	labelW := 120.0
	barMax := float64(svgWidth) - labelW - 40
	for i, row := range c.Rows {
		y := marginT + i*rowH
		var total float64
		for _, cat := range c.Categories {
			total += row.Shares[cat]
		}
		text(&b, int(labelW)-6, y+16, "end", row.Label)
		x := labelW
		for ci, cat := range c.Categories {
			if total <= 0 {
				break
			}
			w := row.Shares[cat] / total * barMax
			if w <= 0 {
				continue
			}
			fmt.Fprintf(&b, `<rect x="%.1f" y="%d" width="%.1f" height="%d" fill="%s"/>`,
				x, y+4, w, rowH-10, palette[ci%len(palette)])
			x += w
		}
	}
	// Legend row.
	x := labelW
	y := marginT + len(c.Rows)*rowH + 14
	for ci, cat := range c.Categories {
		fmt.Fprintf(&b, `<rect x="%.1f" y="%d" width="10" height="10" fill="%s"/>`,
			x, y, palette[ci%len(palette)])
		text(&b, int(x)+14, y+10, "start", cat)
		x += float64(14 + 8*len(cat) + 24)
	}
	b.WriteString("</svg>")
	return b.String()
}

func openSVG(b *strings.Builder, title string, extraHeight int) {
	fmt.Fprintf(b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="%s" font-size="12">`,
		svgWidth, svgHeight+extraHeight, fontFamily)
	text(b, marginL, 20, "start", title)
}

func drawAxes(b *strings.Builder, xmin, xmax, ymin, ymax float64, xlabel, ylabel string) {
	fmt.Fprintf(b, `<rect x="%d" y="%d" width="%d" height="%d" fill="none" stroke="#888"/>`,
		marginL, marginT, plotW, plotH)
	const ticks = 5
	xFmt := pickFormat(xmin, xmax)
	yFmt := pickFormat(ymin, ymax)
	for i := 0; i <= ticks; i++ {
		frac := float64(i) / ticks
		// X ticks.
		x := marginL + frac*plotW
		fmt.Fprintf(b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="#888"/>`,
			x, marginT+plotH, x, marginT+plotH+4)
		text(b, int(x), marginT+plotH+18, "middle", fmt.Sprintf(xFmt, xmin+frac*(xmax-xmin)))
		// Y ticks.
		y := marginT + plotH - frac*plotH
		fmt.Fprintf(b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#888"/>`,
			marginL-4, y, marginL, y)
		text(b, marginL-8, int(y)+4, "end", fmt.Sprintf(yFmt, ymin+frac*(ymax-ymin)))
	}
	if xlabel != "" {
		text(b, marginL+plotW/2, marginT+plotH+34, "middle", xlabel)
	}
	if ylabel != "" {
		fmt.Fprintf(b, `<text x="14" y="%d" text-anchor="middle" transform="rotate(-90 14 %d)">%s</text>`,
			marginT+plotH/2, marginT+plotH/2, html.EscapeString(ylabel))
	}
}

func drawLegend(b *strings.Builder, series []Series) {
	x := marginL
	y := marginT + plotH + 48
	for si, s := range series {
		if s.Name == "" {
			continue
		}
		color := palette[si%len(palette)]
		fmt.Fprintf(b, `<rect x="%d" y="%d" width="10" height="10" fill="%s"/>`, x, y-9, color)
		text(b, x+14, y, "start", s.Name)
		x += 14 + 7*len(s.Name) + 18
		if x > svgWidth-120 {
			x = marginL
			y += 16
		}
	}
}

func text(b *strings.Builder, x, y int, anchor, s string) {
	fmt.Fprintf(b, `<text x="%d" y="%d" text-anchor="%s">%s</text>`, x, y, anchor, html.EscapeString(s))
}
