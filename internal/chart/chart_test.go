package chart

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

func TestLineChartBasics(t *testing.T) {
	c := &LineChart{
		Title:  "test chart",
		XLabel: "utilization",
		YLabel: "power",
		Series: []Series{
			{Name: "ideal", X: []float64{0, 0.5, 1}, Y: []float64{0, 0.5, 1}},
			{Name: "server", X: []float64{0, 0.5, 1}, Y: []float64{0.3, 0.6, 1}},
		},
		Width:  40,
		Height: 10,
	}
	out := c.Render()
	if !strings.Contains(out, "test chart") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "[* ideal]") || !strings.Contains(out, "[o server]") {
		t.Errorf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "utilization") || !strings.Contains(out, "power") {
		t.Error("axis labels missing")
	}
	lines := strings.Split(out, "\n")
	plotLines := 0
	for _, l := range lines {
		if strings.Contains(l, "|") {
			plotLines++
		}
	}
	if plotLines != 10 {
		t.Errorf("plot rows = %d, want 10", plotLines)
	}
	if !strings.ContainsRune(out, '*') || !strings.ContainsRune(out, 'o') {
		t.Error("series markers missing from plot")
	}
}

func TestLineChartEmpty(t *testing.T) {
	c := &LineChart{Title: "empty"}
	out := c.Render()
	if !strings.Contains(out, "(no data)") {
		t.Errorf("empty chart output: %q", out)
	}
}

// TestLineChartHandlesNaN: a NaN or infinite coordinate, on either
// axis, is dropped with its segments. int(NaN) as a column index would
// send the text renderer's segment loop over about 2^63 columns, so
// both renderers run under a deadline.
func TestLineChartHandlesNaN(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		c := &LineChart{
			Series: []Series{
				{X: []float64{0, bad, 2}, Y: []float64{1, 2, 3}},
				{X: []float64{0, 1, 2}, Y: []float64{3, bad, 1}},
			},
			Width: 20, Height: 5,
		}
		done := make(chan [2]string, 1)
		go func() { done <- [2]string{c.Render(), c.RenderSVG()} }()
		select {
		case out := <-done:
			text, svg := out[0], out[1]
			if text == "" || strings.Contains(text, "NaN") || strings.Contains(text, "Inf") {
				t.Errorf("%v: non-finite value leaked into the text render:\n%s", bad, text)
			}
			if strings.Contains(svg, "NaN") || strings.Contains(svg, "Inf") {
				t.Errorf("%v: non-finite coordinate in the SVG:\n%s", bad, svg)
			}
			if got := strings.Count(svg, "<circle"); got != 4 {
				t.Errorf("%v: %d points drawn, want the 4 finite ones", bad, got)
			}
			if strings.Contains(svg, "<polyline") {
				t.Errorf("%v: a line was drawn through a non-finite point", bad)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%v: rendering did not finish", bad)
		}
	}
}

func TestLineChartConstantSeries(t *testing.T) {
	c := &LineChart{
		Series: []Series{{X: []float64{1, 1}, Y: []float64{5, 5}}},
		Width:  20, Height: 5,
	}
	if out := c.Render(); out == "" {
		t.Error("constant series produced nothing")
	}
}

func TestLineChartPinnedRange(t *testing.T) {
	lo, hi := 0.0, 2.0
	c := &LineChart{
		Series: []Series{{X: []float64{0, 1}, Y: []float64{0.5, 1.5}}},
		YMin:   &lo, YMax: &hi,
		Width: 20, Height: 6,
	}
	out := c.Render()
	if !strings.Contains(out, "2.00") || !strings.Contains(out, "0.00") {
		t.Errorf("pinned axis labels missing:\n%s", out)
	}
}

func TestLineChartScatterMode(t *testing.T) {
	c := &LineChart{
		Series: []Series{{
			Name: "pts", X: []float64{0, 1, 2}, Y: []float64{0, 2, 1},
			Marker: '@', PointsOnly: true,
		}},
		Width: 30, Height: 8,
	}
	out := c.Render()
	if strings.Count(out, "@") < 3 {
		t.Errorf("scatter points missing:\n%s", out)
	}
	// No interpolation dots between points.
	if strings.Contains(out, "....") {
		t.Errorf("scatter mode drew segments:\n%s", out)
	}
}

func TestBarChart(t *testing.T) {
	c := &BarChart{
		Title: "families",
		Bars: []Bar{
			{Label: "Sandy Bridge", Value: 152, Annotation: "EP 0.81"},
			{Label: "Netburst", Value: 3},
			{Label: "None", Value: 0},
		},
		Width: 40,
	}
	out := c.Render()
	if !strings.Contains(out, "families") || !strings.Contains(out, "Sandy Bridge") {
		t.Error("labels missing")
	}
	if !strings.Contains(out, "EP 0.81") {
		t.Error("annotation missing")
	}
	lines := strings.Split(out, "\n")
	var sbLen, nbLen int
	for _, l := range lines {
		if strings.Contains(l, "Sandy Bridge") {
			sbLen = strings.Count(l, "#")
		}
		if strings.Contains(l, "Netburst") {
			nbLen = strings.Count(l, "#")
		}
	}
	if sbLen != 40 {
		t.Errorf("largest bar = %d chars, want 40", sbLen)
	}
	if nbLen < 1 {
		t.Error("non-zero bar collapsed to nothing")
	}
}

func TestStackedChart(t *testing.T) {
	c := &StackedChart{
		Title:      "peak EE spot",
		Categories: []string{"100%", "80%", "70%"},
		Rows: []StackedRow{
			{Label: "2012", Shares: map[string]float64{"100%": 0.7, "80%": 0.2, "70%": 0.1}},
			{Label: "2016", Shares: map[string]float64{"100%": 0.17, "80%": 0.55, "70%": 0.28}},
		},
		Width: 50,
	}
	out := c.Render()
	if !strings.Contains(out, "2012") || !strings.Contains(out, "2016") {
		t.Error("row labels missing")
	}
	if !strings.Contains(out, "legend:") {
		t.Error("legend missing")
	}
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "2012") || strings.HasPrefix(l, "2016") {
			body := l[strings.Index(l, "|")+1 : strings.LastIndex(l, "|")]
			if len(body) != 50 {
				t.Errorf("row width = %d, want 50", len(body))
			}
		}
	}
}

func TestStackedChartEmptyRow(t *testing.T) {
	c := &StackedChart{
		Categories: []string{"a"},
		Rows:       []StackedRow{{Label: "x", Shares: nil}},
		Width:      10,
	}
	if out := c.Render(); !strings.Contains(out, "x") {
		t.Error("empty row dropped")
	}
}

func TestLineChartSVG(t *testing.T) {
	c := &LineChart{
		Title:  "svg <test> & more",
		XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "a", X: []float64{0, 1, 2}, Y: []float64{0, 1, 4}},
			{Name: "b", X: []float64{0, 1, 2}, Y: []float64{4, 1, 0}, PointsOnly: true},
		},
	}
	svg := c.RenderSVG()
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(svg, "</svg>") {
		t.Fatal("not a single SVG element")
	}
	if !strings.Contains(svg, "svg &lt;test&gt; &amp; more") {
		t.Error("title not escaped")
	}
	if !strings.Contains(svg, "<polyline") {
		t.Error("line series missing polyline")
	}
	if strings.Count(svg, "<circle") != 6 {
		t.Errorf("want 6 point markers, got %d", strings.Count(svg, "<circle"))
	}
	// Axis ticks exist.
	if strings.Count(svg, "<line") < 10 {
		t.Error("axis ticks missing")
	}
}

func TestLineChartSVGManySeriesGrowsLegend(t *testing.T) {
	small := &LineChart{Series: []Series{{Name: "one", X: []float64{0, 1}, Y: []float64{0, 1}}}}
	var many []Series
	for i := 0; i < 12; i++ {
		many = append(many, Series{Name: "series-name-" + string(rune('a'+i)), X: []float64{0, 1}, Y: []float64{0, 1}})
	}
	big := &LineChart{Series: many}
	hSmall := svgHeightOf(t, small.RenderSVG())
	hBig := svgHeightOf(t, big.RenderSVG())
	if hBig <= hSmall {
		t.Errorf("legend overflow not handled: %d vs %d", hBig, hSmall)
	}
}

func svgHeightOf(t *testing.T, svg string) int {
	t.Helper()
	i := strings.Index(svg, `height="`)
	if i < 0 {
		t.Fatal("no height attr")
	}
	rest := svg[i+len(`height="`):]
	j := strings.Index(rest, `"`)
	var h int
	if _, err := fmt.Sscanf(rest[:j], "%d", &h); err != nil {
		t.Fatal(err)
	}
	return h
}

func TestLineChartSVGEmpty(t *testing.T) {
	svg := (&LineChart{Title: "empty"}).RenderSVG()
	if !strings.Contains(svg, "(no data)") {
		t.Error("empty SVG missing placeholder")
	}
}

func TestBarChartSVG(t *testing.T) {
	c := &BarChart{
		Title: "bars",
		Bars: []Bar{
			{Label: "A", Value: 10, Annotation: "x"},
			{Label: "B", Value: 5},
		},
	}
	svg := c.RenderSVG()
	if strings.Count(svg, "<rect") != 2 {
		t.Errorf("want 2 bars, got %d rects", strings.Count(svg, "<rect"))
	}
	if !strings.Contains(svg, ">A<") || !strings.Contains(svg, ">B<") {
		t.Error("bar labels missing")
	}
}

func TestStackedChartSVG(t *testing.T) {
	c := &StackedChart{
		Title:      "stack",
		Categories: []string{"p", "q"},
		Rows: []StackedRow{
			{Label: "r1", Shares: map[string]float64{"p": 0.5, "q": 0.5}},
		},
	}
	svg := c.RenderSVG()
	// One row with two segments plus two legend swatches.
	if strings.Count(svg, "<rect") != 4 {
		t.Errorf("rect count = %d", strings.Count(svg, "<rect"))
	}
}
