package report

import (
	"fmt"
	"html"
	"strings"

	"repro/internal/dataset"
)

// FullHTML renders the paper's complete evaluation as one standalone
// HTML document: every section of the report table, in the order Full
// prints them, with each chart as an inline SVG followed by its table.
// No scripts, no external assets — the file is self-contained and safe
// to open anywhere.
func FullHTML(rp *dataset.Repository, opts Options) (string, error) {
	body, err := renderAll(rp, opts, inReport(opts), htmlSection)
	if err != nil {
		return "", err
	}
	return htmlHeader + body + htmlFooter, nil
}

// htmlSection renders one section as a <section> element.
func htmlSection(s *section, ch chartForm, table string) string {
	var b strings.Builder
	fmt.Fprintf(&b, `<section id="%s"><h2>%s</h2>`, s.anchor, html.EscapeString(s.title))
	if ch != nil {
		b.WriteString(ch.RenderSVG())
	}
	if table != "" {
		fmt.Fprintf(&b, "<pre>%s</pre>", html.EscapeString(table))
	}
	b.WriteString("</section>\n")
	return b.String()
}

const htmlHeader = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>Energy Proportional Servers: Where Are We in 2016? — reproduction report</title>
<style>
body { font-family: ui-monospace, SFMono-Regular, Menlo, monospace; max-width: 860px;
       margin: 2rem auto; padding: 0 1rem; color: #1a1a1a; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.05rem; margin-top: 2.2rem;
     border-bottom: 1px solid #ccc; padding-bottom: .3rem; }
pre { background: #f6f6f6; padding: .8rem; overflow-x: auto; font-size: .82rem; line-height: 1.35; }
svg { display: block; margin: .6rem 0; }
p.meta { color: #555; font-size: .85rem; }
</style>
</head>
<body>
<h1>Energy Proportional Servers: Where Are We in 2016? — reproduction report</h1>
<p class="meta">Regenerated from the calibrated synthetic corpus and simulated Table II servers.
Shapes, orderings and crossovers reproduce the paper; absolute efficiencies are simulator-scaled.
See EXPERIMENTS.md for the paper-vs-measured record.</p>
`

const htmlFooter = `</body>
</html>
`
