package main

import (
	"bytes"
	"strings"
	"testing"
)

// goldenRuns are the pinned invocations.
var goldenRuns = map[string][]string{
	"default":             nil,
	"fleet15-days2":       {"-fleet", "15", "-days", "2"},
	"fleet10-days1-seed4": {"-fleet", "10", "-days", "1", "-seed", "4"},
}

// goldenRow is one table row as printed: its numeric fields, IT kWh
// through kg CO2, and its annualized line after the label.
type goldenRow struct{ fields, annual string }

// golden pins every row of every run, keyed "run/row".
var golden = map[string]goldenRow{
	"default/optimal-region": {"1042.4 6205 11172 2695.7 1563.5 $156.35 703.6", "$8153/yr, 36.7 t CO2/yr"},
	"default/pack":           {"1046.3 6228 11172 2685.8 1569.5 $156.95 706.3", "$8184/yr, 36.8 t CO2/yr"},
	"default/spread":         {"1115.6 6640 11172 2517.3 1673.3 $167.33 753.0", "$8725/yr, 39.3 t CO2/yr"},

	"default/pack+off": {"637.8 3796 11172 4918.3 956.6 $95.66 430.5", "$4988/yr, 22.4 t CO2/yr"},

	"fleet15-days2/optimal-region": {"109.7 2284 4124 3053.5 164.5 $16.45 74.0", "$3002/yr, 13.5 t CO2/yr"},
	"fleet15-days2/pack":           {"109.7 2286 4124 3051.6 164.6 $16.46 74.1", "$3004/yr, 13.5 t CO2/yr"},
	"fleet15-days2/spread":         {"124.3 2591 4124 2690.9 186.5 $18.65 83.9", "$3404/yr, 15.3 t CO2/yr"},

	"fleet15-days2/pack+off": {"73.3 1526 4124 4924.9 109.9 $10.99 49.4", "$2005/yr, 9.0 t CO2/yr"},

	"fleet10-days1-seed4/optimal-region": {"71.5 2978 5103 3075.5 107.2 $10.72 48.2", "$3913/yr, 17.6 t CO2/yr"},
	"fleet10-days1-seed4/pack":           {"71.7 2989 5103 3064.8 107.6 $10.76 48.4", "$3927/yr, 17.7 t CO2/yr"},
	"fleet10-days1-seed4/spread":         {"74.4 3102 5103 2951.0 111.7 $11.17 50.3", "$4076/yr, 18.3 t CO2/yr"},

	"fleet10-days1-seed4/pack+off": {"60.2 2508 5103 3971.2 90.3 $9.03 40.6", "$3295/yr, 14.8 t CO2/yr"},
}

// parseRows reads the table and annualized sections of one run's
// output into rows keyed by label.
func parseRows(out string) map[string]goldenRow {
	rows := make(map[string]goldenRow)
	section := ""
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 0:
			section = ""
		case f[0] == "policy":
			section = "table"
		case f[0] == "annualized":
			section = "annual"
		case section == "table":
			r := rows[f[0]]
			r.fields = strings.Join(f[1:], " ")
			rows[f[0]] = r
		case section == "annual":
			r := rows[f[0]]
			r.annual = strings.Join(f[1:], " ")
			rows[f[0]] = r
		}
	}
	return rows
}

func TestGoldenRows(t *testing.T) {
	printed := make(map[string]bool)
	for name, args := range goldenRuns {
		var out, errBuf bytes.Buffer
		if err := run(args, &out, &errBuf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for label, got := range parseRows(out.String()) {
			key := name + "/" + label
			want, ok := golden[key]
			if !ok {
				t.Errorf("%s: row %q is not pinned", name, label)
				continue
			}
			printed[key] = true
			if got != want {
				t.Errorf("%s: row %q = %+v, want %+v", name, label, got, want)
			}
		}
	}
	for key := range golden {
		if !printed[key] {
			t.Errorf("pinned row %s was not printed", key)
		}
	}
}
