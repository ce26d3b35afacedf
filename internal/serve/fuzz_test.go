package serve

import (
	"net/http"
	"net/url"
	"strconv"
	"testing"
)

// fuzzEndpoints are the request paths FuzzServeRequest draws from; the
// last one takes the fuzzed figure id as its final segment.
var fuzzEndpoints = []string{
	"/api/v1/report",
	"/api/v1/summary",
	"/api/v1/metrics/ep",
	"/api/v1/metrics/ee",
	"/api/v1/metrics/correlations",
	"/api/v1/figures",
	"/api/v1/figures/",
}

// FuzzServeRequest drives the request surface with arbitrary figure ids
// and formats over keyed scenarios of 1-64 servers at small seeds. A
// request may be refused (4xx) but must never panic or answer 5xx: a
// corpus too small to analyze is the client's scenario, not a server
// fault.
func FuzzServeRequest(f *testing.F) {
	s := newSyntheticServer(f, Config{Seed: testSeed})
	f.Add(uint8(6), "1", "text", uint8(1), uint8(16))
	f.Add(uint8(6), "1", "svg", uint8(1), uint8(16))
	f.Add(uint8(0), "", "text", uint8(1), uint8(1))
	f.Add(uint8(0), "", "html", uint8(1), uint8(1))
	f.Add(uint8(1), "", "", uint8(1), uint8(1))
	f.Add(uint8(4), "", "", uint8(1), uint8(1))
	f.Add(uint8(4), "", "", uint8(5), uint8(2))
	f.Add(uint8(1), "", "", uint8(7), uint8(14))
	f.Add(uint8(6), "e6", "text", uint8(7), uint8(14))
	f.Add(uint8(6), "17", "svg", uint8(2), uint8(64))
	f.Add(uint8(5), "", "", uint8(3), uint8(40))
	f.Add(uint8(6), "../report", "png", uint8(0), uint8(8))

	f.Fuzz(func(t *testing.T, endpoint uint8, id, format string, seed, servers uint8) {
		path := fuzzEndpoints[int(endpoint)%len(fuzzEndpoints)]
		if path == "/api/v1/figures/" {
			path += url.PathEscape(id)
		}
		n := int(servers) % 64
		if n == 0 {
			n = 64
		}
		q := url.Values{"seed": {strconv.Itoa(int(seed) % 16)}, "servers": {strconv.Itoa(n)}}
		if format != "" {
			q.Set("format", format)
		}
		target := path + "?" + q.Encode()
		if w := get(t, s, target, nil); w.Code >= http.StatusInternalServerError {
			t.Fatalf("GET %s: status %d: %s", target, w.Code, w.Body.String())
		}
	})
}
