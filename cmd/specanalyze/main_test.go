package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/report"
	"repro/internal/synth"
)

func TestRunSelectedFigures(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-fig", "5,17", "-stats=false"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Fig.5") || !strings.Contains(s, "Fig.17") {
		t.Error("selected figures missing")
	}
	if strings.Contains(s, "Fig.3") {
		t.Error("unselected figure printed")
	}
}

func TestRunAllFiguresFromFile(t *testing.T) {
	results, err := synth.Generate(synth.Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corpus.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteCSV(f, results); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var out, errBuf bytes.Buffer
	if err := run([]string{"-in", path}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fig.1", "Fig.16", "Table I", "Table II", "Fig.E4", "Eq.2"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("full output missing %q", want)
		}
	}
}

// TestFig1MatchesReport: on a fleet file, -fig 1 draws the same sample
// server as the report and the served figure.
func TestFig1MatchesReport(t *testing.T) {
	results, err := synth.GenerateFleet(synth.FleetConfig{Seed: 3, Servers: 5000})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fleet.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteCSV(f, results); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var out, errBuf bytes.Buffer
	if err := run([]string{"-in", path, "-fig", "1", "-stats=false"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	rp, err := dataset.ReadPath(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := report.Figure(rp.Valid(), "1")
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != want+"\n" {
		t.Errorf("-fig 1 differs from report.Figure:\n%.300s\nwant:\n%.300s", out.String(), want)
	}
}

// TestJSONFromFileGolden pins `specanalyze -in F -json` on the
// 5,000-server seed-3 fleet written as CSV.
func TestJSONFromFileGolden(t *testing.T) {
	results, err := synth.GenerateFleet(synth.FleetConfig{Seed: 3, Servers: 5000})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fleet.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteCSV(f, results); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var out, errBuf bytes.Buffer
	if err := run([]string{"-in", path, "-json"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	const want = "58536381aa7ac0c5981f0bf17959ff3161c4bcf939f7ae1f35805a032b5b90e7"
	if got := fmt.Sprintf("%x", sha256.Sum256(out.Bytes())); got != want {
		t.Errorf("-json digest = %s, want %s (output drifted)", got, want)
	}
}

// TestRunFigSelectors: an unknown selector is an error naming the valid
// ones, and spaces around selectors are ignored.
func TestRunFigSelectors(t *testing.T) {
	var out, errBuf bytes.Buffer
	for _, fig := range []string{"99", "e2", "3,18"} {
		err := run([]string{"-fig", fig, "-stats=false"}, &out, &errBuf)
		if err == nil || !strings.Contains(err.Error(), "unknown figure") || !strings.Contains(err.Error(), "t1, t2") {
			t.Errorf("-fig %s: err = %v, want an unknown-figure error listing the selectors", fig, err)
		}
	}
	if out.Len() != 0 {
		t.Errorf("a rejected selection printed %d bytes", out.Len())
	}
	if err := run([]string{"-fig", "3, 5", "-stats=false"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if s := out.String(); !strings.Contains(s, "Fig.3") || !strings.Contains(s, "Fig.5") {
		t.Error("-fig \"3, 5\" did not print both figures")
	}
}

func TestRunShowDisclosure(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-show", "power_ssj2008-0001"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "SPECpower_ssj2008 disclosure — power_ssj2008-0001") {
		t.Errorf("disclosure missing:\n%s", out.String())
	}
	if err := run([]string{"-show", "nope"}, &out, &errBuf); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestRunMissingFile(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-in", "/nonexistent.csv"}, &out, &errBuf); err == nil {
		t.Error("missing file accepted")
	}
}

func TestRunJSONExport(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-json"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"yearly_trend"`) || !strings.Contains(out.String(), `"era_rates"`) {
		t.Error("JSON export incomplete")
	}
}

// stdoutDigests pins specanalyze's stdout on the seed-1 synthetic
// corpus: one figure selector at a time with the headline statistics
// off, every figure with them on, the JSON export and one disclosure.
var stdoutDigests = []struct {
	args []string
	want string
}{
	{[]string{"-fig", "1", "-stats=false"}, "bf36137586aa4623b84a8c2d8e9b015e7cd7d1b069f800bf08458015e792dc17"},
	{[]string{"-fig", "10", "-stats=false"}, "e7894b299beee82a4120c6b08b39eb222bdab2194f160778bc2b611eb109e47c"},
	{[]string{"-fig", "11", "-stats=false"}, "78b22e1984870872ee303d1562aa5fa2f026c83f13e135bff728c885da304458"},
	{[]string{"-fig", "12", "-stats=false"}, "73b05eccb73c7c35ed323ca02b85e19ef490ffd03c2f3c535199dd59de37b449"},
	{[]string{"-fig", "13", "-stats=false"}, "ff4e6320b944d1b112a410234cd3d8a4081eab18c08eba6a7c555c193d362bb4"},
	{[]string{"-fig", "14", "-stats=false"}, "73819c4bd3b90939258e008f5b431961afcb0fd908b9572765b58542b4a77691"},
	{[]string{"-fig", "15", "-stats=false"}, "07138e1c33c9d163edee75d87cc85d2a4118de75d72c616e16a72a2f8eded1c5"},
	{[]string{"-fig", "16", "-stats=false"}, "7fc63d332cf7b5f4301d64606e4d32fdfb0f83c2a6885bd591c11cbb316bad39"},
	{[]string{"-fig", "17", "-stats=false"}, "acbd451844ca38a20676ad79b80373d027aa29d1243a9b0362959802638441da"},
	{[]string{"-fig", "2", "-stats=false"}, "9031be359f0e2ea86a83828608478685d071019e9395eb355810b504849261a2"},
	{[]string{"-fig", "3", "-stats=false"}, "db4cd09d481c74d6b687d8fd235960824a8f0fee6b2282abf151205048fc7583"},
	{[]string{"-fig", "4", "-stats=false"}, "cf53eb113afb4dbe8075931da604d59e24da36fd2422bbdc4d49b1d5eb545583"},
	{[]string{"-fig", "5", "-stats=false"}, "b2101d0116d3f713a357b1d756f8991acb829609c19f4ae40610a986530e3cef"},
	{[]string{"-fig", "6", "-stats=false"}, "5af80b75e6f182e272fbe497402296271e03d8fc3aed8f7e54851368a8ec443c"},
	{[]string{"-fig", "7", "-stats=false"}, "5c486d5b19f13ff07881767fedba5775428052bfd6221cde189f1b6b0c5d2c9c"},
	{[]string{"-fig", "8", "-stats=false"}, "38f0695fdbfe9283e443c98323f0948b3a50eadbc4adebb8d802745a53ac634f"},
	{[]string{"-fig", "9", "-stats=false"}, "444b8ccefa0a268f5a8e5176040d235c80d68c53802631738b1f4279d6edf2a4"},
	{[]string{"-fig", "e1", "-stats=false"}, "d3d8084adf78c52c4db0d171973ad335933860b0edb7352f986fb64aeb29ef88"},
	{[]string{"-fig", "e3", "-stats=false"}, "fa4a3d78fbc17f21077661e25bf09f1dd7b0635a0a02de0ebc47042fec6d2a79"},
	{[]string{"-fig", "e4", "-stats=false"}, "c53d18f934265d0887bc99eb9d84a568910633e02c18296822319564e2ce4737"},
	{[]string{"-fig", "e5", "-stats=false"}, "69a317273da893436c189a95764d7f1662e05f7ad3c84a2169d12b3d213b8f10"},
	{[]string{"-fig", "e6", "-stats=false"}, "782abb53e675906aba9c188bcc79036ff3e368575d9e05531009c5dc172e55be"},
	{[]string{"-fig", "e7", "-stats=false"}, "263626c1c911009cdabf3170e819c391ab469352716bd06659f92ac68d559950"},
	{[]string{"-fig", "t1", "-stats=false"}, "6d703987aec35bcbf1b5737dfdd1681dece36d7e042abe1513ff38f3a668d511"},
	{[]string{"-fig", "t2", "-stats=false"}, "404c88e38075f3c3a8335a6d773f742802bca07e039abd1b0c0b94606f020556"},
	{[]string{"-fig", "all"}, "132d14e1aae90934ad2c04dc1779724e7c059e00776109715749c8a47f5782d8"},
	{[]string{"-json"}, "8ddc5536f39bc4e73e3e4df04d5689cf62c28a6bff49e8949eebce3645854eca"},
	{[]string{"-show", "power_ssj2008-0001"}, "d0a28c1dcaeafa2f980c58bbda9f8cf0c785748d77f23ed0704911d170cbdecc"},
}

func TestStdoutGolden(t *testing.T) {
	var current strings.Builder
	for _, c := range stdoutDigests {
		var out, errBuf bytes.Buffer
		if err := run(c.args, &out, &errBuf); err != nil {
			t.Fatalf("%q: %v", c.args, err)
		}
		got := fmt.Sprintf("%x", sha256.Sum256(out.Bytes()))
		if got != c.want {
			t.Errorf("%q: stdout digest = %s, want %s (output drifted)", c.args, got, c.want)
		}
		fmt.Fprintf(&current, "\t{%#v, %q},\n", c.args, got)
	}
	if t.Failed() {
		t.Logf("current digests:\n%s", current.String())
	}
}
