package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataset"
)

func TestRunCSVToStdout(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-seed", "3"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	results, err := dataset.ReadCSV(&out)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 517 {
		t.Errorf("emitted %d results", len(results))
	}
	if !strings.Contains(errBuf.String(), "517 submissions") {
		t.Errorf("summary missing: %q", errBuf.String())
	}
}

func TestRunValidOnlyJSONToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.json")
	var out, errBuf bytes.Buffer
	if err := run([]string{"-seed", "3", "-format", "json", "-valid-only", "-q", "-out", path}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Error("file mode should not write stdout")
	}
	if errBuf.Len() != 0 {
		t.Error("-q should suppress the summary")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	results, err := dataset.ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 477 {
		t.Errorf("valid-only emitted %d", len(results))
	}
}

func TestRunRejectsBadFormat(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-format", "xml"}, &out, &errBuf); err == nil {
		t.Error("bad format accepted")
	}
}

// A negative fleet size is an error naming the flag, not a silent
// fall-through to the 517-submission corpus, and a fleet too large for
// a column store is an error too, not a header-only file.
func TestRunRejectsNegativeServers(t *testing.T) {
	for _, n := range []int{-1, math.MaxInt} {
		var out, errBuf bytes.Buffer
		err := run([]string{"-servers", strconv.Itoa(n)}, &out, &errBuf)
		if err == nil || !strings.Contains(err.Error(), "-servers") {
			t.Errorf("-servers %d: error %v does not name -servers", n, err)
		}
		if out.Len() != 0 {
			t.Errorf("-servers %d: rejected run wrote %d bytes", n, out.Len())
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	var a, b, errBuf bytes.Buffer
	if err := run([]string{"-seed", "5", "-q"}, &a, &errBuf); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-seed", "5", "-q"}, &b, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("same seed produced different output")
	}
}

// fleetDigests pins the bytes of `specgen -q -seed 2 -servers 2600` in
// every format: three 1,024-server shards, the last one partial. The
// fleet generator's shard streams, ID scheme and row layout all feed
// these digests, so any change to them shows here.
var fleetDigests = map[string]string{
	"csv":  "f0ff610a3444890b4230e3acd3e009e9a399052e55ad9af558dbb6d93fb59818",
	"json": "e4e142708907626e01bbc1baca1252506720a694b709b9d43a9175769143439f",
	"epfb": "48c9b5ff93573152c60cd396a664684d62657fb74dbac4f3afa6f0910e532e9d",
}

func TestFleetGoldenDigests(t *testing.T) {
	for format, want := range fleetDigests {
		var out, errBuf bytes.Buffer
		if err := run([]string{"-q", "-seed", "2", "-servers", "2600", "-format", format}, &out, &errBuf); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		sum := sha256.Sum256(out.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s fleet digest %s, want %s", format, got, want)
		}
	}
}
