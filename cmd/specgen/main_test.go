package main

import (
	"bytes"
	"os"
	"path/filepath"
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
// fall-through to the 517-submission corpus.
func TestRunRejectsNegativeServers(t *testing.T) {
	var out, errBuf bytes.Buffer
	err := run([]string{"-servers", "-1"}, &out, &errBuf)
	if err == nil || !strings.Contains(err.Error(), "-servers") {
		t.Errorf("error %v does not name -servers", err)
	}
	if out.Len() != 0 {
		t.Errorf("rejected run wrote %d bytes", out.Len())
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
