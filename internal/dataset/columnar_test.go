package dataset_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/microarch"
)

// TestColumnWriterChunked drives the streaming v2 writer shard by
// shard and checks the multi-chunk file reassembles the whole corpus.
func TestColumnWriterChunked(t *testing.T) {
	src := binaryTestCorpus(t)
	var buf bytes.Buffer
	cw, err := dataset.NewColumnWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	const shard = 100
	for lo := 0; lo < len(src); lo += shard {
		hi := lo + shard
		if hi > len(src) {
			hi = len(src)
		}
		if err := cw.WriteChunk(dataset.BuildColumns(src[lo:hi])); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	cs, err := dataset.ReadColumns(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if cs.Len() != len(src) {
		t.Fatalf("chunked file decoded %d rows, want %d", cs.Len(), len(src))
	}
	if !bytes.Equal(jsonBytes(t, cs.Materialize()), jsonBytes(t, src)) {
		t.Error("chunked v2 stream is not bit-identical to the source")
	}
}

// TestColumnsV2RejectsCorruption exercises the v2 decoder's bound and
// structure checks.
func TestColumnsV2RejectsCorruption(t *testing.T) {
	src := binaryTestCorpus(t)[:5]
	good := v2Bytes(t, src)

	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{1, 6, len(good) / 2, len(good) - 1} {
			if _, err := dataset.ReadColumns(bytes.NewReader(good[:cut])); err == nil {
				t.Errorf("truncation at %d accepted", cut)
			}
		}
	})
	t.Run("header only is empty corpus", func(t *testing.T) {
		// Magic + version with zero chunks is a valid empty v2 file —
		// exactly what WriteColumns emits for an empty store.
		cs, err := dataset.ReadColumns(bytes.NewReader(good[:5]))
		if err != nil {
			t.Fatal(err)
		}
		if cs.Len() != 0 {
			t.Errorf("header-only file decoded %d rows", cs.Len())
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] ^= 0xFF
		if _, err := dataset.ReadColumns(bytes.NewReader(bad)); err == nil {
			t.Error("corrupt magic accepted")
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[4] = 0x7F
		if _, err := dataset.ReadColumns(bytes.NewReader(bad)); err == nil {
			t.Error("unknown version accepted")
		}
	})
	t.Run("oversized row count", func(t *testing.T) {
		bad := append([]byte(nil), good[:5]...)
		bad = append(bad, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F) // rows ≫ maxChunkRows
		if _, err := dataset.ReadColumns(bytes.NewReader(bad)); err == nil {
			t.Error("oversized chunk row count accepted")
		}
	})
	t.Run("flipped payload byte", func(t *testing.T) {
		// Flipping a byte in the middle of the section payloads must
		// either fail decoding or change the decoded data — never panic.
		bad := append([]byte(nil), good...)
		bad[len(bad)/2] ^= 0xFF
		cs, err := dataset.ReadColumns(bytes.NewReader(bad))
		if err == nil && bytes.Equal(jsonBytes(t, cs.Materialize()), jsonBytes(t, src)) {
			t.Error("flipped byte decoded to identical data")
		}
	})
}

// TestConcurrentColdReads is the -race regression for the lazy row
// view: goroutines hit one cold column repository at once, each
// starting from a different accessor. The row views are published
// once, so every goroutine must see the same row pointers.
func TestConcurrentColdReads(t *testing.T) {
	rs := binaryTestCorpus(t)
	rp := dataset.NewColumnRepository(dataset.BuildColumns(rs))

	const goroutines = 8
	alls := make([][]*dataset.Result, goroutines)
	sorted := make([][]*dataset.Result, goroutines)
	grouped := make([]map[microarch.Codename][]*dataset.Result, goroutines)
	valid := make([]int, goroutines)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		ops := []func(){
			func() { alls[g] = rp.All() },
			func() { sorted[g] = rp.SortByEP() },
			func() {
				if eps := rp.EPs(); len(eps) != len(rs) {
					t.Errorf("EPs has %d values, want %d", len(eps), len(rs))
				}
			},
			func() { valid[g] = rp.Valid().Len() },
			func() { grouped[g] = rp.ByCodename() },
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for k := range ops {
				ops[(g+k)%len(ops)]()
			}
		}()
	}
	close(start)
	wg.Wait()

	rows := make(map[*dataset.Result]bool, len(rs))
	for _, r := range alls[0] {
		rows[r] = true
	}
	if len(rows) != len(rs) {
		t.Fatalf("All returned %d distinct rows, want %d", len(rows), len(rs))
	}
	for g := 0; g < goroutines; g++ {
		for i := range alls[0] {
			if alls[g][i] != alls[0][i] || sorted[g][i] != sorted[0][i] {
				t.Fatalf("goroutine %d saw a different row pointer at %d", g, i)
			}
			if !rows[sorted[g][i]] {
				t.Fatalf("SortByEP returned a row All does not hold")
			}
		}
		for _, group := range grouped[g] {
			for _, r := range group {
				if !rows[r] {
					t.Fatalf("ByCodename returned a row All does not hold")
				}
			}
		}
		if valid[g] != valid[0] {
			t.Errorf("goroutine %d saw %d valid rows, goroutine 0 saw %d", g, valid[g], valid[0])
		}
	}
}

// TestReadPathDispatch checks the shared CLI loader: CSV and JSON by
// extension, EPFB by content sniffing regardless of extension.
func TestReadPathDispatch(t *testing.T) {
	rs := binaryTestCorpus(t)[:30]
	dir := t.TempDir()
	write := func(name string, enc func(*os.File) error) string {
		t.Helper()
		p := filepath.Join(dir, name)
		f, err := os.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := enc(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return p
	}
	paths := map[string]string{
		"csv":  write("corpus.csv", func(f *os.File) error { return dataset.WriteCSV(f, rs) }),
		"json": write("corpus.json", func(f *os.File) error { return dataset.WriteJSON(f, rs) }),
		// The v2 file deliberately carries a .csv extension: dispatch
		// must sniff the magic, not trust the name.
		"v2": write("corpus_v2.csv", func(f *os.File) error {
			return dataset.WriteColumns(f, dataset.BuildColumns(rs))
		}),
	}
	want := jsonBytes(t, rs)
	for kind, p := range paths {
		rp, err := dataset.ReadPath(p)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !bytes.Equal(jsonBytes(t, rp.All()), want) {
			t.Errorf("%s: loaded corpus differs from source", kind)
		}
	}
	if _, err := dataset.ReadPath(filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("missing file accepted")
	}
	// A retired record-major v1 file is sniffed as EPFB and rejected,
	// never parsed as CSV.
	v1 := write("corpus_v1.epfb", func(f *os.File) error {
		_, err := f.Write(append([]byte("EPFB\x01"), 0x05, 'p', 'o', 'w', 'e', 'r'))
		return err
	})
	if _, err := dataset.ReadPath(v1); err == nil || !strings.Contains(err.Error(), "unsupported binary version 1") {
		t.Errorf("v1 file: err = %v, want an unsupported-version error", err)
	}
}

// TestCSVWriterStreaming checks batch-by-batch CSV output equals the
// one-shot encoder byte for byte, including the header-only edge.
func TestCSVWriterStreaming(t *testing.T) {
	rs := binaryTestCorpus(t)[:47]
	var want bytes.Buffer
	if err := dataset.WriteCSV(&want, rs); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	cw := dataset.NewCSVWriter(&got)
	for lo := 0; lo < len(rs); lo += 10 {
		hi := lo + 10
		if hi > len(rs) {
			hi = len(rs)
		}
		if err := cw.Append(rs[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("streamed CSV differs from WriteCSV")
	}

	var empty, emptyWant bytes.Buffer
	if err := dataset.NewCSVWriter(&empty).Flush(); err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteCSV(&emptyWant, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(empty.Bytes(), emptyWant.Bytes()) {
		t.Error("empty streamed CSV differs from WriteCSV(nil)")
	}
}

// TestJSONWriterStreaming checks batch-by-batch JSON output equals the
// one-shot encoder byte for byte for non-empty input.
func TestJSONWriterStreaming(t *testing.T) {
	rs := binaryTestCorpus(t)[:23]
	var want bytes.Buffer
	if err := dataset.WriteJSON(&want, rs); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	jw := dataset.NewJSONWriter(&got)
	for lo := 0; lo < len(rs); lo += 7 {
		hi := lo + 7
		if hi > len(rs) {
			hi = len(rs)
		}
		if err := jw.Append(rs[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("streamed JSON differs from WriteJSON:\nstream %q...\none-shot %q...",
			truncBytes(got.Bytes()), truncBytes(want.Bytes()))
	}

	var empty bytes.Buffer
	jwe := dataset.NewJSONWriter(&empty)
	if err := jwe.Close(); err != nil {
		t.Fatal(err)
	}
	if empty.String() != "[]\n" {
		t.Errorf("empty stream = %q, want []\\n", empty.String())
	}
}

func truncBytes(b []byte) string {
	if len(b) > 120 {
		b = b[:120]
	}
	return fmt.Sprintf("%s", b)
}
