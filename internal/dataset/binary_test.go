package dataset_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/synth"
)

// binaryTestCorpus returns a mixed corpus: the full default seed-1 set,
// including the non-compliant results with truncated level lists that
// exercise the codec's variable-length paths.
func binaryTestCorpus(t testing.TB) []*dataset.Result {
	t.Helper()
	rs, err := synth.Generate(synth.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func jsonBytes(t testing.TB, rs []*dataset.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := dataset.WriteJSON(&buf, rs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// v2Bytes encodes rs in the EPFB v2 layout.
func v2Bytes(t testing.TB, rs []*dataset.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := dataset.WriteColumns(&buf, dataset.BuildColumns(rs)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBinaryRoundTripExact pins full fidelity: an EPFB round trip
// reproduces every field of the source bit-for-bit, variable-length
// level lists included (compared through the JSON form, whose
// shortest-representation floats are exact).
func TestBinaryRoundTripExact(t *testing.T) {
	src := binaryTestCorpus(t)
	cs, err := dataset.ReadColumns(bytes.NewReader(v2Bytes(t, src)))
	if err != nil {
		t.Fatal(err)
	}
	got := cs.Materialize()
	if len(got) != len(src) {
		t.Fatalf("round trip returned %d results, want %d", len(got), len(src))
	}
	if !bytes.Equal(jsonBytes(t, got), jsonBytes(t, src)) {
		t.Error("binary round trip is not bit-identical to the source")
	}
}

// TestBinaryMatchesCSVAndJSONRoundTrip checks the acceptance contract:
// for standard ten-level results, reading back the binary form equals
// reading back the CSV and JSON forms bit-for-bit.
func TestBinaryMatchesCSVAndJSONRoundTrip(t *testing.T) {
	rp, err := synth.NewRepository(synth.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	valid := rp.Valid().All()

	var csv, js bytes.Buffer
	if err := dataset.WriteCSV(&csv, valid); err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteJSON(&js, valid); err != nil {
		t.Fatal(err)
	}

	cs, err := dataset.ReadColumnsBytes(v2Bytes(t, valid))
	if err != nil {
		t.Fatal(err)
	}
	fromCSV, err := dataset.ReadCSV(&csv)
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := dataset.ReadJSON(&js)
	if err != nil {
		t.Fatal(err)
	}

	want := jsonBytes(t, cs.Materialize())
	if !bytes.Equal(want, jsonBytes(t, fromCSV)) {
		t.Error("binary round trip differs from CSV round trip")
	}
	if !bytes.Equal(want, jsonBytes(t, fromJSON)) {
		t.Error("binary round trip differs from JSON round trip")
	}
}

// TestBinaryRejectsCorruption exercises the header and framing checks
// every EPFB load passes through.
func TestBinaryRejectsCorruption(t *testing.T) {
	good := v2Bytes(t, binaryTestCorpus(t)[:3])

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] ^= 0xFF
		if _, err := dataset.ReadColumnsBytes(bad); err == nil {
			t.Error("corrupt magic accepted")
		}
	})
	t.Run("bad version", func(t *testing.T) {
		// The retired record-major v1 layout fails like any unknown
		// version.
		bad := append([]byte(nil), good...)
		for _, v := range []byte{0x01, 0x7F} {
			bad[4] = v
			_, err := dataset.ReadColumnsBytes(bad)
			if want := fmt.Sprintf("unsupported binary version %d", v); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("version %d: err = %v, want %q", v, err, want)
			}
		}
	})
	t.Run("truncated record", func(t *testing.T) {
		if _, err := dataset.ReadColumnsBytes(good[:len(good)-10]); err == nil {
			t.Error("truncated stream accepted")
		}
	})
	t.Run("oversized length prefix", func(t *testing.T) {
		// A one-row chunk whose first section claims 4 GiB.
		bad := append([]byte(nil), good[:5]...)
		bad = append(bad, 0x01, 0x01, 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F)
		if _, err := dataset.ReadColumnsBytes(bad); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
			t.Errorf("oversized section length: err = %v, want a limit error", err)
		}
	})
	t.Run("empty stream", func(t *testing.T) {
		if _, err := dataset.ReadColumns(bytes.NewReader(nil)); err == nil {
			t.Error("empty stream accepted")
		}
	})
}

// FuzzReadBinary hardens the EPFB decoder: arbitrary bytes must either
// fail cleanly or decode to a corpus that re-encodes and round-trips
// byte for byte, and whose kernel-derived metric columns equal each
// decoded row's core.Curve accessors bit for bit. It must never panic
// or allocate unboundedly (the per-chunk and per-section caps are what
// this fuzz exercises), and a version 1 header must always fail.
func FuzzReadBinary(f *testing.F) {
	// One row per seed keeps the fuzzer's minimization passes short.
	// Short strings do the same; the kernel never reads them.
	rs := deriveTestCorpus(f)
	seedRows := append([]*dataset.Result{rs[0]}, rs[len(rs)-10:]...) // a plain row and the tampered tail
	seedRows = append(seedRows, poisonedRows(rs, 4, 1)...)           // NaN, ±Inf, zero and negative cells
	var seeds [][]byte
	for _, r := range seedRows {
		c := r.Clone()
		c.Vendor, c.System, c.CPUModel, c.JVM, c.OS = "V", "S", "C", "J", "O"
		seeds = append(seeds, v2Bytes(f, []*dataset.Result{c}))
	}
	f.Add(seeds[0])
	f.Add([]byte{})
	f.Add([]byte("EPFB"))
	f.Add([]byte("EPFB\x02"))
	f.Add(append([]byte("EPFB\x01"), 0xFF, 0xFF, 0xFF, 0xFF, 0x0F))       // retired v1 header
	f.Add(append([]byte("EPFB\x02"), 0xFF, 0xFF, 0xFF, 0xFF, 0x7F))       // huge row count
	f.Add(append([]byte("EPFB\x02\x01\x01\x01"), 0xFF, 0xFF, 0xFF, 0x7F)) // huge section size
	f.Add(seeds[0][:len(seeds[0])-3])
	for _, s := range seeds[1:] {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		cs, err := dataset.ReadColumnsBytes(input)
		if err != nil {
			return
		}
		if bytes.HasPrefix(input, []byte("EPFB\x01")) {
			t.Fatal("a version 1 header decoded")
		}
		for i, r := range cs.Materialize() {
			if err := curveMismatch(cs, i, r); err != nil {
				t.Fatal(err)
			}
		}
		var re bytes.Buffer
		if err := dataset.WriteColumns(&re, cs); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := dataset.ReadColumns(bytes.NewReader(re.Bytes()))
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		var again bytes.Buffer
		if err := dataset.WriteColumns(&again, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), re.Bytes()) {
			t.Fatalf("round trip changed the corpus (%d rows)", cs.Len())
		}
	})
}
