// Columnar-core benchmark set: generation, load, full-analysis report,
// and cluster composition at fleet scale (10k / 100k / 1M servers).
// `make colbench` runs every benchmark here exactly once (benchtime=1x)
// as the CI smoke; BENCH_columnar.json records the trajectory.
package repro_test

import (
	"bytes"
	"sync"
	"testing"

	"repro"
)

// colStores caches one generated column store per fleet size, shared
// across the load/compose benchmarks (their setup is not what's
// measured). The report benchmarks generate fresh stores instead, so
// the first timed iteration pays the cold derived-column build.
var (
	colStoreMu sync.Mutex
	colStores  = map[int]*repro.ColumnStore{}
)

func colStore(b *testing.B, n int) *repro.ColumnStore {
	b.Helper()
	colStoreMu.Lock()
	defer colStoreMu.Unlock()
	if cs, ok := colStores[n]; ok {
		return cs
	}
	cs, err := repro.GenerateFleetStore(repro.FleetConfig{Seed: 1, Servers: n})
	if err != nil {
		b.Fatal(err)
	}
	colStores[n] = cs
	return cs
}

// ---- generation ----

func benchmarkColumnarGenerate(b *testing.B, n int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cs, err := repro.GenerateFleetStore(repro.FleetConfig{Seed: 1, Servers: n})
		if err != nil {
			b.Fatal(err)
		}
		if cs.Len() != n {
			b.Fatalf("generated %d rows", cs.Len())
		}
	}
}

func BenchmarkColumnarGenerate10k(b *testing.B)  { benchmarkColumnarGenerate(b, 10_000) }
func BenchmarkColumnarGenerate100k(b *testing.B) { benchmarkColumnarGenerate(b, 100_000) }
func BenchmarkColumnarGenerate1M(b *testing.B)   { benchmarkColumnarGenerate(b, 1_000_000) }

// BenchmarkColumnarGenerateEPFB100k is the generation stage of a
// fleet-batch pass (specgen -format epfb into memory): shards stream
// from GenerateFleetShards into a ColumnWriter over a reused buffer.
// Unlike GenerateFleetStore, whose per-shard callback only collects,
// the callback here encodes, so the benchmark shows how well shard
// generation overlaps with the caller's consumption.
func BenchmarkColumnarGenerateEPFB100k(b *testing.B) {
	const n = 100_000
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		cw, err := repro.NewColumnWriter(&buf)
		if err != nil {
			b.Fatal(err)
		}
		rows := 0
		err = repro.GenerateFleetShards(repro.FleetConfig{Seed: 1, Servers: n}, func(_ int, cs *repro.ColumnStore) error {
			rows += cs.Len()
			return cw.WriteChunk(cs)
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := cw.Flush(); err != nil {
			b.Fatal(err)
		}
		if rows != n {
			b.Fatalf("streamed %d rows", rows)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

// ---- binary load: EPFB v2 through ReadColumnsBytes ----
//
// ReadColumnsBytes is the ReadPath route for on-disk corpora: whole
// column sections decode in place into a ColumnStore.

func benchmarkColumnarLoad(b *testing.B, n int) {
	var buf bytes.Buffer
	if err := repro.WriteColumns(&buf, colStore(b, n)); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := repro.ReadColumnsBytes(data)
		if err != nil {
			b.Fatal(err)
		}
		if got.Len() != n {
			b.Fatalf("loaded %d rows", got.Len())
		}
	}
}

func BenchmarkColumnarLoadV2_10k(b *testing.B)  { benchmarkColumnarLoad(b, 10_000) }
func BenchmarkColumnarLoadV2_100k(b *testing.B) { benchmarkColumnarLoad(b, 100_000) }
func BenchmarkColumnarLoadV2_1M(b *testing.B)   { benchmarkColumnarLoad(b, 1_000_000) }

// ---- cold derived-metric build ----

// BenchmarkColumnarDerive100k times the derived metric layer alone:
// each iteration decodes a fresh 100k-server store outside the timer,
// then Precompute derives every metric column from its raw columns.
func BenchmarkColumnarDerive100k(b *testing.B) {
	const n = 100_000
	var buf bytes.Buffer
	if err := repro.WriteColumns(&buf, colStore(b, n)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cs, err := repro.ReadColumnsBytes(buf.Bytes())
		if err != nil {
			b.Fatal(err)
		}
		rp := repro.NewColumnRepository(cs)
		b.StartTimer()
		rp.Precompute()
	}
}

// ---- full analysis suite + text report ----

var colReportLen int

func benchmarkColumnarReport(b *testing.B, n int) {
	// A fresh store per benchmark run: the first timed iteration pays
	// the cold derived-metric build, exactly like a CLI invocation on a
	// loaded corpus.
	cs, err := repro.GenerateFleetStore(repro.FleetConfig{Seed: 1, Servers: n})
	if err != nil {
		b.Fatal(err)
	}
	rp := repro.NewColumnRepository(cs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := repro.FullReport(rp, repro.ReportOptions{Sweeps: false})
		if err != nil {
			b.Fatal(err)
		}
		colReportLen = len(out)
	}
}

func BenchmarkColumnarReport10k(b *testing.B)  { benchmarkColumnarReport(b, 10_000) }
func BenchmarkColumnarReport100k(b *testing.B) { benchmarkColumnarReport(b, 100_000) }
func BenchmarkColumnarReport1M(b *testing.B)   { benchmarkColumnarReport(b, 1_000_000) }

// BenchmarkColumnarReportCold100k times the report as a fleet-batch
// pass or a `specreport -in` run pays for it: every iteration decodes a
// fresh 100k-server store from EPFB v2 bytes and derives its metric
// columns outside the timer, then renders the full report with nothing
// memoized yet. BenchmarkColumnarReport100k instead reuses one store,
// so after its first iteration it times warm, memoized renders.
func BenchmarkColumnarReportCold100k(b *testing.B) {
	const n = 100_000
	var buf bytes.Buffer
	if err := repro.WriteColumns(&buf, colStore(b, n)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cs, err := repro.ReadColumnsBytes(buf.Bytes())
		if err != nil {
			b.Fatal(err)
		}
		rp := repro.NewColumnRepository(cs)
		rp.Precompute()
		b.StartTimer()
		out, err := repro.FullReport(rp, repro.ReportOptions{Sweeps: false})
		if err != nil {
			b.Fatal(err)
		}
		colReportLen = len(out)
	}
}

// ---- cluster composition at 1M (10k/100k live in bench_test.go) ----

func BenchmarkColumnarCompose1M(b *testing.B) {
	fleet := benchFleetProfiles(b, 1_000_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg, err := repro.ComposeCluster(fleet, repro.PolicyPack)
		if err != nil {
			b.Fatal(err)
		}
		if agg.EP() <= 0 {
			b.Fatal("non-positive cluster EP")
		}
	}
}
