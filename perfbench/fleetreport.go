package main

import (
	"bytes"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/report"
	"repro/internal/synth"
)

// fleetServers sizes the report half's corpus: its EPFB v2 file is far
// larger than any CPU cache, yet a warm pass stays near a second, so a
// run collects enough passes for a steady median.
const fleetServers = 100_000

// fleetReport is the analyst at fleet scale, the first half of a
// fleet-batch pass: `specgen -servers N -format epfb` into a reused
// in-memory buffer, then `specreport -in FILE -no-sweeps` over those
// bytes.
type fleetReport struct {
	tr   *tracer
	cfg  synth.FleetConfig
	opts report.Options
	buf  bytes.Buffer

	// What the last pass produced, kept for the checks.
	chunks []int
	store  *dataset.ColumnStore
	text   string
}

func newFleetReport(seed int64, tr *tracer) *fleetReport {
	return &fleetReport{
		tr:   tr,
		cfg:  synth.FleetConfig{Seed: seed, Servers: fleetServers},
		opts: report.Options{Sweeps: false, SweepSeconds: 30, Seed: seed},
	}
}

// report generates and encodes the fleet, then decodes, derives and
// reports it, under span root.
func (f *fleetReport) report(op int64, root int) error {
	tr := f.tr
	f.buf.Reset()
	f.chunks = f.chunks[:0]
	cw, err := dataset.NewColumnWriter(&f.buf)
	if err != nil {
		return err
	}
	gen := tr.begin("synth.GenerateFleetShards", op, root)
	err = synth.GenerateFleetShards(f.cfg, func(_ int, cs *dataset.ColumnStore) error {
		id := tr.begin("dataset.WriteChunk", op, gen)
		defer tr.end(id)
		f.chunks = append(f.chunks, cs.Len())
		return cw.WriteChunk(cs)
	})
	tr.end(gen)
	if err != nil {
		return err
	}
	id := tr.begin("dataset.Flush", op, root)
	err = cw.Flush()
	tr.end(id)
	if err != nil {
		return err
	}

	id = tr.begin("dataset.ReadColumnsBytes", op, root)
	cs, err := dataset.ReadColumnsBytes(f.buf.Bytes())
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("dataset.derive", op, root)
	rp := dataset.NewColumnRepository(cs)
	rp.Precompute()
	valid := rp.Valid()
	tr.end(id)
	id = tr.begin("report.Full", op, root)
	text, err := report.Full(valid, f.opts)
	tr.end(id)
	if err != nil {
		return err
	}
	f.store, f.text = cs, text
	return nil
}

// checkReencode re-encodes the last decoded store in the pass's chunk
// geometry and compares it with the file the pass wrote.
func (f *fleetReport) checkReencode() error {
	cmp := &compareWriter{want: f.buf.Bytes()}
	cw, err := dataset.NewColumnWriter(cmp)
	if err != nil {
		return err
	}
	lo := 0
	for _, n := range f.chunks {
		rows := make([]int32, n)
		for i := range rows {
			rows[i] = int32(lo + i)
		}
		if err := cw.WriteChunk(f.store.Gather(rows)); err != nil {
			return err
		}
		lo += n
	}
	if err := cw.Flush(); err != nil {
		return err
	}
	if cmp.diff || cmp.off != len(cmp.want) {
		return fmt.Errorf("re-encoded file differs from the written one (first difference near byte %d of %d)", cmp.off, len(cmp.want))
	}
	return nil
}

// checkStoreReport renders the report straight from a generated store
// and compares it with the report of the decoded bytes.
func (f *fleetReport) checkStoreReport() error {
	cs, err := synth.GenerateFleetStore(f.cfg)
	if err != nil {
		return err
	}
	want, err := report.Full(dataset.NewColumnRepository(cs).Valid(), f.opts)
	if err != nil {
		return err
	}
	if want != f.text {
		return fmt.Errorf("report from decoded bytes (%d bytes) differs from report of the generated store (%d bytes)", len(f.text), len(want))
	}
	return nil
}

// compareWriter checks written bytes against want as they stream in.
type compareWriter struct {
	want []byte
	off  int
	diff bool
}

func (c *compareWriter) Write(p []byte) (int, error) {
	if !c.diff {
		if c.off+len(p) > len(c.want) || !bytes.Equal(p, c.want[c.off:c.off+len(p)]) {
			c.diff = true
		} else {
			c.off += len(p)
		}
	}
	return len(p), nil
}

// layerMetrics derives the analyst's per-layer metrics from the traced
// spans of ops.
func (f *fleetReport) layerMetrics(layers map[string]*layerTotals, ops []int64) map[string]float64 {
	fileMB := float64(f.buf.Len()) / 1e6
	gen := medianOf(layers, ops, "synth.GenerateFleetShards")
	enc := medianOf(layers, ops, "dataset.WriteChunk", "dataset.Flush")
	dec := medianOf(layers, ops, "dataset.ReadColumnsBytes")
	der := medianOf(layers, ops, "dataset.derive")
	rep := medianOf(layers, ops, "report.Full")
	decDer := medianOf(layers, ops, "dataset.ReadColumnsBytes", "dataset.derive")
	genStage := medianOf(layers, ops, "synth.GenerateFleetShards", "dataset.WriteChunk", "dataset.Flush")
	anaStage := medianOf(layers, ops, "dataset.ReadColumnsBytes", "dataset.derive", "report.Full")
	return map[string]float64{
		"synth.gen_s":             gen.s,
		"synth.allocs_per_server": gen.objs / fleetServers,
		"synth.alloc_mb":          gen.bytes / 1e6,
		"dataset.encode_s":        enc.s,
		"dataset.encode_mb_per_s": fileMB / enc.s,
		"dataset.file_mb":         fileMB,
		"dataset.decode_s":        dec.s,
		"dataset.decode_mb_per_s": fileMB / dec.s,
		"dataset.derive_s":        der.s,
		"dataset.allocs":          decDer.objs,
		"report.render_s":         rep.s,
		"report.alloc_mb":         rep.bytes / 1e6,
		"report.allocs":           rep.objs,
		"pipeline.gen_s":          genStage.s,
		"pipeline.analyze_s":      anaStage.s,
	}
}
