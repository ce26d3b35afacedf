package main

import (
	"crypto/sha256"
	"fmt"
	"time"
)

// fleetBatch is the analyst and the planner at fleet scale: every pass
// runs the fleet report, then the capacity plan. They share one
// workload because the planner's compute-bound pass alone swung by a
// quarter between runs on a co-tenanted host.
type fleetBatch struct {
	tr *tracer
	f  *fleetReport
	c  *capacityPlan
}

func (b *fleetBatch) pass(op int64) error {
	root := b.tr.begin("pass", op, -1)
	defer b.tr.end(root)
	if err := b.f.report(op, root); err != nil {
		return err
	}
	return b.c.plan(op, root)
}

func runFleetBatch(rc runConfig) (*result, error) {
	res := &result{}
	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}
	var b *fleetBatch
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		tr.setOn(i == 0) // the per-layer set-up numbers come from the first set-up
		c, err := setupCapacityPlan(rc.seed, tr)
		tr.setOn(false)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		b = &fleetBatch{tr: tr, f: newFleetReport(rc.seed, tr), c: c}
		// The first pass runs slower than warm ones, so it is set-up.
		if err := b.pass(int64(-1 - i)); err != nil {
			return nil, fmt.Errorf("set-up pass: %w", err)
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
	}
	digest, sims := sha256.Sum256([]byte(b.f.text)), fmt.Sprint(b.c.sims)

	traced := measurePasses(res, tr, rc.dur, b.pass, func(op int64) error {
		if sha256.Sum256([]byte(b.f.text)) != digest {
			return fmt.Errorf("pass %d report digest differs from the set-up pass", op)
		}
		if fmt.Sprint(b.c.sims) != sims {
			return fmt.Errorf("pass %d fleetsim results differ from the set-up pass", op)
		}
		return nil
	})
	res.peakRSSMB = peakRSSMB()

	// Checks outside the timed region; a failure fails the last pass.
	for _, check := range []func() error{b.f.checkReencode, b.f.checkStoreReport, b.c.checkUnpruned, b.c.checkOneWorker} {
		if err := check(); err != nil {
			res.fail("%v", err)
		}
	}

	if rc.trace {
		layers := byLayer(tr.snapshot())
		ops := opsOf(layers["pass"])
		res.layer = b.f.layerMetrics(layers, ops)
		for k, v := range b.c.layerMetrics(layers, ops) {
			res.layer[k] = v
		}
		res.layer["tracing.overhead_pct"] = overheadPct(res.opMs, traced)
	}
	return res, nil
}
