package shard

import (
	"testing"
	"unsafe"

	"trimcaching/internal/cachesim"
	"trimcaching/internal/dynamics"
	"trimcaching/internal/rng"
)

// traceShardConfig lifts the smoke-scale scenario into a sharded
// trace-driven config: TraceMeasurement windows at the checkpoint length
// and a clonable stateful TraceTrigger, the same shape cmd/benchdyn -serve
// runs at K = 100k.
func traceShardConfig(t *testing.T, shards, workers int) Config {
	t.Helper()
	dc, err := dynamics.NewSmokeScaleConfig(dynamics.Incremental)
	if err != nil {
		t.Fatal(err)
	}
	dc.Tracks[0].Trigger = &dynamics.TraceTrigger{Degradation: 0.05, Window: 2}
	dc.Measurement = &dynamics.TraceMeasurement{
		RequestsPerUserPerHour: 120,
		WindowS:                float64(dc.CheckpointMin) * 60,
	}
	cfg, err := FromDynamics(dc, shards)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = workers
	return cfg
}

// TestTraceShardOneBitIdentical is the trace-mode half of the Shards = 1
// contract: the single-cell sharded engine must reproduce the unsharded
// trace-driven timeline bit for bit — measured hit ratios, replacement
// flags, and every field of the per-checkpoint serving window (counts,
// latency quantiles, peak concurrency), which the single-cell aggregate
// passes through verbatim.
func TestTraceShardOneBitIdentical(t *testing.T) {
	dc, err := dynamics.NewSmokeScaleConfig(dynamics.Incremental)
	if err != nil {
		t.Fatal(err)
	}
	dc.Tracks[0].Trigger = &dynamics.TraceTrigger{Degradation: 0.05, Window: 2}
	dc.Measurement = &dynamics.TraceMeasurement{
		RequestsPerUserPerHour: 120,
		WindowS:                float64(dc.CheckpointMin) * 60,
	}
	want, err := dynamics.Run(dc, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(traceShardConfig(t, 1, 0), rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	sameSteps(t, "shards=1 vs unsharded", res.Steps, want.Steps)
	if res.Steps[1].Serve[0].Requests == 0 {
		t.Fatal("serving window carried no requests; the pin is vacuous")
	}
}

// TestTraceShardWorkerDeterminism pins the sharded serving timeline —
// including the merged latency quantiles — to be bit-identical for any
// worker count: cells are measured in parallel but aggregated in cell
// order, and every cell's streams derive from its own splits.
func TestTraceShardWorkerDeterminism(t *testing.T) {
	var ref *Result
	for _, workers := range []int{1, 2, 4} {
		res, err := Run(traceShardConfig(t, 2, workers), rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		sameSteps(t, "workers", res.Steps, ref.Steps)
	}
	if ref.Handoffs == 0 {
		t.Error("sharded trace timeline produced no handoffs; the scenario no longer exercises ownership transfer")
	}
}

// TestTraceShardConservation checks the sharded serving aggregate against
// the global request stream: every synthesized request is served by exactly
// one cell (its owner's), so the aggregated request count per checkpoint
// equals the unsharded engine's bit for bit — global-user-keyed arrival
// streams make the window partition-invariant — and the outcome counters
// partition the total. Latencies and hit ratios are not compared: cells
// cannot relay across boundaries, so serving outcomes legitimately differ.
func TestTraceShardConservation(t *testing.T) {
	one, err := Run(traceShardConfig(t, 1, 0), rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	four, err := Run(traceShardConfig(t, 2, 0), rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	if len(four.Steps) != len(one.Steps) {
		t.Fatalf("%d steps vs %d", len(four.Steps), len(one.Steps))
	}
	requests := 0
	for i, st := range four.Steps {
		for a, sv := range st.Serve {
			want := one.Steps[i].Serve[a]
			if sv.Requests != want.Requests {
				t.Errorf("step %d track %d: %d requests sharded vs %d unsharded", i, a, sv.Requests, want.Requests)
			}
			if got := sv.Direct + sv.Relay + sv.Cloud + sv.Failed; got != sv.Requests {
				t.Errorf("step %d track %d: outcomes sum to %d, want %d", i, a, got, sv.Requests)
			}
			if sv.HitRatio < 0 || sv.HitRatio > 1 {
				t.Errorf("step %d track %d: hit ratio %v outside [0,1]", i, a, sv.HitRatio)
			}
			if sv.P50Latency > sv.P95Latency || sv.P95Latency > sv.P99Latency {
				t.Errorf("step %d track %d: quantiles out of order: p50=%v p95=%v p99=%v",
					i, a, sv.P50Latency, sv.P95Latency, sv.P99Latency)
			}
			requests += sv.Requests
		}
	}
	if requests == 0 {
		t.Fatal("no requests served; conservation check is vacuous")
	}
}

// TestEventResultSize guards the unsafeSizeofEventResult constant the
// memory accounting uses.
func TestEventResultSize(t *testing.T) {
	if s := unsafe.Sizeof(cachesim.EventResult{}); s != unsafeSizeofEventResult {
		t.Fatalf("EventResult is %d bytes, constant says %d", s, unsafeSizeofEventResult)
	}
}
