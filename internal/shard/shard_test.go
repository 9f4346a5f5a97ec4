package shard

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"trimcaching/internal/dynamics"
	"trimcaching/internal/geom"
	"trimcaching/internal/placement"
	"trimcaching/internal/rng"
)

// smokeShardConfig lifts dynamics.NewSmokeScaleConfig into a sharded
// config — the CI shard smoke's scenario.
func smokeShardConfig(t *testing.T, shards, workers int, mode dynamics.Mode) Config {
	t.Helper()
	dc, err := dynamics.NewSmokeScaleConfig(dynamics.Incremental)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := FromDynamics(dc, shards)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = workers
	cfg.Mode = mode
	return cfg
}

func sameSteps(t *testing.T, label string, got, want []dynamics.Step) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d steps, want %d", label, len(got), len(want))
	}
	for i := range want {
		for a := range want[i].HitRatio {
			if got[i].HitRatio[a] != want[i].HitRatio[a] {
				t.Errorf("%s: step %d track %d hit ratio %v, want %v",
					label, i, a, got[i].HitRatio[a], want[i].HitRatio[a])
			}
			if got[i].Replaced[a] != want[i].Replaced[a] {
				t.Errorf("%s: step %d track %d replaced %v, want %v",
					label, i, a, got[i].Replaced[a], want[i].Replaced[a])
			}
		}
		if len(got[i].Serve) != len(want[i].Serve) {
			t.Fatalf("%s: step %d has %d serve tracks, want %d", label, i, len(got[i].Serve), len(want[i].Serve))
		}
		for a := range want[i].Serve {
			if got[i].Serve[a] != want[i].Serve[a] {
				t.Errorf("%s: step %d track %d serve diverged:\n got %+v\nwant %+v",
					label, i, a, got[i].Serve[a], want[i].Serve[a])
			}
		}
	}
}

// TestSingleShardBitIdentical pins the Shards = 1 contract: the sharded
// engine's timeline — hit ratios, replacement flags, replacement counts —
// is bit-identical to dynamics.Run on the same configuration and seed, in
// both cell refresh modes.
func TestSingleShardBitIdentical(t *testing.T) {
	for _, mode := range []dynamics.Mode{dynamics.Incremental, dynamics.Rebuild} {
		dc, err := dynamics.NewSmokeScaleConfig(mode)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := dynamics.Run(dc, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		cfg := smokeShardConfig(t, 1, 2, mode)
		res, err := Run(cfg, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		sameSteps(t, fmt.Sprintf("mode %d", int(mode)), res.Steps, ref.Steps)
		for a := range ref.Replacements {
			if res.Replacements[a] != ref.Replacements[a] {
				t.Errorf("mode %v: track %d replacements %d, want %d", mode, a, res.Replacements[a], ref.Replacements[a])
			}
		}
		if res.Handoffs != 0 || res.Grows != 0 {
			t.Errorf("mode %v: single shard reported %d handoffs, %d grows", mode, res.Handoffs, res.Grows)
		}
	}
}

// TestShardSmoke is the CI shard smoke: two cells on the smoke scenario,
// pinning (a) worker-count determinism, (b) the incremental handoff deltas
// bit-identical to the per-cell rebuild reference, and (c) the sharded
// aggregate within a coarse tolerance of the unsharded hit ratio — cells
// place and serve autonomously (boundary users lose cross-cell service),
// so the aggregates are close but not equal at this radio-coupled scale.
func TestShardSmoke(t *testing.T) {
	serial, err := Run(smokeShardConfig(t, 2, 1, dynamics.Incremental), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(smokeShardConfig(t, 2, 4, dynamics.Incremental), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	sameSteps(t, "workers", parallel.Steps, serial.Steps)

	rebuilt, err := Run(smokeShardConfig(t, 2, 2, dynamics.Rebuild), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	sameSteps(t, "rebuild reference", serial.Steps, rebuilt.Steps)

	dc, err := dynamics.NewSmokeScaleConfig(dynamics.Incremental)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := dynamics.Run(dc, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Steps {
		for a := range ref.Steps[i].HitRatio {
			if d := math.Abs(serial.Steps[i].HitRatio[a] - ref.Steps[i].HitRatio[a]); d > 0.1 {
				t.Errorf("step %d track %d: sharded %v vs unsharded %v (|diff| %v > 0.1)",
					i, a, serial.Steps[i].HitRatio[a], ref.Steps[i].HitRatio[a], d)
			}
		}
	}
	if serial.Handoffs == 0 {
		t.Error("smoke timeline produced no handoffs; the scenario no longer exercises ownership transfer")
	}
}

// TestGrow forces slot-table overflow with a tiny headroom and checks the
// grown timeline still matches the per-cell rebuild reference bit for bit
// (growth is part of the deterministic plan phase, not a drift source).
func TestGrow(t *testing.T) {
	mk := func(mode dynamics.Mode) Config {
		cfg := smokeShardConfig(t, 2, 2, mode)
		cfg.SlotHeadroom = 1e-9
		cfg.DurationMin = 80
		return cfg
	}
	inc, err := Run(mk(dynamics.Incremental), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	reb, err := Run(mk(dynamics.Rebuild), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	sameSteps(t, "grow", inc.Steps, reb.Steps)
	if inc.Grows != reb.Grows {
		t.Errorf("grows diverged: %d vs %d", inc.Grows, reb.Grows)
	}
	t.Logf("grows=%d handoffs=%d", inc.Grows, inc.Handoffs)
}

// TestGrowKeepsFaults pins fault state across slot-table overflow grows:
// with one server down and another degraded, the overflowing cell's
// rebuilt instance must still report the outage and the capacity block,
// its engine must run at the degraded budget, and a restore afterwards
// must return the configured capacity — with Incremental and Rebuild cell
// refresh bit-identical throughout.
func TestGrowKeepsFaults(t *testing.T) {
	const down, degraded = 0, 1 // both owned by the cell that overflows
	const budget = 4 << 30
	var want []dynamics.Step
	for _, mode := range []dynamics.Mode{dynamics.Incremental, dynamics.Rebuild} {
		cfg := smokeShardConfig(t, 2, 2, mode)
		cfg.SlotHeadroom = 1e-9
		cfg.DurationMin = 80
		se, err := NewEngine(cfg, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		if err := se.SetServersDown([]int{down}, true); err != nil {
			t.Fatal(err)
		}
		if err := se.SetServerCapacity(degraded, budget); err != nil {
			t.Fatal(err)
		}
		if err := se.ForceReplace(1); err != nil {
			t.Fatal(err)
		}
		owner, jDown := ownerCell(t, se, down)
		degOwner, jDeg := ownerCell(t, se, degraded)
		if degOwner != owner {
			t.Fatalf("servers %d and %d are owned by different cells", down, degraded)
		}
		retiring := owner.eng
		var steps []dynamics.Step
		checkpoint := func(cp int) {
			st, err := se.Checkpoint(cp)
			if err != nil {
				t.Fatal(err)
			}
			steps = append(steps, st.Clone())
		}
		cp := 1
		for ; owner.eng == retiring; cp++ {
			if cp > se.Checkpoints() {
				t.Fatalf("mode %d: the faulted cell never grew", int(mode))
			}
			checkpoint(cp)
		}
		ins := owner.eng.Instance()
		if !ins.ServerDown(jDown) {
			t.Errorf("mode %d: grown cell lost the outage of server %d", int(mode), down)
		}
		if !ins.CapBlocked(jDeg, 0) {
			t.Errorf("mode %d: grown cell lost the capacity block of server %d", int(mode), degraded)
		}
		if got := owner.eng.ServerCapacityBytes(jDeg); got != budget {
			t.Errorf("mode %d: grown cell's live capacity is %d, want %d", int(mode), got, budget)
		}

		if err := se.SetServersDown([]int{down}, false); err != nil {
			t.Fatal(err)
		}
		if err := se.SetServerCapacity(degraded, -1); err != nil {
			t.Fatal(err)
		}
		if owner.eng.Instance().ServerDown(jDown) {
			t.Errorf("mode %d: server %d still down after recovery", int(mode), down)
		}
		if got := owner.eng.ServerCapacityBytes(jDeg); got != cfg.Capacities[degraded] {
			t.Errorf("mode %d: restored capacity is %d, want the configured %d", int(mode), got, cfg.Capacities[degraded])
		}
		if err := se.ForceReplace(cp); err != nil {
			t.Fatal(err)
		}
		checkpoint(cp)
		if want == nil {
			want = steps
		} else {
			sameSteps(t, "grown faults: rebuild vs incremental", steps, want)
		}
	}
}

// ownerCell returns the cell owning global server m and m's local index.
func ownerCell(t *testing.T, se *Engine, m int) (*cell, int) {
	t.Helper()
	for _, sh := range se.cells {
		if j := sort.SearchInts(sh.servers, m); j < len(sh.servers) && sh.servers[j] == m {
			return sh, j
		}
	}
	t.Fatalf("server %d owned by no cell", m)
	return nil, 0
}

func TestMakeGrid(t *testing.T) {
	cases := []struct{ shards, gx, gy int }{
		{1, 1, 1}, {2, 2, 1}, {4, 2, 2}, {6, 3, 2}, {8, 4, 2}, {7, 7, 1}, {9, 3, 3}, {12, 4, 3},
	}
	for _, c := range cases {
		g := makeGrid(c.shards, 1000)
		if g.gx != c.gx || g.gy != c.gy {
			t.Errorf("makeGrid(%d): %dx%d, want %dx%d", c.shards, g.gx, g.gy, c.gx, c.gy)
		}
	}
	g := makeGrid(4, 1000)
	if got := g.cellOf(geom.Point{X: 1000, Y: 1000}); got != 3 {
		t.Errorf("corner point landed in cell %d, want 3 (clamped)", got)
	}
	if got := g.cellOf(geom.Point{X: 0, Y: 0}); got != 0 {
		t.Errorf("origin landed in cell %d, want 0", got)
	}
}

func TestConfigValidate(t *testing.T) {
	base := func() Config { return smokeShardConfig(t, 2, 0, dynamics.Incremental) }

	cfg := base()
	cfg.Instance = nil
	if err := cfg.Validate(); err == nil {
		t.Error("nil instance accepted")
	}
	cfg = base()
	cfg.Shards = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero shards accepted")
	}
	// A stateful trigger that implements TriggerCloner is accepted at any
	// shard count: each cell gets its own clone. One that does not must be
	// rejected at Shards > 1 — sharing its history across cells would mix
	// their measurement streams.
	cfg = base()
	cfg.Tracks = []dynamics.Track{{Algorithm: cfg.Tracks[0].Algorithm, Trigger: &dynamics.TraceTrigger{Degradation: 0.1}}}
	if err := cfg.Validate(); err != nil {
		t.Errorf("clonable stateful trigger rejected with 2 shards: %v", err)
	}
	cfg.Tracks[0].Trigger = &statefulTrigger{}
	if err := cfg.Validate(); err == nil {
		t.Error("unclonable stateful trigger accepted with 2 shards")
	}
	cfg.Shards = 1
	if err := cfg.Validate(); err != nil {
		t.Errorf("stateful trigger rejected with 1 shard: %v", err)
	}
	cfg = base()
	cfg.Capacities = cfg.Capacities[:1]
	if err := cfg.Validate(); err == nil {
		t.Error("capacity length mismatch accepted")
	}

	// Far more shards than the deployment supports: some cell owns no
	// servers and construction must fail loudly.
	cfg = base()
	cfg.Shards = 64
	if _, err := NewEngine(cfg, rng.New(1)); err == nil {
		t.Error("64 cells over 4 servers accepted")
	}

	// A plain TraceMeasurement lifts into Config.Trace; one that is already
	// shard-specialized (UserKey or StreamSalt set) must be rejected, and so
	// must any other custom measurement.
	dc, err := dynamics.NewSmokeScaleConfig(dynamics.Incremental)
	if err != nil {
		t.Fatal(err)
	}
	dc.Measurement = &dynamics.TraceMeasurement{RequestsPerUserPerHour: 30, WindowS: 600}
	lifted, err := FromDynamics(dc, 2)
	if err != nil {
		t.Fatalf("plain trace measurement rejected: %v", err)
	}
	if lifted.Trace == nil || lifted.Trace.RequestsPerUserPerHour != 30 || lifted.Trace.WindowS != 600 {
		t.Errorf("trace measurement lifted incorrectly: %+v", lifted.Trace)
	}
	dc.Measurement = &dynamics.TraceMeasurement{RequestsPerUserPerHour: 30, WindowS: 600, StreamSalt: 7}
	if _, err := FromDynamics(dc, 2); err == nil {
		t.Error("shard-specialized trace measurement lifted silently")
	}
	dc.Measurement = fakeMeasurement{}
	if _, err := FromDynamics(dc, 2); err == nil {
		t.Error("custom measurement lifted silently")
	}
}

// statefulTrigger implements dynamics.Resetter but not TriggerCloner, so
// Validate must reject it at Shards > 1.
type statefulTrigger struct{}

func (statefulTrigger) Name() string                    { return "stateful" }
func (statefulTrigger) Fire(int, float64, float64) bool { return false }
func (statefulTrigger) Reset()                          {}

// fakeMeasurement is a custom Measurement FromDynamics cannot lift.
type fakeMeasurement struct{}

func (fakeMeasurement) Name() string { return "fake" }
func (fakeMeasurement) Measure(*placement.Evaluator, []*placement.Placement, *rng.Source) ([]float64, error) {
	return nil, nil
}

// TestBenchConfig keeps the benchmark scenario constructor honest at toy
// dimensions (the real dimensions are exercised by cmd/benchdyn -shard).
func TestBenchConfig(t *testing.T) {
	cfg, err := NewBenchConfig(60, 10, 24, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg.DurationMin = 20
	res, err := Run(cfg, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 3 {
		t.Fatalf("got %d steps, want 3", len(res.Steps))
	}
	for _, s := range res.Steps {
		if !(s.HitRatio[0] >= 0 && s.HitRatio[0] <= 1) {
			t.Errorf("aggregate hit ratio %v outside [0,1]", s.HitRatio[0])
		}
	}
}
