package dynamics

import (
	"testing"

	"trimcaching/internal/geom"
	"trimcaching/internal/rng"
)

// TestExternalMobilityGuards pins the externally-driven engine's mode
// errors: Advance/Refresh refuse on an external engine, ApplyExternal
// refuses on an internal one.
func TestExternalMobilityGuards(t *testing.T) {
	cfg, err := NewSmokeScaleConfig(Incremental)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ExternalMobility = true
	ext, err := NewEngine(cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := ext.Advance(); err == nil {
		t.Error("Advance succeeded on an external engine")
	}
	if err := ext.Refresh(); err == nil {
		t.Error("Refresh succeeded on an external engine")
	}
	if _, err := ext.Run(); err == nil {
		t.Error("Run succeeded on an external engine")
	}
	if err := ext.ApplyExternal(nil, nil, nil, nil); err != nil {
		t.Errorf("empty ApplyExternal failed: %v", err)
	}

	cfg2, err := NewSmokeScaleConfig(Incremental)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := NewEngine(cfg2, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := inner.ApplyExternal(nil, nil, nil, nil); err == nil {
		t.Error("ApplyExternal succeeded on an internally-driven engine")
	}

	// Malformed movement input must error identically in both modes, with
	// no state mutated (the Incremental path delegates to
	// topology.MoveUsers' checks; the Rebuild path mirrors them).
	for _, mode := range []Mode{Incremental, Rebuild} {
		cfg, err := NewSmokeScaleConfig(mode)
		if err != nil {
			t.Fatal(err)
		}
		cfg.ExternalMobility = true
		e, err := NewEngine(cfg, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		pos := e.Instance().Topology().UserPos(0)
		if err := e.ApplyExternal(nil, nil, []int{0}, nil); err == nil {
			t.Errorf("mode %d: length mismatch accepted", int(mode))
		}
		if err := e.ApplyExternal(nil, nil, []int{-1}, []geom.Point{pos}); err == nil {
			t.Errorf("mode %d: out-of-range user accepted", int(mode))
		}
		if err := e.ApplyExternal(nil, nil, []int{0, 0}, []geom.Point{pos, pos}); err == nil {
			t.Errorf("mode %d: duplicate move accepted", int(mode))
		}
		// A well-formed call must still succeed afterwards (no scratch
		// state leaked by the rejected calls).
		if err := e.ApplyExternal(nil, nil, []int{0}, []geom.Point{pos}); err != nil {
			t.Errorf("mode %d: valid call after rejections failed: %v", int(mode), err)
		}
	}
}

// TestProfileResolvesSubset checks the small-delta profiling path replays
// deterministically and degrades to ProfileResolves at stride <= 1.
func TestProfileResolvesSubset(t *testing.T) {
	run := func(stride int, rebuild bool) int {
		cfg, err := NewSmokeScaleConfig(Incremental)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(cfg, rng.New(4))
		if err != nil {
			t.Fatal(err)
		}
		d, err := e.ProfileResolvesSubset(2, stride, rebuild)
		if err != nil {
			t.Fatal(err)
		}
		if d <= 0 {
			t.Fatalf("non-positive resolve time %v", d)
		}
		return e.Placement(0).CountPlacements()
	}
	// Identical checkpoint sequences must land on identical placements
	// whether or not the heap is rebuilt per solve.
	if a, b := run(100, false), run(100, true); a != b {
		t.Errorf("small-delta placements diverge with heap rebuild: %d vs %d", a, b)
	}
	if a, b := run(1, false), run(0, false); a != b {
		t.Errorf("stride<=1 fallback diverges: %d vs %d", a, b)
	}
}

// TestReviseUserMassQueue pins the internally driven engine's mass-revision
// queue: users queued twice are revised once, in any queue order, with
// the same result as one queue of each; an out-of-range user queues
// nothing; and an externally driven engine refuses the queue (its driver
// passes massOnly to ApplyExternal).
func TestReviseUserMassQueue(t *testing.T) {
	run := func(queues ...[]int) []float64 {
		cfg, err := NewSmokeScaleConfig(Incremental)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(cfg, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		work := e.Instance().Workload()
		for _, k := range []int{1, 3} {
			row := append([]float64(nil), work.ProbRow(k)...)
			for i := range row {
				row[i] *= 4
			}
			if err := work.SetUserProbRow(k, row); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range queues {
			if err := e.ReviseUserMass(q); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.ReviseUserMass([]int{0, e.Instance().NumUsers()}); err == nil {
			t.Fatal("out-of-range user queued")
		}
		st, err := e.Checkpoint(1)
		if err != nil {
			t.Fatal(err)
		}
		return append([]float64(nil), st.HitRatio...)
	}
	want := run([]int{1, 3})
	if unrevised := run(); unrevised[0] == want[0] {
		t.Fatalf("queued revisions left the hit ratio at %v; the test needs a visible revision", want[0])
	}
	for a, got := range run([]int{3, 1}, []int{3}) {
		if got != want[a] {
			t.Errorf("track %d: duplicated queue hit ratio %v, want %v", a, got, want[a])
		}
	}

	cfg, err := NewSmokeScaleConfig(Incremental)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ExternalMobility = true
	ext, err := NewEngine(cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := ext.ReviseUserMass([]int{0}); err == nil {
		t.Error("ReviseUserMass succeeded on an external engine")
	}
}
