package shard

import (
	"testing"

	"trimcaching/internal/dynamics"
	"trimcaching/internal/geom"
	"trimcaching/internal/libgen"
	"trimcaching/internal/rng"
	"trimcaching/internal/scenario"
	"trimcaching/internal/topology"
	"trimcaching/internal/workload"
)

// driveOutageTimeline runs a sharded smoke timeline with an outage before
// checkpoint 1 and recovery before checkpoint 2, forcing replaces on both
// edges, and returns the aggregated steps (copied).
func driveOutageTimeline(t *testing.T, cfg Config, seed uint64, downed []int) []dynamics.Step {
	t.Helper()
	se, err := NewEngine(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	steps := []dynamics.Step{se.InitialStep().Clone()}
	for cp := 1; cp <= se.Checkpoints(); cp++ {
		if cp == 1 || cp == 2 {
			if err := se.SetServersDown(downed, cp == 1); err != nil {
				t.Fatal(err)
			}
			if err := se.ForceReplace(cp); err != nil {
				t.Fatal(err)
			}
		}
		st, err := se.Checkpoint(cp)
		if err != nil {
			t.Fatal(err)
		}
		steps = append(steps, st.Clone())
	}
	return steps
}

// TestShardOutageSingleShardMatchesDynamics pins the sharded outage seam
// at Shards = 1 against the unsharded engine driving the identical event
// schedule: SetServersDown + ForceReplace through the single cell must be
// bit-identical to dynamics.Engine.SetServersDown + Replace.
func TestShardOutageSingleShardMatchesDynamics(t *testing.T) {
	downed := []int{0, 2}
	got := driveOutageTimeline(t, smokeShardConfig(t, 1, 1, dynamics.Incremental), 7, downed)

	dc, err := dynamics.NewSmokeScaleConfig(dynamics.Incremental)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := dynamics.NewEngine(dc, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	want := []dynamics.Step{eng.InitialStep().Clone()}
	for cp := 1; cp <= eng.Checkpoints(); cp++ {
		if cp == 1 || cp == 2 {
			if err := eng.SetServersDown(downed, cp == 1); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Replace(0, cp); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Advance(); err != nil {
			t.Fatal(err)
		}
		if err := eng.Refresh(); err != nil {
			t.Fatal(err)
		}
		st, err := eng.Step(cp)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, st.Clone())
	}
	sameSteps(t, "single-shard outage vs dynamics", got, want)
}

// TestShardOutageAcrossCellsDeterministic pins the multi-cell outage
// timeline bit-identical across worker counts and cell refresh modes, with
// the down set spanning both cells and surviving the recovery edge.
func TestShardOutageAcrossCellsDeterministic(t *testing.T) {
	downed := []int{0, 3}
	want := driveOutageTimeline(t, smokeShardConfig(t, 2, 1, dynamics.Incremental), 7, downed)
	sameSteps(t, "workers 4 vs 1",
		driveOutageTimeline(t, smokeShardConfig(t, 2, 4, dynamics.Incremental), 7, downed), want)
	sameSteps(t, "rebuild vs incremental",
		driveOutageTimeline(t, smokeShardConfig(t, 2, 2, dynamics.Rebuild), 7, downed), want)
	if want[1].HitRatio[0] >= want[0].HitRatio[0] {
		t.Errorf("outage did not dent the hit ratio: t0 %v, outage %v", want[0].HitRatio[0], want[1].HitRatio[0])
	}
}

// growEngine is the library-growth surface both engines share.
type growEngine interface {
	GrowLibrary(ins *scenario.Instance) error
	ReviseUserMass(users []int) error
	Positions() []geom.Point
}

// smokeDeployment builds an instance over the smoke deployment's first
// servers, users, and models, with the users at pos.
func smokeDeployment(t *testing.T, servers, users, models int, pos []geom.Point) *scenario.Instance {
	t.Helper()
	dc, err := dynamics.NewSmokeScaleConfig(dynamics.Incremental)
	if err != nil {
		t.Fatal(err)
	}
	ref := dc.Instance
	gt := ref.Topology()
	serverPts := make([]geom.Point, servers)
	for m := range serverPts {
		serverPts[m] = gt.ServerPos(m)
	}
	topo, err := topology.New(gt.Area(), serverPts, pos[:users], gt.CoverageRadius())
	if err != nil {
		t.Fatal(err)
	}
	lib, work := ref.Library(), ref.Workload()
	if users < ref.NumUsers() || models < ref.NumModels() {
		ids := make([]int, models)
		for i := range ids {
			ids[i] = i
		}
		if lib, err = libgen.Subset(lib, ids); err != nil {
			t.Fatal(err)
		}
		if work, err = workload.NewAliased(users, models); err != nil {
			t.Fatal(err)
		}
		gw := ref.Workload()
		for k := 0; k < users; k++ {
			if err := work.SetUserRows(k, gw.ProbRow(k)[:models], gw.DeadlineRow(k)[:models], gw.InferRow(k)[:models]); err != nil {
				t.Fatal(err)
			}
		}
	}
	ins, err := scenario.New(topo, lib, work, ref.Wireless())
	if err != nil {
		t.Fatal(err)
	}
	return ins
}

// TestGrowLibraryRejectsBadInstances pins GrowLibrary's and
// ReviseUserMass's input contract on both engines: a grow at checkpoint 1,
// before any walk, is accepted at the construction-time positions; after a
// walk, a nil instance, a wrong server or user count, a shrunken library,
// an instance at stale positions, and out-of-range mass revisions are all
// rejected with the engine unchanged — its positions and its next
// checkpoint match a twin that never saw the bad calls.
func TestGrowLibraryRejectsBadInstances(t *testing.T) {
	engines := []struct {
		name  string
		build func(t *testing.T) (growEngine, func(cp int) []float64)
	}{
		{"unsharded", func(t *testing.T) (growEngine, func(int) []float64) {
			dc, err := dynamics.NewSmokeScaleConfig(dynamics.Incremental)
			if err != nil {
				t.Fatal(err)
			}
			e, err := dynamics.NewEngine(dc, rng.New(7))
			if err != nil {
				t.Fatal(err)
			}
			return e, func(cp int) []float64 {
				st, err := e.Checkpoint(cp)
				if err != nil {
					t.Fatal(err)
				}
				return append([]float64(nil), st.HitRatio...)
			}
		}},
		{"sharded", func(t *testing.T) (growEngine, func(int) []float64) {
			se, err := NewEngine(smokeShardConfig(t, 2, 1, dynamics.Incremental), rng.New(7))
			if err != nil {
				t.Fatal(err)
			}
			return se, func(cp int) []float64 {
				st, err := se.Checkpoint(cp)
				if err != nil {
					t.Fatal(err)
				}
				return append([]float64(nil), st.HitRatio...)
			}
		}},
	}
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			e, step := eng.build(t)
			twin, twinStep := eng.build(t)
			start := e.Positions()
			M, K, I := 4, len(start), 40 // the smoke deployment's servers, users, models
			for _, g := range []growEngine{e, twin} {
				if err := g.GrowLibrary(smokeDeployment(t, M, K, I, g.Positions())); err != nil {
					t.Fatalf("grow before any walk rejected: %v", err)
				}
			}
			sameHits(t, "checkpoint 1 after the first grow", step(1), twinStep(1))

			pos := e.Positions()
			bad := []struct {
				label string
				ins   *scenario.Instance
			}{
				{"nil instance", nil},
				{"wrong server count", smokeDeployment(t, M-1, K, I, pos)},
				{"wrong user count", smokeDeployment(t, M, K-1, I, pos)},
				{"fewer models", smokeDeployment(t, M, K, I-1, pos)},
				{"stale positions", smokeDeployment(t, M, K, I, start)},
			}
			for _, b := range bad {
				if err := e.GrowLibrary(b.ins); err == nil {
					t.Errorf("%s accepted", b.label)
				}
			}
			for _, users := range [][]int{{-1}, {K}, {0, K}} {
				if err := e.ReviseUserMass(users); err == nil {
					t.Errorf("mass revision of users %v accepted", users)
				}
			}
			for k, p := range e.Positions() {
				if p != pos[k] {
					t.Fatalf("rejected calls moved user %d from %v to %v", k, pos[k], p)
				}
			}
			sameHits(t, "checkpoint 2 after rejected calls", step(2), twinStep(2))
			if err := e.GrowLibrary(smokeDeployment(t, M, K, I, e.Positions())); err != nil {
				t.Errorf("same-size relocated instance rejected: %v", err)
			}
		})
	}
}

func sameHits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for a := range want {
		if got[a] != want[a] {
			t.Fatalf("%s: track %d hit ratio %v, want %v", label, a, got[a], want[a])
		}
	}
}
