// This file is the chaos soak: randomized fault schedules replayed through
// five engine variants by one loop, which applies every event with the
// gallery's experiments.ApplyEvent (so each event forces a re-placement,
// as in the gallery). The unsharded primary asserts the per-checkpoint
// engine invariants through a hook; its timeline is cross-checked
// bit-identical against a Rebuild-mode / multi-worker replica and the
// Shards = 1 sharded engine, and a multi-cell sharded engine is checked
// against itself at two worker counts.
package faults

import (
	"fmt"

	"trimcaching/internal/dynamics"
	"trimcaching/internal/experiments"
	"trimcaching/internal/placement"
	"trimcaching/internal/rng"
)

// SoakConfig parameterizes RunSoak.
type SoakConfig struct {
	// NewBase builds a fresh base deployment per engine replay. A factory
	// rather than a value: every replay mutates its instance through fault
	// events, so replays must not share one. The returned config's
	// DurationMin / CheckpointMin must match Process.Checkpoints.
	NewBase func() (dynamics.Config, error)
	// Process is the fault process every schedule is drawn from.
	Process Config
	// Schedules is how many randomized schedules to replay.
	Schedules int
	// Shards is the multi-cell leg's cell count; 0 means 2.
	Shards int
	// Seed makes the whole soak deterministic: schedule n is drawn from
	// rng.New(Seed).SplitIndex("schedule", n).
	Seed uint64
}

// SoakReport summarizes a completed soak.
type SoakReport struct {
	// Schedules is how many schedules were replayed.
	Schedules int `json:"schedules"`
	// Blackouts, Brownouts, and Recoveries count the fault events across
	// all schedules.
	Blackouts  int `json:"blackouts"`
	Brownouts  int `json:"brownouts"`
	Recoveries int `json:"recoveries"`
	// CheckedCheckpoints is how many checkpoints had the full invariant
	// suite asserted.
	CheckedCheckpoints int `json:"checkedCheckpoints"`
}

// RunSoak draws Schedules fault schedules and replays each through five
// engines: the invariant-checked primary (Incremental, one worker), a
// Rebuild-mode four-worker replica, the Shards = 1 sharded engine, and a
// multi-cell sharded engine at one and four workers. The primary, the
// replica, and the Shards = 1 timelines must be bit-identical, and so must
// the multi-cell engine's two; any invariant violation or divergence is an
// error naming the schedule and checkpoint.
func RunSoak(cfg SoakConfig) (*SoakReport, error) {
	if cfg.NewBase == nil {
		return nil, fmt.Errorf("faults: NewBase is required")
	}
	if cfg.Schedules <= 0 {
		return nil, fmt.Errorf("faults: Schedules must be positive, got %d", cfg.Schedules)
	}
	shards := cfg.Shards
	if shards == 0 {
		shards = 2
	}
	rep := &SoakReport{Schedules: cfg.Schedules}
	for n := 0; n < cfg.Schedules; n++ {
		src := rng.New(cfg.Seed).SplitIndex("schedule", n)
		tl, err := Schedule(cfg.Process, src.Split("process"))
		if err != nil {
			return nil, err
		}
		for _, ev := range tl.Events {
			switch {
			case ev.CapacityBytes == 0:
				rep.Blackouts++
			case ev.CapacityBytes < 0:
				rep.Recoveries++
			default:
				rep.Brownouts++
			}
		}
		engSeed := src.Split("engine").Uint64()
		variants := []variant{
			{label: "primary", mode: dynamics.Incremental, workers: 1, against: -1},
			{label: "rebuild/4-worker vs primary", mode: dynamics.Rebuild, workers: 4, against: 0},
			{label: "shards=1 vs primary", shards: 1, workers: 1, against: 0},
			{label: fmt.Sprintf("shards=%d 1-worker", shards), shards: shards, workers: 1, against: -1},
			{label: fmt.Sprintf("shards=%d 4-worker vs 1-worker", shards), shards: shards, workers: 4, against: 3},
		}
		timelines := make([][][]float64, len(variants))
		for i, v := range variants {
			checked := rep
			if i > 0 {
				checked = nil
			}
			steps, err := replayVariant(cfg.NewBase, engSeed, tl, v, checked)
			if err != nil {
				return nil, fmt.Errorf("faults: schedule %d: %s: %w", n, v.label, err)
			}
			if v.against >= 0 {
				if err := sameTimelines(v.label, steps, timelines[v.against]); err != nil {
					return nil, fmt.Errorf("faults: schedule %d: %w", n, err)
				}
			}
			timelines[i] = steps
		}
	}
	return rep, nil
}

// variant is one engine configuration a schedule replays through: the
// unsharded engine in the given mode when shards is 0, otherwise the
// sharded engine at that cell count (in the base deployment's mode). Its
// timeline must equal that of the variant at index against, if any (-1).
type variant struct {
	label   string
	mode    dynamics.Mode
	shards  int
	workers int
	against int
}

// replayVariant builds the variant over a fresh base deployment and
// replays the schedule through it. A non-nil report enables the
// per-checkpoint invariant suite on an unsharded variant.
func replayVariant(newBase func() (dynamics.Config, error), seed uint64, tl experiments.Timeline, v variant, rep *SoakReport) ([][]float64, error) {
	base, err := newBase()
	if err != nil {
		return nil, err
	}
	if v.shards == 0 {
		base.Mode = v.mode
	}
	base.Workers = v.workers
	eng, err := experiments.NewEngine(base, v.shards, rng.New(seed))
	if err != nil {
		return nil, err
	}
	var check func() error
	if primary, ok := eng.(*dynamics.Engine); ok && rep != nil {
		eval, err := placement.NewEvaluator(primary.Instance())
		if err != nil {
			return nil, err
		}
		mass0 := primary.Instance().TotalMass()
		check = func() error {
			if err := verifyInvariants(primary, eval, len(base.Tracks), mass0); err != nil {
				return err
			}
			rep.CheckedCheckpoints++
			return nil
		}
	}
	return replay(eng, tl, check)
}

// replay drives one engine through the schedule — every event through
// experiments.ApplyEvent, so each one forces a re-placement, the gallery's
// cadence — and returns its per-checkpoint hit ratios (per track,
// including t = 0). A non-nil check runs after every checkpoint.
func replay(eng experiments.Engine, tl experiments.Timeline, check func() error) ([][]float64, error) {
	steps := [][]float64{append([]float64(nil), eng.InitialStep().HitRatio...)}
	for cp := 1; cp <= eng.Checkpoints(); cp++ {
		for _, ev := range tl.At(cp) {
			if err := experiments.ApplyEvent(eng, ev, cp); err != nil {
				return nil, fmt.Errorf("checkpoint %d: %w", cp, err)
			}
		}
		st, err := eng.Checkpoint(cp)
		if err != nil {
			return nil, fmt.Errorf("checkpoint %d: %w", cp, err)
		}
		steps = append(steps, append([]float64(nil), st.HitRatio...))
		if check != nil {
			if err := check(); err != nil {
				return nil, fmt.Errorf("checkpoint %d: %w", cp, err)
			}
		}
	}
	return steps, nil
}

// verifyInvariants asserts the engine invariants on the primary replica at
// one checkpoint: request mass is conserved, no placement occupies a dark
// server, and every track's placement is feasible under the live (possibly
// degraded) budgets.
func verifyInvariants(eng *dynamics.Engine, eval *placement.Evaluator, tracks int, mass0 float64) error {
	ins := eng.Instance()
	if got := ins.TotalMass(); got != mass0 {
		return fmt.Errorf("request mass drifted: %v, want %v", got, mass0)
	}
	caps := make([]int64, ins.NumServers())
	for m := range caps {
		caps[m] = eng.ServerCapacityBytes(m)
	}
	down := ins.DownServers()
	for a := 0; a < tracks; a++ {
		p := eng.Placement(a)
		for _, m := range down {
			if n := p.Models(m).Count(); n != 0 {
				return fmt.Errorf("track %d: %d models placed on dark server %d", a, n, m)
			}
		}
		if err := eval.CheckFeasible(p, caps); err != nil {
			return fmt.Errorf("track %d: %w", a, err)
		}
	}
	return nil
}

// sameTimelines compares two hit-ratio timelines bit-for-bit.
func sameTimelines(label string, got, want [][]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d steps, want %d", label, len(got), len(want))
	}
	for cp := range want {
		if len(got[cp]) != len(want[cp]) {
			return fmt.Errorf("%s: checkpoint %d has %d tracks, want %d", label, cp, len(got[cp]), len(want[cp]))
		}
		for a := range want[cp] {
			if got[cp][a] != want[cp][a] {
				return fmt.Errorf("%s: checkpoint %d track %d hit ratio %v, want %v", label, cp, a, got[cp][a], want[cp][a])
			}
		}
	}
	return nil
}
