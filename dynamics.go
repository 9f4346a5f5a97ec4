package trimcaching

import (
	"fmt"

	"trimcaching/internal/dynamics"
	"trimcaching/internal/placement"
	"trimcaching/internal/rng"
	"trimcaching/internal/shard"
)

// DynamicsConfig parameterizes a mobility timeline run: users walk with the
// paper's pedestrian/bike/vehicle model, the hit ratio is measured at every
// checkpoint (under fading, or by serving a synthesized request trace — see
// Measurement), and the placement is re-initiated when it degrades past a
// threshold (§IV, §VII-E).
type DynamicsConfig struct {
	// Algorithm is the placement algorithm's short name ("spec", "gen", ...).
	Algorithm string
	// DurationMin and CheckpointMin shape the timeline (§VII-E: 120 / 10).
	DurationMin   int
	CheckpointMin int
	// SlotS is the mobility slot length; 0 keeps the paper's 5 s.
	SlotS float64
	// Realizations is the fading realizations per checkpoint measurement.
	Realizations int
	// ReplaceThreshold re-places when the hit ratio falls below
	// (1 - ReplaceThreshold) times the post-placement baseline; 0 never
	// replaces (the Fig. 7 protocol).
	ReplaceThreshold float64
	// Rebuild switches the engine from incremental delta updates (the
	// default) to full instance rebuilds at every checkpoint. Both modes
	// produce identical timelines; Rebuild exists as the reference path.
	Rebuild bool
	// Measurement selects the checkpoint measurement track: "fading" (the
	// default, or ""), where the hit ratio is the analytic objective
	// averaged over Realizations Rayleigh draws, or "trace", where each
	// checkpoint synthesizes a request window (Poisson arrivals, Zipf model
	// popularity) and serves it through the event-driven simulator — the
	// measured QoS hit ratio of actual request traffic. In "trace" mode the
	// replacement trigger fires on windowed measured degradation and
	// Realizations is unused.
	Measurement string
	// RequestsPerUserPerHour is the arrival rate of the synthesized windows
	// ("trace" measurement only); 0 keeps 30.
	RequestsPerUserPerHour float64
	// TriggerWindow smooths the "trace" replacement trigger over this many
	// checkpoints (0 keeps 1: fire on a single degraded measurement).
	TriggerWindow int
	// Shards partitions the area into that many geographic cells, each with
	// its own instance, evaluator, and placement, run in parallel per
	// checkpoint with cross-cell user movement handled by handoff deltas
	// (see internal/shard). 0 or 1 keeps the single whole-area engine (a
	// sharded run with one cell is separately pinned bit-identical to it).
	// Sharding supports the "fading" measurement only; the reported hit
	// ratio is the request-mass-weighted aggregate over cells, and Replaced
	// reports whether any cell re-placed.
	Shards int
	// Workers bounds the sharded engine's cell-level worker pool; 0 means
	// GOMAXPROCS. Results never depend on it. Ignored when Shards <= 1.
	Workers int
}

// DefaultDynamicsConfig mirrors the §VII-E protocol: a two-hour walk in
// five-second slots, measured every ten minutes, placement frozen.
func DefaultDynamicsConfig() DynamicsConfig {
	return DynamicsConfig{
		Algorithm:     "spec",
		DurationMin:   120,
		CheckpointMin: 10,
		SlotS:         5,
		Realizations:  400,
	}
}

// DynamicsStep is one checkpoint of a mobility timeline.
type DynamicsStep struct {
	// TimeMin is minutes since the start.
	TimeMin float64
	// HitRatio is the fading-averaged hit ratio at this checkpoint.
	HitRatio float64
	// Replaced reports whether the placement was re-initiated here.
	Replaced bool
}

// RunDynamics walks the scenario's users through a mobility timeline and
// returns the per-checkpoint hit ratios plus the number of replacements.
// Deterministic in seed; the scenario itself is left untouched (the engine
// runs on a private rebuild of its instance).
func (s *Scenario) RunDynamics(cfg DynamicsConfig, seed uint64) ([]DynamicsStep, int, error) {
	alg, err := placement.ByName(cfg.Algorithm)
	if err != nil {
		return nil, 0, fmt.Errorf("trimcaching: %w", err)
	}
	if cfg.Shards > 1 && cfg.Measurement == "trace" {
		return nil, 0, fmt.Errorf("trimcaching: sharded dynamics supports the \"fading\" measurement only")
	}
	if cfg.SlotS == 0 {
		cfg.SlotS = 5
	}
	// The incremental engine mutates its instance in place; hand it a
	// private copy so s keeps serving the caller afterwards.
	ins, err := s.instance.Rebuild(s.instance.Topology().UserPositions())
	if err != nil {
		return nil, 0, fmt.Errorf("trimcaching: %w", err)
	}
	mode := dynamics.Incremental
	if cfg.Rebuild {
		mode = dynamics.Rebuild
	}
	var measurement dynamics.Measurement
	var trigger dynamics.Trigger = dynamics.NeverTrigger{}
	switch cfg.Measurement {
	case "", "fading":
		if cfg.ReplaceThreshold > 0 {
			trigger = dynamics.ThresholdTrigger{Degradation: cfg.ReplaceThreshold}
		}
	case "trace":
		rate := cfg.RequestsPerUserPerHour
		if rate == 0 {
			rate = 30
		}
		measurement = &dynamics.TraceMeasurement{
			RequestsPerUserPerHour: rate,
			WindowS:                float64(cfg.CheckpointMin) * 60,
		}
		if cfg.ReplaceThreshold > 0 {
			trigger = &dynamics.TraceTrigger{Window: cfg.TriggerWindow, Degradation: cfg.ReplaceThreshold}
		}
	default:
		return nil, 0, fmt.Errorf("trimcaching: unknown measurement %q (want \"fading\" or \"trace\")", cfg.Measurement)
	}
	dc := dynamics.Config{
		Instance:      ins,
		Capacities:    append([]int64(nil), s.caps...),
		Tracks:        []dynamics.Track{{Algorithm: alg, Trigger: trigger}},
		DurationMin:   cfg.DurationMin,
		CheckpointMin: cfg.CheckpointMin,
		SlotS:         cfg.SlotS,
		Realizations:  cfg.Realizations,
		Mode:          mode,
		Measurement:   measurement,
	}
	var steps []dynamics.Step
	var replacements int
	if cfg.Shards > 1 {
		scfg, err := shard.FromDynamics(dc, cfg.Shards)
		if err != nil {
			return nil, 0, fmt.Errorf("trimcaching: %w", err)
		}
		scfg.Workers = cfg.Workers
		res, err := shard.Run(scfg, rng.New(seed))
		if err != nil {
			return nil, 0, fmt.Errorf("trimcaching: %w", err)
		}
		steps, replacements = res.Steps, res.Replacements[0]
	} else {
		res, err := dynamics.Run(dc, rng.New(seed))
		if err != nil {
			return nil, 0, fmt.Errorf("trimcaching: %w", err)
		}
		steps, replacements = res.Steps, res.Replacements[0]
	}
	out := make([]DynamicsStep, len(steps))
	for si, st := range steps {
		out[si] = DynamicsStep{TimeMin: st.TimeMin, HitRatio: st.HitRatio[0], Replaced: st.Replaced[0]}
	}
	return out, replacements, nil
}
