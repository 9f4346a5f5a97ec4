package dynamics

import (
	"fmt"
	"runtime"

	"trimcaching/internal/cachesim"
	"trimcaching/internal/placement"
	"trimcaching/internal/rng"
	"trimcaching/internal/sim"
	"trimcaching/internal/trace"
)

// Measurement is the engine's quality seam: it scores every track's current
// placement on the current instance at one checkpoint. The engine hands it
// a per-checkpoint random stream (split as "fading"/cp for the regular
// measurement and "refade"/cp for post-replacement baselines, names kept
// from the original Monte-Carlo-only engine), so implementations are
// deterministic in (instance, placements, stream) and bit-identical for any
// engine worker count.
//
// Two implementations ship: FadingMeasurement (the default) averages the
// analytic hit ratio over Rayleigh realizations, and TraceMeasurement
// serves a synthesized request trace through the event-driven simulator and
// reports the realized QoS hit ratio. Implementations may keep per-run
// scratch (sessions) and are not safe for concurrent use; they bind
// lazily to the first instance's dimensions and accept any same-sized
// instance afterwards, delta-updated or rebuilt.
type Measurement interface {
	// Name identifies the measurement track in logs and tables.
	Name() string
	// Measure returns each placement's hit ratio on eval's instance.
	Measure(eval *placement.Evaluator, placements []*placement.Placement, src *rng.Source) ([]float64, error)
}

// FadingMeasurement is the Monte-Carlo track: each checkpoint's hit ratio
// is the analytic objective averaged over Realizations Rayleigh fading
// realizations (§VII-A), evaluated in parallel on Workers goroutines with
// per-realization RNG splits — bit-identical for any worker count.
type FadingMeasurement struct {
	// Realizations is the fading realizations per measurement.
	Realizations int
	// Workers bounds the evaluation parallelism; 0 means GOMAXPROCS.
	Workers int
	// BlockSize is the number of realizations each worker scores through
	// one fused sweep (sim.FadingSession.SetBlockSize). 0 splits the
	// realizations evenly across the workers; 1 forces the
	// per-realization path. Results are bit-identical for every value.
	BlockSize int

	session *sim.FadingSession
	hits    []float64 // reused result buffer; valid until the next Measure
}

// Name implements Measurement.
func (m *FadingMeasurement) Name() string { return "fading" }

// Measure implements Measurement.
func (m *FadingMeasurement) Measure(eval *placement.Evaluator, placements []*placement.Placement, src *rng.Source) ([]float64, error) {
	if m.Realizations <= 0 {
		return nil, fmt.Errorf("dynamics: Realizations must be positive, got %d", m.Realizations)
	}
	if m.session == nil {
		// Clamp the workers to the realization count before sizing the
		// session, so no per-worker buffers are allocated that Evaluate can
		// never use.
		workers := m.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if workers > m.Realizations {
			workers = m.Realizations
		}
		m.session = sim.NewFadingSession(eval.Instance(), workers)
		m.session.SetBlockSize(m.BlockSize)
	}
	// The result buffer is measurement-owned and reused: valid until the
	// next Measure call, so the steady-state checkpoint loop allocates
	// nothing. Callers that keep the values copy them (the engine does).
	hits, err := m.session.EvaluateInto(m.hits, eval, placements, m.Realizations, src)
	if err != nil {
		return nil, err
	}
	m.hits = hits[:cap(hits)]
	return hits, nil
}

// MemoryBytes returns the heap bytes the measurement's session scratch
// owns (the engine's Measurement footprint component).
func (m *FadingMeasurement) MemoryBytes() int64 {
	var n int64
	if m.session != nil {
		n += m.session.MemoryBytes()
	}
	return n + int64(cap(m.hits))*8
}

// TraceMeasurement is the trace-driven track: each checkpoint synthesizes a
// request window (Poisson arrivals per user, the workload's Zipf model
// popularity) and serves it through the event-driven simulator
// (cachesim.ServeSession), reporting the realized QoS hit ratio — measured
// request traffic rather than a fading-averaged estimate. All tracks are
// served against the same window (arrivals are paired); each track's
// serving fades from its own split, so a track's measurement does not
// depend on which other tracks run. A window with zero requests reports a
// zero hit ratio.
type TraceMeasurement struct {
	// RequestsPerUserPerHour is the Poisson arrival rate of the synthesized
	// windows. Zero synthesizes empty windows.
	RequestsPerUserPerHour float64
	// WindowS is the horizon of each synthesized window in seconds; the
	// engine wirings default it to the checkpoint length.
	WindowS float64
	// Event configures the serving simulator; a zero CloudRateBps selects
	// cachesim.DefaultEventConfig.
	Event cachesim.EventConfig
	// UserKey maps a workload slot to the global user id that keys its
	// arrival stream, and reports whether the slot synthesizes arrivals at
	// all. Nil is the identity map (the unsharded engine). The shard layer
	// passes its slot table here so a user's request stream is bit-stable
	// across cell handoffs and each request is served by exactly one cell.
	UserKey trace.UserMap
	// StreamSalt decorrelates the serving fades of sibling measurements
	// (one per shard cell) that deliberately share seed material so their
	// arrival streams agree. Zero uses the plain "serve"/track stream —
	// required for the Shards=1 == unsharded bit-identity pin.
	StreamSalt int

	synth   *trace.Synthesizer
	session *cachesim.ServeSession

	// Per-Measure recordings, reused across checkpoints. noRecord is set by
	// the engine around replacement re-measures (their single-placement
	// calls would otherwise clobber track 0's window stats).
	hits     []float64
	results  []cachesim.EventResult
	lats     [][]float64
	noRecord bool

	arrivalSrc rng.Source
	saltSrc    rng.Source
	serveSrc   rng.Source
}

// Name implements Measurement.
func (m *TraceMeasurement) Name() string { return "trace" }

// Measure implements Measurement.
func (m *TraceMeasurement) Measure(eval *placement.Evaluator, placements []*placement.Placement, src *rng.Source) ([]float64, error) {
	ins := eval.Instance()
	if m.synth == nil {
		synth, err := trace.NewSynthesizer(m.RequestsPerUserPerHour, m.WindowS)
		if err != nil {
			return nil, fmt.Errorf("dynamics: %w", err)
		}
		cfg := m.Event
		if cfg.CloudRateBps == 0 {
			cfg = cachesim.DefaultEventConfig()
		}
		session, err := cachesim.NewServeSession(ins, cfg)
		if err != nil {
			return nil, fmt.Errorf("dynamics: %w", err)
		}
		m.synth, m.session = synth, session
	}
	tr, err := m.synth.WindowMapped(ins.Workload(), src.SplitInto(&m.arrivalSrc, "arrivals"), m.UserKey)
	if err != nil {
		return nil, fmt.Errorf("dynamics: %w", err)
	}
	if cap(m.hits) < len(placements) {
		m.hits = make([]float64, len(placements))
		m.results = make([]cachesim.EventResult, len(placements))
		m.lats = make([][]float64, len(placements))
	}
	hits := m.hits[:len(placements)]
	for a, p := range placements {
		serveSrc := src
		if m.StreamSalt != 0 {
			serveSrc = src.SplitIndexInto(&m.saltSrc, "cellserve", m.StreamSalt)
		}
		res, err := m.session.Serve(ins, p, tr, serveSrc.SplitIndexInto(&m.serveSrc, "serve", a))
		if err != nil {
			return nil, fmt.Errorf("dynamics: %w", err)
		}
		hits[a] = res.HitRatio
		if !m.noRecord {
			m.results[a] = res
			m.lats[a] = append(m.lats[a][:0], m.session.Latencies()...)
		}
	}
	return hits, nil
}

// LastResults returns the per-track EventResults of the most recent
// recorded Measure call (replacement re-measures are excluded by the
// engine). The slice aliases measurement-owned scratch: it is valid until
// the next Measure, and callers that keep the values copy them.
func (m *TraceMeasurement) LastResults() []cachesim.EventResult { return m.results }

// LastLatencies returns track a's sorted per-request latencies (seconds)
// from the most recent recorded Measure call. The slice aliases
// measurement-owned scratch reused across checkpoints; treat it as
// read-only and copy to keep. The sharded engine merges these buffers
// across cells for exact global quantiles.
func (m *TraceMeasurement) LastLatencies(a int) []float64 {
	if a < 0 || a >= len(m.lats) {
		return nil
	}
	return m.lats[a]
}

// MemoryBytes returns the heap bytes of the measurement's retained scratch
// (the serving session plus the recorded window stats).
func (m *TraceMeasurement) MemoryBytes() int64 {
	var n int64
	if m.session != nil {
		n += m.session.MemoryBytes()
	}
	n += int64(cap(m.hits)) * 8
	for _, l := range m.lats {
		n += int64(cap(l)) * 8
	}
	return n
}

// freshMeasurement returns a measurement with m's configuration and no
// bound session — a measurement binds to its first instance's dimensions,
// so an engine whose library grows needs a fresh one.
func freshMeasurement(m Measurement) (Measurement, error) {
	switch m := m.(type) {
	case *FadingMeasurement:
		return &FadingMeasurement{Realizations: m.Realizations, Workers: m.Workers, BlockSize: m.BlockSize}, nil
	case *TraceMeasurement:
		return &TraceMeasurement{
			RequestsPerUserPerHour: m.RequestsPerUserPerHour,
			WindowS:                m.WindowS,
			Event:                  m.Event,
			UserKey:                m.UserKey,
			StreamSalt:             m.StreamSalt,
		}, nil
	}
	return nil, fmt.Errorf("dynamics: measurement %q cannot follow a library grow", m.Name())
}

// TraceTrigger re-places on measured (windowed) hit-ratio degradation: it
// keeps the last Window measured hit ratios since the track's placement and
// fires when their mean drops more than Degradation below the
// post-placement baseline. Windowing smooths the sampling noise of
// trace-driven measurements, where a single quiet or unlucky window says
// little; Window <= 1 fires on any single degraded measurement, matching
// ThresholdTrigger's behavior on the measured track. The trigger is
// stateful: the engine calls Reset after every replacement so stale
// pre-replacement measurements cannot re-fire it (Fire also drops its
// history when it observes the baseline change, as a fallback for custom
// loops that forget Reset). Use a fresh value per engine run and share
// nothing across tracks.
type TraceTrigger struct {
	// Window is the number of recent measurements averaged; 0 means 1.
	Window int
	// Degradation is the firing threshold; >= 1 never fires.
	Degradation float64

	baseline float64
	recent   []float64
}

// TriggerCloner is the optional replication hook of a stateful Trigger:
// CloneTrigger returns a fresh trigger with the same policy parameters and
// no accumulated state. The shard layer requires it to give every cell its
// own trigger instance — sharing one stateful trigger by value across cells
// would mix their measurement histories.
type TriggerCloner interface {
	Trigger
	CloneTrigger() Trigger
}

// CloneTrigger implements TriggerCloner: same Window and Degradation, empty
// measurement history.
func (t *TraceTrigger) CloneTrigger() Trigger {
	return &TraceTrigger{Window: t.Window, Degradation: t.Degradation}
}

// Name implements Trigger.
func (t *TraceTrigger) Name() string {
	w := t.Window
	if w <= 1 {
		return fmt.Sprintf("%.0f%% measured degradation", 100*t.Degradation)
	}
	return fmt.Sprintf("%.0f%% measured degradation over %d checkpoints", 100*t.Degradation, w)
}

// Reset clears the measurement window. The engine calls it right after a
// track is re-placed; custom loops must do the same (a re-measured baseline
// can coincide exactly with the old one — hit ratios are discrete
// QoSHits/Requests rationals — so Fire's baseline-change fallback alone is
// not sufficient).
func (t *TraceTrigger) Reset() {
	t.recent = t.recent[:0]
}

// Fire implements Trigger.
func (t *TraceTrigger) Fire(_ int, hitRatio, baseline float64) bool {
	if baseline != t.baseline {
		// Fallback for loops that skip Reset: a changed baseline means the
		// track was re-placed, so pre-replacement measurements are stale.
		t.baseline = baseline
		t.recent = t.recent[:0]
	}
	w := t.Window
	if w <= 1 {
		w = 1
	}
	t.recent = append(t.recent, hitRatio)
	if len(t.recent) > w {
		t.recent = append(t.recent[:0], t.recent[len(t.recent)-w:]...)
	}
	if len(t.recent) < w {
		return false
	}
	var mean float64
	for _, v := range t.recent {
		mean += v
	}
	mean /= float64(len(t.recent))
	return mean < (1-t.Degradation)*baseline
}
