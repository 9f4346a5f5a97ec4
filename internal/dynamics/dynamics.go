// Package dynamics is the time axis of the reproduction: one engine for
// the "walk users → refresh the instance → measure → maybe re-place"
// control loop that §IV sketches and §VII-E measures. The replacement
// study (internal/replacement), the Fig. 7 experiment, and the mobility
// examples all run on this engine instead of hand-rolling the loop.
//
// The engine runs in one of two modes. Rebuild is the historical path: a
// fresh scenario.Instance and placement.Evaluator every checkpoint, with
// placement re-solved from scratch — O(M·K·I) per checkpoint before the
// solve. Incremental threads deltas through every layer instead: the
// topology moves only the walked users, the instance recomputes only the
// affected rate and reachability rows (scenario.Instance.UpdateUsers), the
// evaluator keeps its marginal-gain memo minus the invalidated pairs, and
// algorithms that support warm starts repair their previous placement.
// Both modes produce bit-identical timelines — incremental updates are
// pinned against Rebuild, and warm-started solves against cold ones — so
// Incremental is the default and Rebuild survives as the reference and
// benchmark baseline.
//
// Orthogonal to the mode, the Measurement seam selects how checkpoint
// quality is scored: FadingMeasurement (the default) averages the analytic
// hit ratio over Rayleigh realizations, while TraceMeasurement synthesizes
// a per-checkpoint request window and serves it through the event-driven
// simulator, so triggers (see TraceTrigger) react to measured request
// traffic rather than Monte-Carlo estimates. Every combination is
// deterministic in (config, seed) and bit-identical for any worker count.
package dynamics

import (
	"fmt"
	"math"
	"slices"
	"time"

	"trimcaching/internal/bitset"
	"trimcaching/internal/geom"
	"trimcaching/internal/memprof"
	"trimcaching/internal/mobility"
	"trimcaching/internal/placement"
	"trimcaching/internal/rng"
	"trimcaching/internal/scenario"
)

// Mode selects how the engine refreshes the instance at each checkpoint.
type Mode int

const (
	// Incremental applies delta updates in place and warm-starts placement
	// repair. The engine takes ownership of the configured instance.
	Incremental Mode = iota
	// Rebuild constructs a fresh instance and evaluator every checkpoint
	// and re-solves placement from scratch.
	Rebuild
)

// Trigger decides, per checkpoint, whether a track re-places its models.
// Stateful triggers may additionally implement Resetter; the engine calls
// Reset right after the track is re-placed so history from before the
// replacement cannot re-fire the trigger.
type Trigger interface {
	// Name identifies the policy in logs and tables.
	Name() string
	// Fire reports whether to re-place at this checkpoint given the
	// measured hit ratio and the baseline measured right after the track's
	// last placement.
	Fire(checkpoint int, hitRatio, baseline float64) bool
}

// Resetter is the optional state-clearing hook of a stateful Trigger (see
// TraceTrigger).
type Resetter interface {
	Reset()
}

// NeverTrigger freezes the initial placement (the Fig. 7 protocol).
type NeverTrigger struct{}

// Name implements Trigger.
func (NeverTrigger) Name() string { return "never" }

// Fire implements Trigger.
func (NeverTrigger) Fire(int, float64, float64) bool { return false }

// PeriodicTrigger re-places every Every checkpoints regardless of
// performance.
type PeriodicTrigger struct {
	Every int
}

// Name implements Trigger.
func (t PeriodicTrigger) Name() string { return fmt.Sprintf("every %d checkpoints", t.Every) }

// Fire implements Trigger.
func (t PeriodicTrigger) Fire(checkpoint int, _, _ float64) bool {
	return t.Every > 0 && checkpoint%t.Every == 0
}

// ThresholdTrigger re-places when the measured hit ratio degrades more
// than Degradation below the post-placement baseline — the paper's
// "re-initiate when performance degrades to a certain threshold" policy
// (§IV). Degradation ≥ 1 never fires.
type ThresholdTrigger struct {
	Degradation float64
}

// Name implements Trigger.
func (t ThresholdTrigger) Name() string { return fmt.Sprintf("%.0f%% degradation", 100*t.Degradation) }

// Fire implements Trigger.
func (t ThresholdTrigger) Fire(_ int, hitRatio, baseline float64) bool {
	return hitRatio < (1-t.Degradation)*baseline
}

// Track is one placement algorithm living on the timeline with its own
// replacement policy. A nil Trigger defaults to NeverTrigger.
type Track struct {
	Algorithm placement.Algorithm
	Trigger   Trigger
}

// Config parameterizes one timeline run.
type Config struct {
	// Instance is the t = 0 problem instance. In Incremental mode the
	// engine mutates it in place; pass a private instance (or rebuild one
	// with Instance.Rebuild) when the caller needs the original afterwards.
	Instance *scenario.Instance
	// Capacities is the per-server storage budget.
	Capacities []int64
	// BaselineCapacities, when set, is the configured (pristine) per-server
	// budget SetServerCapacity restores to; nil means Capacities. Callers
	// rebuilding an engine mid-degradation (the shard layer's grow path)
	// pass the already-degraded budgets as Capacities — so the t = 0 solve
	// respects them — and the pristine ones here, so a later restore does
	// not resurrect the degraded value as the configured one.
	BaselineCapacities []int64
	// Tracks are the algorithms evaluated side by side on identical
	// mobility and fading draws.
	Tracks []Track
	// DurationMin and CheckpointMin shape the timeline (§VII-E: 120 / 10).
	DurationMin   int
	CheckpointMin int
	// SlotS is the mobility slot length (§VII-E: 5 s).
	SlotS float64
	// Realizations is the fading realizations per checkpoint measurement
	// (used by the default FadingMeasurement; ignored when Measurement is
	// set).
	Realizations int
	// Workers bounds the fading evaluation parallelism; 0 means
	// GOMAXPROCS. Results are bit-identical for any worker count.
	Workers int
	// Mode selects Incremental (default) or Rebuild.
	Mode Mode
	// Measurement selects how checkpoint quality is measured. Nil selects
	// the Monte-Carlo track, &FadingMeasurement{Realizations, Workers};
	// &TraceMeasurement{...} selects the trace-driven track, where each
	// checkpoint serves a synthesized request window instead. Measurements
	// are stateful (they keep reusable sessions): pass a fresh value per
	// engine.
	Measurement Measurement
	// ExternalMobility hands user movement to the caller: the engine builds
	// no mobility population, Advance and Refresh error, and the caller
	// drives the instance through ApplyExternal (movement plus workload-row
	// revisions) and Step. This is how the shard layer runs one engine per
	// cell under a single global walk.
	ExternalMobility bool
}

// Validate reports the first invalid field, if any.
func (c Config) Validate() error {
	if c.Instance == nil {
		return fmt.Errorf("dynamics: instance is required")
	}
	if len(c.Capacities) != c.Instance.NumServers() {
		return fmt.Errorf("dynamics: %d capacities for %d servers", len(c.Capacities), c.Instance.NumServers())
	}
	if c.BaselineCapacities != nil && len(c.BaselineCapacities) != len(c.Capacities) {
		return fmt.Errorf("dynamics: %d baseline capacities for %d servers", len(c.BaselineCapacities), len(c.Capacities))
	}
	if len(c.Tracks) == 0 {
		return fmt.Errorf("dynamics: at least one track is required")
	}
	for a, tr := range c.Tracks {
		if tr.Algorithm == nil {
			return fmt.Errorf("dynamics: track %d has no algorithm", a)
		}
	}
	if c.DurationMin <= 0 || c.CheckpointMin <= 0 || c.DurationMin < c.CheckpointMin {
		return fmt.Errorf("dynamics: bad timeline %d/%d min", c.DurationMin, c.CheckpointMin)
	}
	if c.SlotS <= 0 {
		return fmt.Errorf("dynamics: SlotS must be positive")
	}
	if c.Measurement == nil && c.Realizations <= 0 {
		return fmt.Errorf("dynamics: Realizations must be positive")
	}
	if c.Mode != Incremental && c.Mode != Rebuild {
		return fmt.Errorf("dynamics: unknown mode %d", int(c.Mode))
	}
	return nil
}

// Step is one checkpoint of the timeline.
type Step struct {
	// TimeMin is minutes since the start.
	TimeMin float64 `json:"timeMin"`
	// HitRatio is the fading-averaged hit ratio per track.
	HitRatio []float64 `json:"hitRatio"`
	// Replaced reports, per track, whether its trigger fired here.
	Replaced []bool `json:"replaced"`
}

// Result is a completed timeline.
type Result struct {
	// Steps holds one entry per checkpoint, including t = 0.
	Steps []Step
	// Replacements counts each track's re-placements (excluding the
	// initial placement).
	Replacements []int
}

// Engine is a running timeline. Callers either drive the whole loop with
// Run, step it one checkpoint at a time with Checkpoint (injecting events
// in between, as the scenario gallery does), or step it manually
// (Advance → Refresh → Measure/Replace), which is how the benchmarks time
// each phase in isolation.
type Engine struct {
	cfg     Config
	src     *rng.Source
	walkSrc *rng.Source

	ins       *scenario.Instance
	eval      *placement.Evaluator
	measure   Measurement
	traceMeas *TraceMeasurement // non-nil when measure is the trace track
	pop       *mobility.Population

	allUsers    []int
	positions   []geom.Point
	movedSeen   []bool // rebuild-path duplicate-move check scratch
	pendingMass []int  // users queued by ReviseUserMass for the next Refresh

	placements []*placement.Placement
	baselines  []float64
	accPairs   []bitset.Set // per track: reach pairs changed since its last solve

	caps  []int64 // live per-server capacities (SetServerCapacity mutates)
	caps0 []int64 // pristine configured capacities (restore target)

	measureSrc   rng.Source // per-checkpoint stream, reseeded in place
	stepHit      []float64  // reused Step buffers; valid until the next Step
	stepReplaced []bool

	slotsPerCheckpoint int
	checkpoints        int // excluding t = 0
	replacements       []int
}

// NewEngine validates the configuration, wires the mobility population,
// and computes the initial placements and their fading baselines (the
// t = 0 step). The random source fuels three independent streams —
// "mobility" (walker initialization), "walk" (per-slot dynamics), and
// "fading"/"refade" (per-checkpoint measurement) — so timelines are
// deterministic in (config, seed) and independent of Workers.
func NewEngine(cfg Config, src *rng.Source) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ins := cfg.Instance
	var pop *mobility.Population
	if !cfg.ExternalMobility {
		var err error
		pop, err = mobility.NewPopulation(ins.Topology().Area(), ins.Topology().UserPositions(), src.Split("mobility"))
		if err != nil {
			return nil, fmt.Errorf("dynamics: %w", err)
		}
	}
	K := ins.NumUsers()
	measure := cfg.Measurement
	if measure == nil {
		measure = &FadingMeasurement{Realizations: cfg.Realizations, Workers: cfg.Workers}
	}
	e := &Engine{
		cfg:                cfg,
		src:                src,
		walkSrc:            src.Split("walk"),
		pop:                pop,
		allUsers:           make([]int, K),
		positions:          ins.Topology().UserPositions(),
		baselines:          make([]float64, len(cfg.Tracks)),
		caps:               append([]int64(nil), cfg.Capacities...),
		caps0:              append([]int64(nil), caps0(cfg)...),
		stepHit:            make([]float64, len(cfg.Tracks)),
		stepReplaced:       make([]bool, len(cfg.Tracks)),
		slotsPerCheckpoint: int(float64(cfg.CheckpointMin*60)/cfg.SlotS + 0.5),
		checkpoints:        cfg.DurationMin / cfg.CheckpointMin,
		replacements:       make([]int, len(cfg.Tracks)),
	}
	for k := range e.allUsers {
		e.allUsers[k] = k
	}
	if err := e.install(ins, measure); err != nil {
		return nil, err
	}
	return e, nil
}

// install solves every track from scratch on ins and measures the t = 0
// baselines on meas, then swaps the instance, its evaluator, the
// measurement, the placements, and the baselines into the engine. Nothing
// of the engine changes until every step has succeeded.
func (e *Engine) install(ins *scenario.Instance, meas Measurement) error {
	eval, err := placement.NewEvaluator(ins)
	if err != nil {
		return fmt.Errorf("dynamics: %w", err)
	}
	// The Workers pin governs every pool the engine drives, including the
	// instance's parallel delta-update phase — a Workers=1 engine runs
	// genuinely single-goroutine checkpoints.
	ins.SetUpdateWorkers(e.cfg.Workers)
	placements := make([]*placement.Placement, len(e.cfg.Tracks))
	accPairs := make([]bitset.Set, len(e.cfg.Tracks))
	for a, tr := range e.cfg.Tracks {
		accPairs[a] = bitset.New(ins.NumServers() * ins.NumModels())
		p, err := tr.Algorithm.Place(eval, e.caps)
		if err != nil {
			return fmt.Errorf("dynamics: %s: %w", tr.Algorithm.Name(), err)
		}
		placements[a] = p
	}
	base, err := meas.Measure(eval, placements, e.src.SplitIndexInto(&e.measureSrc, "fading", 0))
	if err != nil {
		return fmt.Errorf("dynamics: %w", err)
	}
	e.ins, e.eval, e.measure = ins, eval, meas
	e.traceMeas, _ = meas.(*TraceMeasurement)
	e.placements, e.accPairs = placements, accPairs
	copy(e.baselines, base)
	return nil
}

// caps0 returns the configured capacity vector restores target.
func caps0(cfg Config) []int64 {
	if cfg.BaselineCapacities != nil {
		return cfg.BaselineCapacities
	}
	return cfg.Capacities
}

// Instance returns the engine's current instance (the configured one in
// Incremental mode, the latest rebuild otherwise).
func (e *Engine) Instance() *scenario.Instance { return e.ins }

// Placement returns track a's current placement.
func (e *Engine) Placement(a int) *placement.Placement { return e.placements[a] }

// Baseline returns track a's post-placement baseline hit ratio.
func (e *Engine) Baseline(a int) float64 { return e.baselines[a] }

// Checkpoints returns the number of checkpoints after t = 0.
func (e *Engine) Checkpoints() int { return e.checkpoints }

// Advance walks every user through one checkpoint worth of mobility slots.
func (e *Engine) Advance() error {
	if e.pop == nil {
		return fmt.Errorf("dynamics: engine is externally driven (ExternalMobility); use ApplyExternal")
	}
	for s := 0; s < e.slotsPerCheckpoint; s++ {
		if err := e.pop.Step(e.cfg.SlotS, e.walkSrc); err != nil {
			return fmt.Errorf("dynamics: %w", err)
		}
	}
	return nil
}

// Refresh brings the instance (and evaluator) up to date with the walkers'
// current positions and with the users queued by ReviseUserMass: a delta
// update in Incremental mode, a fresh instance in Rebuild mode.
func (e *Engine) Refresh() error {
	if e.pop == nil {
		return fmt.Errorf("dynamics: engine is externally driven (ExternalMobility); use ApplyExternal")
	}
	e.pop.PositionsInto(e.positions)
	if len(e.pendingMass) > 1 {
		slices.Sort(e.pendingMass)
		e.pendingMass = slices.Compact(e.pendingMass)
	}
	if err := e.refresh(nil, e.pendingMass, e.allUsers, e.positions); err != nil {
		return err
	}
	e.pendingMass = e.pendingMass[:0]
	return nil
}

// ReviseUserMass queues users whose probability rows the caller swapped in
// the instance's workload (workload.SetUserProbRow) since the last
// checkpoint. The next Refresh revises them through ReviseUsers' mass-only
// path, each once however often it was queued. Deadline and inference rows
// must stay bound — only popularity may change through this path. An
// out-of-range user is rejected with nothing queued.
func (e *Engine) ReviseUserMass(users []int) error {
	if e.pop == nil {
		return fmt.Errorf("dynamics: engine is externally driven (ExternalMobility); use ApplyExternal")
	}
	K := len(e.allUsers)
	for _, k := range users {
		if k < 0 || k >= K {
			return fmt.Errorf("dynamics: user %d out of range [0,%d)", k, K)
		}
	}
	e.pendingMass = append(e.pendingMass, users...)
	return nil
}

// Positions returns a copy of the user positions the instance reflects:
// the construction-time draw until the first Refresh, the walkers'
// positions as of the latest Refresh afterwards. An externally driven
// engine in Incremental mode does not track them: its driver owns them.
func (e *Engine) Positions() []geom.Point {
	return append([]geom.Point(nil), e.positions...)
}

// ApplyExternal is the externally-driven engine's Refresh: the caller
// reports which users' workload rows it swapped (revised: all three rows
// via workload.SetUserRows; massOnly: the probability row alone via
// SetUserProbRow — both before this call) and which users moved to where.
// In Incremental mode this becomes one scenario.Instance.ReviseUsers
// delta; in Rebuild mode the tracked position vector is patched and a
// fresh instance built over the live workload — the same rebuild-vs-delta
// reference pair the internal loop has.
func (e *Engine) ApplyExternal(revised, massOnly []int, moved []int, pos []geom.Point) error {
	if !e.cfg.ExternalMobility {
		return fmt.Errorf("dynamics: engine owns its mobility; ApplyExternal requires ExternalMobility")
	}
	return e.refresh(revised, massOnly, moved, pos)
}

// refresh is the shared instance-update core of Refresh and ApplyExternal.
func (e *Engine) refresh(revised, massOnly []int, moved []int, pos []geom.Point) error {
	if e.cfg.Mode == Rebuild {
		// Mirror the Incremental path's input contract (topology.MoveUsers'
		// length/range/duplicate checks) before mutating the tracked
		// positions, so malformed input errors identically in both modes.
		if len(moved) != len(pos) {
			return fmt.Errorf("dynamics: %d moved users with %d positions", len(moved), len(pos))
		}
		if e.movedSeen == nil {
			e.movedSeen = make([]bool, len(e.positions))
		}
		for _, k := range moved {
			if k < 0 || k >= len(e.positions) {
				return fmt.Errorf("dynamics: moved user %d out of range [0,%d)", k, len(e.positions))
			}
		}
		dup := -1
		for _, k := range moved {
			if e.movedSeen[k] {
				dup = k
				break
			}
			e.movedSeen[k] = true
		}
		for _, k := range moved {
			e.movedSeen[k] = false
		}
		if dup >= 0 {
			return fmt.Errorf("dynamics: user %d moved twice", dup)
		}
		// Element-wise on purpose: moved is in caller batch order, not slot
		// order (the internal loop's all-users refresh passes the identity,
		// where this degenerates to self-assignment).
		for j, k := range moved {
			e.positions[k] = pos[j]
		}
		ins, err := e.ins.Rebuild(e.positions)
		if err != nil {
			return fmt.Errorf("dynamics: %w", err)
		}
		eval, err := placement.NewEvaluator(ins)
		if err != nil {
			return fmt.Errorf("dynamics: %w", err)
		}
		e.ins, e.eval = ins, eval
		return nil
	}
	delta, err := e.ins.ReviseUsers(revised, massOnly, moved, pos)
	if err != nil {
		return fmt.Errorf("dynamics: %w", err)
	}
	if err := e.eval.ApplyDelta(delta); err != nil {
		return fmt.Errorf("dynamics: %w", err)
	}
	for a := range e.accPairs {
		e.accPairs[a].Or(delta.Pairs)
	}
	return nil
}

// Measure scores every track's current placement on checkpoint cp's
// measurement stream (paired across tracks): fading realizations on the
// Monte-Carlo track, a synthesized request window on the trace track. The
// result may alias measurement-owned scratch: it is valid until the next
// Measure or Replace call, and callers that keep the values copy them.
func (e *Engine) Measure(cp int) ([]float64, error) {
	hits, err := e.measure.Measure(e.eval, e.placements, e.src.SplitIndexInto(&e.measureSrc, "fading", cp))
	if err != nil {
		return nil, fmt.Errorf("dynamics: %w", err)
	}
	return hits, nil
}

// resolve computes track a's placement on the current instance: warm-start
// repair from its previous placement and accumulated delta when the
// algorithm supports it and the engine is incremental, a cold solve
// otherwise.
func (e *Engine) resolve(a int) (*placement.Placement, error) {
	tr := e.cfg.Tracks[a]
	if ws, ok := tr.Algorithm.(placement.WarmStartAlgorithm); ok && e.cfg.Mode == Incremental {
		d := &scenario.Delta{Gen: e.ins.Generation(), Pairs: e.accPairs[a]}
		return ws.Repair(e.eval, e.caps, e.placements[a], d)
	}
	return tr.Algorithm.Place(e.eval, e.caps)
}

// Replace re-places track a on the current instance — warm-start repair
// when the algorithm supports it and the engine is incremental — and
// re-measures its baseline on checkpoint cp's replacement stream.
func (e *Engine) Replace(a, cp int) (float64, error) {
	p, err := e.resolve(a)
	if err != nil {
		return 0, fmt.Errorf("dynamics: %s: %w", e.cfg.Tracks[a].Algorithm.Name(), err)
	}
	e.accPairs[a].Zero()
	e.placements[a] = p
	e.replacements[a]++
	if e.traceMeas != nil {
		// The re-baseline is a single-placement Measure; recording it would
		// clobber track 0's window stats with track a's refade window.
		e.traceMeas.noRecord = true
		defer func() { e.traceMeas.noRecord = false }()
	}
	base, err := e.measure.Measure(e.eval, e.placements[a:a+1], e.src.SplitIndexInto(&e.measureSrc, "refade", cp))
	if err != nil {
		return 0, fmt.Errorf("dynamics: %w", err)
	}
	e.baselines[a] = base[0]
	return base[0], nil
}

// ForceReplace re-places every track on the current instance and
// re-baselines it on checkpoint cp's replacement stream — Replace for each
// track, the repair an outage, recovery, or capacity change forces.
func (e *Engine) ForceReplace(cp int) error {
	for a := range e.cfg.Tracks {
		if _, err := e.Replace(a, cp); err != nil {
			return err
		}
	}
	return nil
}

// GrowLibrary swaps in an instance over a grown model library (and the
// matching wider workload) mid-timeline: library churn. The instance must
// describe the same deployment — same servers, same users at the engine's
// current Positions — with at least the current model count; any other
// instance is rejected with the engine unchanged. The live down set and
// degraded budgets are re-applied to it, then every track is solved from
// scratch and re-baselined exactly as NewEngine over that instance with
// the engine's own source would; each growth re-solve counts as one
// re-placement. The engine keeps its mobility population, walk stream,
// replacement counts, and queued mass revisions. Call between checkpoints.
func (e *Engine) GrowLibrary(ins *scenario.Instance) error {
	if e.pop == nil {
		return fmt.Errorf("dynamics: engine is externally driven (ExternalMobility); its driver rebuilds it")
	}
	old := e.ins
	if ins == nil {
		return fmt.Errorf("dynamics: a replacement instance is required")
	}
	if ins.NumServers() != old.NumServers() || ins.NumUsers() != old.NumUsers() {
		return fmt.Errorf("dynamics: grown instance is %dx%d servers x users, want %dx%d",
			ins.NumServers(), ins.NumUsers(), old.NumServers(), old.NumUsers())
	}
	if ins.NumModels() < old.NumModels() {
		return fmt.Errorf("dynamics: grown instance has %d models, fewer than the current %d",
			ins.NumModels(), old.NumModels())
	}
	for k, p := range ins.Topology().UserPositions() {
		if p != e.positions[k] {
			return fmt.Errorf("dynamics: grown instance's user %d is at %v, engine tracks %v", k, p, e.positions[k])
		}
	}
	meas, err := freshMeasurement(e.measure)
	if err != nil {
		return err
	}
	if down := old.DownServers(); len(down) > 0 {
		if _, err := ins.SetServersDown(down, true); err != nil {
			return fmt.Errorf("dynamics: %w", err)
		}
	}
	for m := 0; m < old.NumServers(); m++ {
		if bits := old.ServerCapacityBits(m); bits >= 0 {
			if _, err := ins.SetServerCapacity(m, bits); err != nil {
				return fmt.Errorf("dynamics: %w", err)
			}
		}
	}
	if err := e.install(ins, meas); err != nil {
		return err
	}
	for a := range e.replacements {
		e.replacements[a]++
	}
	return nil
}

// SetServersDown takes servers out of (or back into) service on the live
// instance and threads the resulting delta through the evaluator and every
// track's accumulated repair set, exactly like a refresh. It works in both
// modes: the Incremental instance keeps the down set directly, and
// scenario.Instance.Rebuild re-applies it on every Rebuild-mode refresh, so
// the Incremental == Rebuild pin holds through outages. The caller decides
// when tracks re-place (typically Replace right after, on both the outage
// and the recovery — a degradation trigger alone would never fire on
// recovery, since hit ratios only improve when servers return).
func (e *Engine) SetServersDown(servers []int, down bool) error {
	delta, err := e.ins.SetServersDown(servers, down)
	if err != nil {
		return fmt.Errorf("dynamics: %w", err)
	}
	if err := e.eval.ApplyDelta(delta); err != nil {
		return fmt.Errorf("dynamics: %w", err)
	}
	for a := range e.accPairs {
		e.accPairs[a].Or(delta.Pairs)
	}
	return nil
}

// SetServerCapacity degrades server m to the given storage budget in bytes
// (negative restores the configured capacity) and threads the resulting
// delta through the evaluator and every track's accumulated repair set,
// exactly like SetServersDown. The live capacity vector feeds every
// subsequent solve — warm repairs evict whatever no longer fits — and
// scenario.Instance.Rebuild replays the instance-level budget on every
// Rebuild-mode refresh, so the Incremental == Rebuild pin holds through
// degradations. The caller decides when tracks re-place (typically Replace
// right after, on both the shrink and the restore). A budget above
// MaxServerCapacityBytes is rejected with the engine unchanged.
func (e *Engine) SetServerCapacity(m int, bytes int64) error {
	if m < 0 || m >= len(e.caps) {
		return fmt.Errorf("dynamics: server %d out of range [0,%d)", m, len(e.caps))
	}
	if err := CheckCapacityBytes(bytes); err != nil {
		return err
	}
	budget, budgetBits := e.caps0[m], int64(-1)
	if bytes >= 0 {
		budget, budgetBits = bytes, 8*bytes
	}
	delta, err := e.ins.SetServerCapacity(m, budgetBits)
	if err != nil {
		return fmt.Errorf("dynamics: %w", err)
	}
	e.caps[m] = budget
	if err := e.eval.ApplyDelta(delta); err != nil {
		return fmt.Errorf("dynamics: %w", err)
	}
	for a := range e.accPairs {
		e.accPairs[a].Or(delta.Pairs)
	}
	return nil
}

// MaxServerCapacityBytes is the largest storage budget SetServerCapacity
// and DegradeRegion accept: the instance keeps budgets in bits, and 8·bytes
// must fit in an int64.
const MaxServerCapacityBytes = math.MaxInt64 / 8

// CheckCapacityBytes rejects a storage budget whose bit count would
// overflow; negative budgets (restore) pass.
func CheckCapacityBytes(bytes int64) error {
	if bytes > MaxServerCapacityBytes {
		return fmt.Errorf("dynamics: capacity %d bytes exceeds the %d-byte limit", bytes, int64(MaxServerCapacityBytes))
	}
	return nil
}

// ServerCapacityBytes returns server m's live storage capacity in bytes —
// the configured value unless a SetServerCapacity degradation is active.
func (e *Engine) ServerCapacityBytes(m int) int64 { return e.caps[m] }

// SetRegionDown takes every server in the region out of (or back into)
// service in one correlated event — a single delta, a single evaluator
// application. An empty region is a no-op.
func (e *Engine) SetRegionDown(r geom.Region, down bool) error {
	servers, err := e.ins.Topology().ServersInRegion(r)
	if err != nil {
		return fmt.Errorf("dynamics: %w", err)
	}
	if len(servers) == 0 {
		return nil
	}
	return e.SetServersDown(servers, down)
}

// DegradeRegion applies one storage budget to every server in the region
// (negative restores each server's configured capacity) — the partial
// counterpart of SetRegionDown, for failure domains that lose storage
// rather than power. The budget is validated before any server changes, so
// a rejected call leaves the whole region untouched.
func (e *Engine) DegradeRegion(r geom.Region, bytes int64) error {
	if err := CheckCapacityBytes(bytes); err != nil {
		return err
	}
	servers, err := e.ins.Topology().ServersInRegion(r)
	if err != nil {
		return fmt.Errorf("dynamics: %w", err)
	}
	for _, m := range servers {
		if err := e.SetServerCapacity(m, bytes); err != nil {
			return err
		}
	}
	return nil
}

// ProfileCheckpoints advances n checkpoints and returns the wall time
// spent refreshing the instance and — when forceReplace is set — re-solving
// every track's placement at every checkpoint. The fading measurement is
// excluded on purpose: it is identical in both modes, while refresh +
// re-solve is the cost the incremental engine exists to cut — the
// tentpole's "checkpoint cost". Used by the dynamics benchmarks and
// cmd/benchdyn; forceReplace models the worst-case trigger cadence, while
// the paper's degradation-threshold protocol replaces only exceptionally.
func (e *Engine) ProfileCheckpoints(n int, forceReplace bool) (refresh, repair time.Duration, err error) {
	for cp := 0; cp < n; cp++ {
		if err := e.Advance(); err != nil {
			return 0, 0, err
		}
		start := time.Now()
		if err := e.Refresh(); err != nil {
			return 0, 0, err
		}
		refresh += time.Since(start)
		if !forceReplace {
			continue
		}
		for a := range e.cfg.Tracks {
			start = time.Now()
			p, err := e.resolve(a)
			if err != nil {
				return 0, 0, fmt.Errorf("dynamics: %s: %w", e.cfg.Tracks[a].Algorithm.Name(), err)
			}
			repair += time.Since(start)
			e.accPairs[a].Zero()
			e.placements[a] = p
		}
	}
	return refresh, repair, nil
}

// ProfileResolves advances n checkpoints and returns the wall time of a
// forced placement re-solve of every track at each one (refresh excluded).
// When rebuildHeap is set, the evaluator's persistent commit heap is
// invalidated before every solve, so the solver reconstructs its starting
// heap from all M·I pairs — the pre-persistence behavior — which isolates
// the heap carry-over's contribution to the warm re-solve
// (cmd/benchdyn's resolve section). Placements are identical either way;
// only the time differs.
func (e *Engine) ProfileResolves(n int, rebuildHeap bool) (time.Duration, error) {
	var total time.Duration
	for cp := 0; cp < n; cp++ {
		if err := e.Advance(); err != nil {
			return 0, err
		}
		if err := e.Refresh(); err != nil {
			return 0, err
		}
		for a := range e.cfg.Tracks {
			if rebuildHeap {
				e.eval.InvalidateHeap()
			}
			start := time.Now()
			p, err := e.resolve(a)
			if err != nil {
				return 0, fmt.Errorf("dynamics: %s: %w", e.cfg.Tracks[a].Algorithm.Name(), err)
			}
			total += time.Since(start)
			e.accPairs[a].Zero()
			e.placements[a] = p
		}
	}
	return total, nil
}

// ProfileResolvesSubset is ProfileResolves on a small-delta workload: per
// checkpoint every user walks, but only every strideth user's move is
// applied to the instance — the update pattern per-cell sharding produces,
// where one cell absorbs only the users that moved within or across its
// boundary. The accumulated delta per re-solve is ~K/stride users instead
// of K, so this isolates how the persistent commit heap's carry-over pays
// off when most gains survive a checkpoint. stride ≤ 1 degenerates to
// ProfileResolves.
func (e *Engine) ProfileResolvesSubset(n, stride int, rebuildHeap bool) (time.Duration, error) {
	if stride <= 1 {
		return e.ProfileResolves(n, rebuildHeap)
	}
	var total time.Duration
	var subset []int
	var subsetPos []geom.Point
	for cp := 0; cp < n; cp++ {
		if err := e.Advance(); err != nil {
			return 0, err
		}
		e.pop.PositionsInto(e.positions)
		subset = subset[:0]
		subsetPos = subsetPos[:0]
		for k := cp % stride; k < len(e.positions); k += stride {
			subset = append(subset, k)
			subsetPos = append(subsetPos, e.positions[k])
		}
		if err := e.refresh(nil, nil, subset, subsetPos); err != nil {
			return 0, err
		}
		for a := range e.cfg.Tracks {
			if rebuildHeap {
				e.eval.InvalidateHeap()
			}
			start := time.Now()
			p, err := e.resolve(a)
			if err != nil {
				return 0, fmt.Errorf("dynamics: %s: %w", e.cfg.Tracks[a].Algorithm.Name(), err)
			}
			total += time.Since(start)
			e.accPairs[a].Zero()
			e.placements[a] = p
		}
	}
	return total, nil
}

// Run drives the whole timeline: measure at t = 0, then Checkpoint after
// Checkpoint.
func (e *Engine) Run() (*Result, error) {
	res := &Result{
		Steps:        make([]Step, 0, e.checkpoints+1),
		Replacements: e.replacements,
	}
	first := Step{TimeMin: 0, HitRatio: make([]float64, len(e.cfg.Tracks)), Replaced: make([]bool, len(e.cfg.Tracks))}
	copy(first.HitRatio, e.baselines)
	res.Steps = append(res.Steps, first)

	for cp := 1; cp <= e.checkpoints; cp++ {
		step, err := e.Checkpoint(cp)
		if err != nil {
			return nil, err
		}
		// Step's slices are engine-owned and reused; the result keeps its
		// own copies.
		kept := Step{
			TimeMin:  step.TimeMin,
			HitRatio: append([]float64(nil), step.HitRatio...),
			Replaced: append([]bool(nil), step.Replaced...),
		}
		res.Steps = append(res.Steps, kept)
	}
	return res, nil
}

// Checkpoint advances one checkpoint: walk every user (Advance), refresh
// the instance (Refresh, which also applies queued mass revisions), then
// measure and fire the triggers (Step). cp counts from 1. The returned
// step's slices are engine-owned and reused, as Step's are.
func (e *Engine) Checkpoint(cp int) (Step, error) {
	if err := e.Advance(); err != nil {
		return Step{}, err
	}
	if err := e.Refresh(); err != nil {
		return Step{}, err
	}
	return e.Step(cp)
}

// Step runs everything in the checkpoint loop after the instance refresh:
// measure checkpoint cp, fire each track's trigger, and re-place (and
// re-baseline) the tracks whose trigger fired. Callers driving the engine
// externally (the shard layer) call it once per checkpoint after
// ApplyExternal; Run uses it verbatim.
//
// The returned step's HitRatio and Replaced slices are engine-owned and
// reused: they are valid until the next Step call, so the steady-state
// checkpoint loop allocates nothing. Callers that keep steps copy the
// slices (Run does).
func (e *Engine) Step(cp int) (Step, error) {
	hits, err := e.Measure(cp)
	if err != nil {
		return Step{}, err
	}
	step := Step{
		TimeMin:  float64(cp * e.cfg.CheckpointMin),
		HitRatio: e.stepHit[:len(e.cfg.Tracks)],
		Replaced: e.stepReplaced[:len(e.cfg.Tracks)],
	}
	copy(step.HitRatio, hits)
	for a := range step.Replaced {
		step.Replaced[a] = false
	}
	for a, tr := range e.cfg.Tracks {
		trigger := tr.Trigger
		if trigger == nil {
			trigger = NeverTrigger{}
		}
		// Read the copied hit ratio, not the measurement's buffer: a Replace
		// for an earlier track re-measures and overwrites that buffer.
		if !trigger.Fire(cp, step.HitRatio[a], e.baselines[a]) {
			continue
		}
		hr, err := e.Replace(a, cp)
		if err != nil {
			return Step{}, err
		}
		if r, ok := trigger.(Resetter); ok {
			r.Reset()
		}
		step.HitRatio[a] = hr
		step.Replaced[a] = true
	}
	return step, nil
}

// Replacements returns track a's re-placement count so far (excluding the
// initial placement).
func (e *Engine) Replacements(a int) int { return e.replacements[a] }

// TraceMeasurement returns the engine's trace-driven measurement, or nil
// when the engine measures with the Monte-Carlo fading track. Callers use
// it to read request-level serve stats (LastResults, LastLatencies) after a
// Step — the production-facing numbers the scalar hit ratio compresses away.
func (e *Engine) TraceMeasurement() *TraceMeasurement { return e.traceMeas }

// MemoryFootprint returns the engine's memory accounting: the instance's
// own breakdown, plus the evaluator state, the measurement scratch (for
// measurements that report it), the per-track placements (counted with the
// evaluator), and the engine's loop scratch.
func (e *Engine) MemoryFootprint() memprof.Footprint {
	f := e.ins.MemoryFootprint()
	f.Evaluator += e.eval.MemoryBytes()
	for _, p := range e.placements {
		if p != nil {
			f.Evaluator += p.MemoryBytes()
		}
	}
	if m, ok := e.measure.(interface{ MemoryBytes() int64 }); ok {
		f.Measurement += m.MemoryBytes()
	}
	f.Scratch += int64(cap(e.caps))*8 + int64(cap(e.caps0))*8
	f.Scratch += int64(cap(e.allUsers))*8 + int64(cap(e.positions))*16
	f.Scratch += int64(cap(e.movedSeen)) + int64(cap(e.baselines))*8
	f.Scratch += int64(cap(e.stepHit))*8 + int64(cap(e.stepReplaced))
	for a := range e.accPairs {
		f.Scratch += int64(cap(e.accPairs[a])) * 8
	}
	return f
}

// Run builds an engine and drives the full timeline.
func Run(cfg Config, src *rng.Source) (*Result, error) {
	e, err := NewEngine(cfg, src)
	if err != nil {
		return nil, err
	}
	return e.Run()
}
