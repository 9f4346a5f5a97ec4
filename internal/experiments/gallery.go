// This file is the scenario gallery: a declarative event schedule (Timeline)
// injected into a dynamics timeline run — server outages with forced repair
// and recovery, partial-capacity degradations and correlated regional
// failures over geometric failure domains, flash-crowd and diurnal demand
// revisions through the mass-only revise path, and rolling model-library
// churn through each engine's GrowLibrary. One driver loop replays the
// schedule against the Engine interface both timeline engines satisfy, so
// the unsharded engine (RunGallery) and the sharded engine
// (RunGallerySharded) run the same event code; ApplyEvent, the fault half
// of that loop, is shared with the chaos soak. Each run emits a
// golden-pinnable GalleryResult: the hit-ratio trajectory per checkpoint,
// which events landed where, the re-placement count, and the measured
// recovery latency after an outage.
package experiments

import (
	"fmt"
	"math"

	"trimcaching/internal/dynamics"
	"trimcaching/internal/geom"
	"trimcaching/internal/libgen"
	"trimcaching/internal/modellib"
	"trimcaching/internal/placement"
	"trimcaching/internal/rng"
	"trimcaching/internal/scenario"
	"trimcaching/internal/shard"
	"trimcaching/internal/topology"
	"trimcaching/internal/wireless"
	"trimcaching/internal/workload"
)

// EventKind names one scenario-event family.
type EventKind string

// The event families the gallery can inject at a checkpoint boundary.
const (
	// EventOutage takes Servers out of service and forces an immediate
	// repair over the reduced server set.
	EventOutage EventKind = "outage"
	// EventRecovery returns Servers to service and forces a re-placement
	// onto the restored capacity (a degradation trigger never fires on
	// recovery — hit ratios only improve when servers come back).
	EventRecovery EventKind = "recovery"
	// EventDemand revises every user's popularity row to a blend of its
	// base profile and a target profile, scaled by MassScale, through the
	// mass-only revise path.
	EventDemand EventKind = "demand"
	// EventGrow appends Models adapters from the reserve library and
	// rebuilds placements over the grown library at the current positions.
	EventGrow EventKind = "grow"
	// EventDegrade shrinks each of Servers to the CapacityBytes storage
	// budget (partial-capacity degradation: the server keeps serving, with
	// less room) and forces a re-placement; a negative CapacityBytes
	// restores each server's configured capacity.
	EventDegrade EventKind = "degrade"
	// EventRegional is a correlated failure of every server whose position
	// Region contains: CapacityBytes == 0 takes the whole region down,
	// CapacityBytes > 0 degrades every server in it to that budget, and a
	// negative CapacityBytes recovers the region (servers back up, budgets
	// restored). Each variant forces a re-placement.
	EventRegional EventKind = "regional"
)

// Event is one timestamped scenario event. Events fire at the start of
// their checkpoint, before that checkpoint's mobility slots.
type Event struct {
	// Checkpoint is when the event fires, counting from 1.
	Checkpoint int `json:"checkpoint"`
	// Kind selects the event family.
	Kind EventKind `json:"kind"`
	// Servers lists the affected servers (outage and recovery).
	Servers []int `json:"servers,omitempty"`
	// HotModel is the demand target: a model id the crowd converges on, or
	// -1 for each user's own popularity profile reversed (the diurnal
	// "different population is awake" wave).
	HotModel int `json:"hotModel,omitempty"`
	// Weight is the demand blend weight in [0, 1]: 0 restores the base
	// profile, 1 replaces it with the target.
	Weight float64 `json:"weight,omitempty"`
	// MassScale multiplies total request mass (demand); 0 means 1.
	MassScale float64 `json:"massScale,omitempty"`
	// Models is how many reserve adapters a grow event appends.
	Models int `json:"models,omitempty"`
	// CapacityBytes is the storage budget of a degrade or regional event:
	// positive shrinks to this budget, negative restores the configured
	// capacity, and zero (regional only) means a full outage of the region.
	CapacityBytes int64 `json:"capacityBytes,omitempty"`
	// Region is the failure domain of a regional event.
	Region *geom.Region `json:"region,omitempty"`
}

// Timeline is a declarative event schedule, ordered by checkpoint.
type Timeline struct {
	Events []Event `json:"events"`
}

// At returns the events firing at checkpoint cp, in schedule order.
func (t Timeline) At(cp int) []Event {
	var evs []Event
	for _, ev := range t.Events {
		if ev.Checkpoint == cp {
			evs = append(evs, ev)
		}
	}
	return evs
}

// GalleryConfig parameterizes one gallery scenario run. The deployment is
// the shard benchmark's: a grid server layout at the paper's density (10
// servers per km²), a LoRA library over a shared 1B-parameter foundation
// model, LLM-provisioning deadlines, and an occasional-download activity
// model — the setting where every event family has visible effect.
type GalleryConfig struct {
	// Name labels the scenario in artifacts ("outage", "flashcrowd", ...).
	Name string `json:"name"`
	// Servers, Users, Models shape the deployment; ReserveModels is how
	// many extra adapters the master library holds for grow events.
	Servers       int `json:"servers"`
	Users         int `json:"users"`
	Models        int `json:"models"`
	ReserveModels int `json:"reserveModels"`
	// CapacityBytes is the per-server storage budget; 0 means 2.06 GB —
	// the shared 2 GB foundation plus 6 of the 10 MB adapters — so each
	// server caches a small slice of the library and placement has to
	// chase demand.
	CapacityBytes int64 `json:"capacityBytes"`
	// DurationMin, CheckpointMin, SlotS shape the timeline (§VII-E).
	DurationMin   int     `json:"durationMin"`
	CheckpointMin int     `json:"checkpointMin"`
	SlotS         float64 `json:"slotS"`
	// Realizations is the fading realizations per checkpoint measurement.
	Realizations int `json:"realizations"`
	// Mode selects Incremental or Rebuild refreshes (pinned identical).
	Mode dynamics.Mode `json:"mode"`
	// Workers bounds update/measurement parallelism; 0 means GOMAXPROCS.
	// Results are bit-identical for any worker count.
	Workers int `json:"workers,omitempty"`
	// Shards is the cell count for the sharded leg (RunGallerySharded).
	Shards int `json:"shards"`
	// Seed makes the whole run deterministic.
	Seed uint64 `json:"seed"`
	// RecoveryFrac defines recovery: the first checkpoint at or after the
	// recovery event whose hit ratio reaches RecoveryFrac times the
	// pre-outage hit ratio. 0 means 0.98.
	RecoveryFrac float64 `json:"recoveryFrac"`
	// Timeline is the event schedule (see GalleryScenario).
	Timeline Timeline `json:"timeline"`
}

// DefaultGalleryConfig returns the reduced-scale gallery setting used by
// the golden tests and the CI smoke: large enough that every event family
// moves the hit ratio, small enough to run in seconds.
func DefaultGalleryConfig() GalleryConfig {
	return GalleryConfig{
		Servers:       12,
		Users:         400,
		Models:        24,
		ReserveModels: 8,
		CapacityBytes: 2_060_000_000,
		DurationMin:   120,
		CheckpointMin: 10,
		SlotS:         5,
		Realizations:  4,
		Mode:          dynamics.Incremental,
		Shards:        4,
		Seed:          1,
		RecoveryFrac:  0.98,
	}
}

// Validate reports the first invalid field, if any.
func (c GalleryConfig) Validate() error {
	if c.Servers <= 0 || c.Users <= 0 || c.Models <= 0 {
		return fmt.Errorf("gallery: need positive servers/users/models, got %d/%d/%d", c.Servers, c.Users, c.Models)
	}
	if c.ReserveModels < 0 {
		return fmt.Errorf("gallery: ReserveModels must be >= 0, got %d", c.ReserveModels)
	}
	if c.DurationMin <= 0 || c.CheckpointMin <= 0 || c.DurationMin < c.CheckpointMin {
		return fmt.Errorf("gallery: bad timeline %d/%d min", c.DurationMin, c.CheckpointMin)
	}
	if c.SlotS <= 0 {
		return fmt.Errorf("gallery: SlotS must be positive")
	}
	if c.Realizations <= 0 {
		return fmt.Errorf("gallery: Realizations must be positive")
	}
	if c.Shards <= 0 {
		return fmt.Errorf("gallery: Shards must be positive, got %d", c.Shards)
	}
	if c.RecoveryFrac < 0 || c.RecoveryFrac > 1 {
		return fmt.Errorf("gallery: RecoveryFrac %v outside [0, 1]", c.RecoveryFrac)
	}
	checkpoints := c.DurationMin / c.CheckpointMin
	grown := 0
	for e, ev := range c.Timeline.Events {
		if ev.Checkpoint < 1 || ev.Checkpoint > checkpoints {
			return fmt.Errorf("gallery: event %d at checkpoint %d outside [1, %d]", e, ev.Checkpoint, checkpoints)
		}
		switch ev.Kind {
		case EventOutage, EventRecovery:
			if len(ev.Servers) == 0 {
				return fmt.Errorf("gallery: event %d (%s) names no servers", e, ev.Kind)
			}
			for _, m := range ev.Servers {
				if m < 0 || m >= c.Servers {
					return fmt.Errorf("gallery: event %d: server %d out of range [0,%d)", e, m, c.Servers)
				}
			}
		case EventDemand:
			if ev.HotModel < -1 || ev.HotModel >= c.Models {
				return fmt.Errorf("gallery: event %d: hot model %d out of range [-1,%d)", e, ev.HotModel, c.Models)
			}
			if ev.Weight < 0 || ev.Weight > 1 {
				return fmt.Errorf("gallery: event %d: weight %v outside [0, 1]", e, ev.Weight)
			}
			if ev.MassScale < 0 {
				return fmt.Errorf("gallery: event %d: mass scale %v negative", e, ev.MassScale)
			}
		case EventGrow:
			if ev.Models <= 0 {
				return fmt.Errorf("gallery: event %d grows by %d models", e, ev.Models)
			}
			grown += ev.Models
		case EventDegrade:
			if len(ev.Servers) == 0 {
				return fmt.Errorf("gallery: event %d (%s) names no servers", e, ev.Kind)
			}
			for _, m := range ev.Servers {
				if m < 0 || m >= c.Servers {
					return fmt.Errorf("gallery: event %d: server %d out of range [0,%d)", e, m, c.Servers)
				}
			}
			if ev.CapacityBytes == 0 {
				return fmt.Errorf("gallery: event %d (degrade) names no budget; use > 0 to shrink or < 0 to restore", e)
			}
		case EventRegional:
			if ev.Region == nil {
				return fmt.Errorf("gallery: event %d (regional) names no region", e)
			}
			if err := ev.Region.Validate(); err != nil {
				return fmt.Errorf("gallery: event %d: %w", e, err)
			}
		default:
			return fmt.Errorf("gallery: event %d has unknown kind %q", e, ev.Kind)
		}
	}
	if grown > c.ReserveModels {
		return fmt.Errorf("gallery: timeline grows %d models but only %d are reserved", grown, c.ReserveModels)
	}
	return nil
}

// GalleryNames lists the built-in scenarios in gallery order.
func GalleryNames() []string {
	return []string{"outage", "flashcrowd", "diurnal", "churn", "degrade", "regional"}
}

// GalleryScenario fills base's Name and Timeline with one of the built-in
// scenario families, scheduled relative to base's checkpoint count:
//
//   - "outage": a quarter of the servers fail a third of the way in and
//     return at two thirds, with forced repair on both edges.
//   - "flashcrowd": demand converges hard on one model (blend 0.8) with a
//     1.5x mass surge, then reverts.
//   - "diurnal": every checkpoint re-blends demand along a raised-cosine
//     wave toward each user's reversed profile — a different population
//     waking up through the day.
//   - "churn": the reserve adapters roll in as two library grows.
//   - "degrade": a quarter of the servers lose storage a third of the way
//     in — shrunk to the foundation plus ~2 adapters, so they keep serving
//     a reduced slice — and get their capacity back at two thirds.
//   - "regional": a correlated failure at a third — a disk-shaped blackout
//     around one corner of the grid plus a brownout (degraded budgets)
//     across the opposite half — recovered and restored at two thirds.
func GalleryScenario(name string, base GalleryConfig) (GalleryConfig, error) {
	cfg := base
	cfg.Name = name
	checkpoints := cfg.DurationMin / cfg.CheckpointMin
	third := (checkpoints + 2) / 3
	twoThirds := (2*checkpoints + 2) / 3
	switch name {
	case "outage":
		downed := make([]int, 0, cfg.Servers/4)
		for m := 0; m < (cfg.Servers+3)/4; m++ {
			downed = append(downed, m)
		}
		cfg.Timeline = Timeline{Events: []Event{
			{Checkpoint: third, Kind: EventOutage, Servers: downed},
			{Checkpoint: twoThirds, Kind: EventRecovery, Servers: downed},
		}}
	case "flashcrowd":
		cfg.Timeline = Timeline{Events: []Event{
			{Checkpoint: third, Kind: EventDemand, HotModel: 0, Weight: 0.8, MassScale: 1.5},
			{Checkpoint: twoThirds, Kind: EventDemand, HotModel: 0, Weight: 0, MassScale: 1},
		}}
	case "diurnal":
		evs := make([]Event, 0, checkpoints)
		for cp := 1; cp <= checkpoints; cp++ {
			w := 0.45 * (1 - math.Cos(2*math.Pi*float64(cp)/float64(checkpoints)))
			evs = append(evs, Event{Checkpoint: cp, Kind: EventDemand, HotModel: -1, Weight: w, MassScale: 1})
		}
		cfg.Timeline = Timeline{Events: evs}
	case "churn":
		first := cfg.ReserveModels / 2
		second := cfg.ReserveModels - first
		cfg.Timeline = Timeline{Events: []Event{
			{Checkpoint: third, Kind: EventGrow, Models: first},
			{Checkpoint: twoThirds, Kind: EventGrow, Models: second},
		}}
	case "degrade":
		shrunk := make([]int, 0, (cfg.Servers+3)/4)
		for m := 0; m < (cfg.Servers+3)/4; m++ {
			shrunk = append(shrunk, m)
		}
		cfg.Timeline = Timeline{Events: []Event{
			{Checkpoint: third, Kind: EventDegrade, Servers: shrunk, CapacityBytes: galleryDegradeBytes},
			{Checkpoint: twoThirds, Kind: EventDegrade, Servers: shrunk, CapacityBytes: -1},
		}}
	case "regional":
		side := gallerySideM(cfg.Servers)
		corner := geom.DiskRegion(side/4, side/4, side/3)
		band := geom.RectRegion(side/2, 0, side, side)
		cfg.Timeline = Timeline{Events: []Event{
			{Checkpoint: third, Kind: EventRegional, Region: &corner},
			{Checkpoint: third, Kind: EventRegional, Region: &band, CapacityBytes: galleryDegradeBytes},
			{Checkpoint: twoThirds, Kind: EventRegional, Region: &corner, CapacityBytes: -1},
			{Checkpoint: twoThirds, Kind: EventRegional, Region: &band, CapacityBytes: -1},
		}}
	default:
		return GalleryConfig{}, fmt.Errorf("gallery: unknown scenario %q (have %v)", name, GalleryNames())
	}
	return cfg, cfg.Validate()
}

// GalleryStep is one checkpoint of a gallery timeline.
type GalleryStep struct {
	// TimeMin is minutes since the start.
	TimeMin float64 `json:"timeMin"`
	// HitRatio is the fading-averaged cache hit ratio.
	HitRatio float64 `json:"hitRatio"`
	// Replaced reports whether the placement was re-solved here, by the
	// degradation trigger or an event's forced repair.
	Replaced bool `json:"replaced"`
	// Events labels the scenario events that fired at this checkpoint.
	Events []string `json:"events,omitempty"`
}

// GalleryResult is one completed gallery scenario run.
type GalleryResult struct {
	// Scenario is the scenario name; Sharded tells which engine ran it.
	Scenario string `json:"scenario"`
	Sharded  bool   `json:"sharded"`
	// Steps holds one entry per checkpoint, including t = 0.
	Steps []GalleryStep `json:"steps"`
	// Replacements counts re-placements over the whole run, including the
	// re-solves forced by events and library grows.
	Replacements int `json:"replacements"`
	// FinalModels is the active library size at the end (grows included).
	FinalModels int `json:"finalModels"`
	// PreOutageHit is the hit ratio of the checkpoint preceding the first
	// fault event — outage, degrade, or regional failure (0 when the
	// timeline has none).
	PreOutageHit float64 `json:"preOutageHit,omitempty"`
	// RecoveryCheckpoints is how many checkpoints after the recovery event
	// (or capacity restore) the hit ratio first reached RecoveryFrac times
	// PreOutageHit; -1 when the timeline has no recovery or the run never
	// recovered.
	RecoveryCheckpoints int `json:"recoveryCheckpoints"`
	// Handoffs and Grows are sharded-leg counters (cell ownership changes
	// and slot-table overflow rebuilds).
	Handoffs int `json:"handoffs,omitempty"`
	Grows    int `json:"grows,omitempty"`
}

// galleryFoundationParams sizes the shared foundation model (1B parameters,
// 2 GB at fp16), as in the shard benchmark deployment.
const galleryFoundationParams = 1_000_000_000

// galleryDegradeBytes is the degraded per-server budget the built-in
// degrade and regional families shrink to: the 2 GB foundation plus ~2 of
// the 10 MB adapters, down from the default 6 — a brownout that evicts
// most of a server's cached slice without blocking the library outright.
const galleryDegradeBytes = 2_020_000_000

// gallerySideM is the square deployment side at the paper's density (10
// servers per km²) — shared by the topology draw and the regional
// failure-domain geometry, so built-in regions stay aligned with the grid.
func gallerySideM(servers int) float64 {
	return 1000 * math.Sqrt(float64(servers)/10)
}

// gallerySetup is the state shared by both gallery legs: the master
// library and workload (Models+ReserveModels wide), the fixed topology
// draw, and the wireless/placement configuration.
type gallerySetup struct {
	cfg    GalleryConfig
	itot   int
	lib    *modellib.Library
	topo   *topology.Topology
	w      wireless.Config
	master *workload.Workload
	caps   []int64
	tracks []dynamics.Track
}

// newGallerySetup validates cfg and draws the deployment. The topology and
// master workload come from the same "instance" sub-streams Generate uses,
// so the draw is stable in (config, seed) alone.
func newGallerySetup(cfg GalleryConfig) (*gallerySetup, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.CapacityBytes == 0 {
		cfg.CapacityBytes = 2_060_000_000
	}
	if cfg.RecoveryFrac == 0 {
		cfg.RecoveryFrac = 0.98
	}
	itot := cfg.Models + cfg.ReserveModels
	lcfg := libgen.DefaultLoRAConfig(itot)
	lcfg.FoundationParams = galleryFoundationParams
	lib, err := libgen.GenerateLoRA(lcfg)
	if err != nil {
		return nil, fmt.Errorf("gallery: %w", err)
	}
	w := wireless.DefaultConfig()
	// A constrained backhaul (100 Mbps against a 2 GB foundation model)
	// makes relay delivery miss every deadline: models are served from the
	// covering servers' own caches, so per-server capacity binds and every
	// event family — outages, demand waves, library churn — moves the hit
	// ratio instead of being papered over by network-wide relay reach.
	w.BackhaulBps = 1e8
	w.ActiveProb = 0.02
	wl := workload.DefaultConfig()
	wl.DeadlineMinS, wl.DeadlineMaxS = 60, 180
	wl.InferMinS, wl.InferMaxS = 1, 5
	side := gallerySideM(cfg.Servers)
	src := rng.New(cfg.Seed).Split("instance")
	topo, err := topology.Generate(topology.Config{
		AreaSideM:       side,
		NumServers:      cfg.Servers,
		NumUsers:        cfg.Users,
		CoverageRadiusM: w.CoverageRadiusM,
		ServerLayout:    topology.LayoutGrid,
	}, src.Split("topology"))
	if err != nil {
		return nil, fmt.Errorf("gallery: %w", err)
	}
	master, err := workload.Generate(cfg.Users, itot, wl, src.Split("workload"))
	if err != nil {
		return nil, fmt.Errorf("gallery: %w", err)
	}
	return &gallerySetup{
		cfg:    cfg,
		itot:   itot,
		lib:    lib,
		topo:   topo,
		w:      w,
		master: master,
		caps:   placement.UniformCapacities(cfg.Servers, cfg.CapacityBytes),
		tracks: []dynamics.Track{{
			Algorithm: placement.GenAlgorithm{Options: placement.GenOptions{Lazy: true}},
			Trigger:   dynamics.ThresholdTrigger{Degradation: 0.05},
		}},
	}, nil
}

// activeInstance assembles an instance over the first active models of the
// master library, with an aliased workload whose rows are prefixes of the
// master rows — growing the library is then a pure prefix extension, and
// the shared foundation blocks keep their identity across grows. The
// demand blend is applied to the rows before the instance is built, so the
// instance's request mass matches the rows it reads.
func (s *gallerySetup) activeInstance(topo *topology.Topology, active int, coordinator bool, demand *demandState) (*scenario.Instance, *workload.Workload, error) {
	ids := make([]int, active)
	for i := range ids {
		ids[i] = i
	}
	alib, err := libgen.Subset(s.lib, ids)
	if err != nil {
		return nil, nil, fmt.Errorf("gallery: %w", err)
	}
	awork, err := workload.NewAliased(s.cfg.Users, active)
	if err != nil {
		return nil, nil, fmt.Errorf("gallery: %w", err)
	}
	for k := 0; k < s.cfg.Users; k++ {
		if err := awork.SetUserRows(k, s.master.ProbRow(k)[:active], s.master.DeadlineRow(k)[:active], s.master.InferRow(k)[:active]); err != nil {
			return nil, nil, fmt.Errorf("gallery: %w", err)
		}
	}
	if err := demand.apply(awork, active); err != nil {
		return nil, nil, err
	}
	var ins *scenario.Instance
	if coordinator {
		ins, err = scenario.NewCoordinator(topo, alib, awork, s.w)
	} else {
		ins, err = scenario.New(topo, alib, awork, s.w)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("gallery: %w", err)
	}
	return ins, awork, nil
}

// demandState is the current demand blend: every user's live probability
// row is base (the master prefix) blended toward a target profile and
// scaled. Rows are written into ping-ponged arenas so a demand revision
// always rebinds to fresh memory — consumers holding the previous rows
// (aliased cell slot tables in the sharded leg) keep reading stable values
// until their own revise rebinding.
type demandState struct {
	itot   int
	master *workload.Workload
	hot    int
	weight float64
	mass   float64
	arenas [2][]float64
	flip   int
}

func newDemandState(master *workload.Workload, itot int) *demandState {
	return &demandState{itot: itot, master: master, mass: 1}
}

// set records a demand event's blend parameters.
func (d *demandState) set(ev Event) {
	d.hot, d.weight, d.mass = ev.HotModel, ev.Weight, ev.MassScale
	if d.mass == 0 {
		d.mass = 1
	}
}

// active reports whether the live rows differ from the base profile.
func (d *demandState) active() bool { return d.weight != 0 || d.mass != 1 }

// apply rebinds every user's probability row in work to the current blend
// at the given active library width. With no blend in effect the rows go
// back to the master prefixes.
func (d *demandState) apply(work *workload.Workload, active int) error {
	K := work.NumUsers()
	if !d.active() {
		for k := 0; k < K; k++ {
			if err := work.SetUserProbRow(k, d.master.ProbRow(k)[:active]); err != nil {
				return fmt.Errorf("gallery: %w", err)
			}
		}
		return nil
	}
	if d.arenas[d.flip] == nil {
		d.arenas[d.flip] = make([]float64, K*d.itot)
	}
	arena := d.arenas[d.flip]
	d.flip ^= 1
	for k := 0; k < K; k++ {
		base := d.master.ProbRow(k)
		row := arena[k*d.itot : k*d.itot+active]
		for i := 0; i < active; i++ {
			target := 0.0
			switch {
			case d.hot >= 0:
				if i == d.hot {
					target = 1
				}
			default:
				target = base[active-1-i]
			}
			row[i] = d.mass * ((1-d.weight)*base[i] + d.weight*target)
		}
		if err := work.SetUserProbRow(k, row); err != nil {
			return fmt.Errorf("gallery: %w", err)
		}
	}
	return nil
}

// eventLabel renders an event for the step artifact.
func eventLabel(ev Event, active int) string {
	switch ev.Kind {
	case EventOutage, EventRecovery:
		return fmt.Sprintf("%s(%d servers)", ev.Kind, len(ev.Servers))
	case EventDemand:
		mass := ev.MassScale
		if mass == 0 {
			mass = 1
		}
		return fmt.Sprintf("demand(hot=%d w=%.3f mass=%.3f)", ev.HotModel, ev.Weight, mass)
	case EventGrow:
		return fmt.Sprintf("grow(+%d -> %d models)", ev.Models, active)
	case EventDegrade:
		if ev.CapacityBytes < 0 {
			return fmt.Sprintf("degrade(%d servers restored)", len(ev.Servers))
		}
		return fmt.Sprintf("degrade(%d servers -> %.2fGB)", len(ev.Servers), float64(ev.CapacityBytes)/1e9)
	case EventRegional:
		switch {
		case ev.CapacityBytes == 0:
			return fmt.Sprintf("regional(%s down)", ev.Region.Kind)
		case ev.CapacityBytes < 0:
			return fmt.Sprintf("regional(%s recovered)", ev.Region.Kind)
		default:
			return fmt.Sprintf("regional(%s -> %.2fGB)", ev.Region.Kind, float64(ev.CapacityBytes)/1e9)
		}
	default:
		return string(ev.Kind)
	}
}

// finishGallery computes the recovery latency and trims the result.
func finishGallery(res *GalleryResult, cfg GalleryConfig, recoveryCp int) {
	res.RecoveryCheckpoints = -1
	if recoveryCp < 0 || res.PreOutageHit <= 0 {
		return
	}
	target := cfg.RecoveryFrac * res.PreOutageHit
	for cp := recoveryCp; cp < len(res.Steps); cp++ {
		if res.Steps[cp].HitRatio >= target {
			res.RecoveryCheckpoints = cp - recoveryCp
			return
		}
	}
}

// Engine is the event surface both timeline engines share; *dynamics.Engine
// and *shard.Engine satisfy it directly. ApplyEvent and the gallery driver
// are written against it once, so both engines replay a timeline through
// the same code.
type Engine interface {
	SetServersDown(servers []int, down bool) error
	SetServerCapacity(m int, bytes int64) error
	SetRegionDown(r geom.Region, down bool) error
	DegradeRegion(r geom.Region, bytes int64) error
	ForceReplace(cp int) error
	ReviseUserMass(users []int) error
	GrowLibrary(ins *scenario.Instance) error
	Positions() []geom.Point
	Checkpoints() int
	InitialStep() dynamics.Step
	Checkpoint(cp int) (dynamics.Step, error)
	Replacements(a int) int
}

// ApplyEvent applies one fault event — outage, recovery, degrade, or
// regional — to eng, then re-places every track on checkpoint cp's
// replacement stream: a degradation trigger never fires on a recovery or
// a restore, so returned capacity must be re-placed onto explicitly.
// Demand and grow events rewrite the deployment's workload and library,
// which only the gallery driver holds, so they are rejected here.
func ApplyEvent(eng Engine, ev Event, cp int) error {
	if err := applyFault(eng, ev); err != nil {
		return err
	}
	return eng.ForceReplace(cp)
}

// applyFault is ApplyEvent without the re-placement.
func applyFault(eng Engine, ev Event) error {
	switch ev.Kind {
	case EventOutage, EventRecovery:
		return eng.SetServersDown(ev.Servers, ev.Kind == EventOutage)
	case EventDegrade:
		for _, m := range ev.Servers {
			if err := eng.SetServerCapacity(m, ev.CapacityBytes); err != nil {
				return err
			}
		}
		return nil
	case EventRegional:
		if ev.Region == nil {
			return fmt.Errorf("gallery: regional event names no region")
		}
		switch {
		case ev.CapacityBytes == 0:
			return eng.SetRegionDown(*ev.Region, true)
		case ev.CapacityBytes < 0:
			if err := eng.SetRegionDown(*ev.Region, false); err != nil {
				return err
			}
			return eng.DegradeRegion(*ev.Region, -1)
		default:
			return eng.DegradeRegion(*ev.Region, ev.CapacityBytes)
		}
	default:
		return fmt.Errorf("gallery: %q is not a fault event", ev.Kind)
	}
}

// faultEdge reports whether ev starts a fault (an outage, a shrink, a
// regional failure) or ends one (a recovery, a restore).
func faultEdge(ev Event) (fault, recovery bool) {
	switch ev.Kind {
	case EventOutage:
		return true, false
	case EventRecovery:
		return false, true
	case EventDegrade:
		return ev.CapacityBytes > 0, ev.CapacityBytes < 0
	case EventRegional:
		return ev.CapacityBytes >= 0, ev.CapacityBytes < 0
	}
	return false, false
}

// NewEngine builds the unsharded engine over dc when shards is 0, or the
// sharded engine at that many cells (dc lifted by shard.FromDynamics, with
// dc.Workers bounding the cell pool too).
func NewEngine(dc dynamics.Config, shards int, src *rng.Source) (Engine, error) {
	if shards == 0 {
		de, err := dynamics.NewEngine(dc, src)
		if err != nil {
			return nil, err
		}
		return de, nil
	}
	scfg, err := shard.FromDynamics(dc, shards)
	if err != nil {
		return nil, err
	}
	scfg.Workers = dc.Workers
	se, err := shard.NewEngine(scfg, src)
	if err != nil {
		return nil, err
	}
	return se, nil
}

// RunGallery runs one gallery scenario through the unsharded dynamics
// engine. On a failed event or checkpoint the result holds the steps
// before it, next to the error.
func RunGallery(cfg GalleryConfig) (*GalleryResult, error) { return runGallery(cfg, false) }

// RunGallerySharded runs one gallery scenario through the sharded engine
// at cfg.Shards cells, over a coordinator instance of the active library.
// Errors are reported as RunGallery's are.
func RunGallerySharded(cfg GalleryConfig) (*GalleryResult, error) { return runGallery(cfg, true) }

// runGallery is the gallery driver: it builds the chosen engine over the
// active library prefix and replays the timeline through it. Fault events
// go through ApplyEvent. A grow event hands the engine a wider instance
// built at its current positions (GrowLibrary), with the live demand blend
// applied. Demand events take effect at the checkpoint's refresh: after
// all of the checkpoint's events, every user's probability row is rebound
// to the latest blend once and the users are queued through
// ReviseUserMass, so a re-placement forced at the same checkpoint sees the
// same demand in both engines. On error the result holds the steps
// completed before the failing checkpoint.
func runGallery(cfg GalleryConfig, sharded bool) (*GalleryResult, error) {
	s, err := newGallerySetup(cfg)
	if err != nil {
		return nil, err
	}
	cfg = s.cfg // defaults filled
	active := cfg.Models
	demand := newDemandState(s.master, s.itot)
	ins, awork, err := s.activeInstance(s.topo, active, sharded, demand)
	if err != nil {
		return nil, err
	}
	shards := 0
	if sharded {
		shards = cfg.Shards
	}
	eng, err := NewEngine(dynamics.Config{
		Instance:      ins,
		Capacities:    s.caps,
		Tracks:        s.tracks,
		DurationMin:   cfg.DurationMin,
		CheckpointMin: cfg.CheckpointMin,
		SlotS:         cfg.SlotS,
		Realizations:  cfg.Realizations,
		Workers:       cfg.Workers,
		Mode:          cfg.Mode,
	}, shards, rng.New(cfg.Seed))
	if err != nil {
		return nil, err
	}
	allUsers := make([]int, cfg.Users)
	for k := range allUsers {
		allUsers[k] = k
	}

	res := &GalleryResult{Scenario: cfg.Name, Sharded: sharded, Steps: make([]GalleryStep, 0, eng.Checkpoints()+1)}
	res.Steps = append(res.Steps, GalleryStep{TimeMin: 0, HitRatio: eng.InitialStep().HitRatio[0]})
	recoveryCp := -1
	for cp := 1; cp <= eng.Checkpoints(); cp++ {
		var labels []string
		forced, revised := false, false
		for _, ev := range cfg.Timeline.At(cp) {
			switch ev.Kind {
			case EventDemand:
				demand.set(ev)
				revised = true
			case EventGrow:
				active += ev.Models
				awork, err = s.grow(eng, active, sharded, demand)
				forced = true
			default:
				fault, recovery := faultEdge(ev)
				if fault && res.PreOutageHit == 0 {
					res.PreOutageHit = res.Steps[len(res.Steps)-1].HitRatio
				}
				if recovery {
					recoveryCp = cp
				}
				err = ApplyEvent(eng, ev, cp)
				forced = true
			}
			if err != nil {
				return res, fmt.Errorf("gallery: checkpoint %d: %w", cp, err)
			}
			labels = append(labels, eventLabel(ev, active))
		}
		if revised {
			if err = demand.apply(awork, active); err == nil {
				err = eng.ReviseUserMass(allUsers)
			}
			if err != nil {
				return res, fmt.Errorf("gallery: checkpoint %d: %w", cp, err)
			}
		}
		st, err := eng.Checkpoint(cp)
		if err != nil {
			return res, fmt.Errorf("gallery: checkpoint %d: %w", cp, err)
		}
		res.Steps = append(res.Steps, GalleryStep{
			TimeMin:  st.TimeMin,
			HitRatio: st.HitRatio[0],
			Replaced: st.Replaced[0] || forced,
			Events:   labels,
		})
	}
	res.Replacements = eng.Replacements(0)
	res.FinalModels = active
	if se, ok := eng.(*shard.Engine); ok {
		res.Handoffs, res.Grows = se.Handoffs(), se.Grows()
	}
	finishGallery(res, cfg, recoveryCp)
	return res, nil
}

// grow hands eng an instance over the first active models, built at the
// engine's current user positions with the live demand blend applied, and
// returns the instance's workload — the one later demand events rewrite.
func (s *gallerySetup) grow(eng Engine, active int, coordinator bool, demand *demandState) (*workload.Workload, error) {
	topo, err := s.topo.WithUserPositions(eng.Positions())
	if err != nil {
		return nil, err
	}
	grown, work, err := s.activeInstance(topo, active, coordinator, demand)
	if err != nil {
		return nil, err
	}
	if err := eng.GrowLibrary(grown); err != nil {
		return nil, err
	}
	return work, nil
}
