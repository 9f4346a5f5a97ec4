package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"trimcaching/internal/cachesim"
	"trimcaching/internal/dynamics"
	"trimcaching/internal/libgen"
	"trimcaching/internal/memprof"
	"trimcaching/internal/modellib"
	"trimcaching/internal/placement"
	"trimcaching/internal/rng"
	"trimcaching/internal/scenario"
	"trimcaching/internal/shard"
	"trimcaching/internal/topology"
	"trimcaching/internal/wireless"
	demand "trimcaching/internal/workload"
)

// size is a workload's problem size: K users, M servers, I models.
type size struct {
	users, servers, models int
}

// workload is one benchmark input family. full is the measured size; smoke
// is the miniature the package test runs to catch plumbing drift.
type workload struct {
	name        string
	full, smoke size
	build       func(seed uint64, sz size, rec *recorder) (runner, error)
}

var workloads = []workload{
	{
		// Walk, refresh and the sim fading kernel on one core; serving,
		// the solver and sharding are bypassed.
		name:  "fading-walk",
		full:  size{users: 10000, servers: 100, models: 250},
		smoke: size{users: 300, servers: 10, models: 20},
		build: buildFadingWalk,
	},
	{
		// Trace-driven serving in 4 cells at workers = nproc: cachesim
		// under contention, handoffs, the serial coordinator.
		name:  "trace-cells",
		full:  size{users: 10000, servers: 100, models: 250},
		smoke: size{users: 400, servers: 20, models: 20},
		build: buildTraceCells,
	},
	{
		// Gen and Spec forced through Replace every checkpoint on the LoRA
		// sharing regime; cachesim and shard are unused.
		name:  "resolve-lora",
		full:  size{users: 300, servers: 10, models: 500},
		smoke: size{users: 40, servers: 4, models: 40},
		build: buildResolveLoRA,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// runner drives one built engine a checkpoint at a time.
type runner interface {
	// checkpoint runs checkpoint cp through the engine's public API,
	// recording a span around each call, and checks its outputs into t.
	// An error leaves the engine unusable.
	checkpoint(cp int, rec *recorder, t *tally) error
	// finalCheck runs the untimed end-of-run output checks.
	finalCheck(t *tally)
	footprint() memprof.Footprint
	// units returns K and the fading realizations per checkpoint (0 on the
	// trace-driven track), the denominators of the per-unit layer costs.
	units() (users, realizations int)
}

// perServerRequestsPerHour is BENCH_serve.json's offered load per server
// (K = 100k users at 1 request/user/hour over M = 100 servers). Holding it
// fixed keeps trace-cells at the same contention point: serve cost grows
// faster than linearly with the rate.
const perServerRequestsPerHour = 1000

// Capacity per server: 3 GiB for the shard recipe, 8 GiB for LoRA scale.
const (
	benchCapacity = 3 << 30
	loraCapacity  = 8 << 30
)

// benchRecipe rebuilds shard.NewBenchConfig's scenario from seed instead
// of its fixed rng.New(1): a 1B-parameter foundation model with LoRA
// adapters, pA = 0.02, the paper's server density. Servers sit on a grid
// (the recipe draws them uniformly): with drawn servers the per-seed
// spread of hit ratio and cost is too wide for a benchmark, while on the
// grid the seed still draws every user position and demand row.
func benchRecipe(sz size) (*modellib.Library, scenario.GenConfig, error) {
	lcfg := libgen.DefaultLoRAConfig(sz.models)
	lcfg.FoundationParams = 1_000_000_000
	lib, err := libgen.GenerateLoRA(lcfg)
	if err != nil {
		return nil, scenario.GenConfig{}, err
	}
	w := wireless.DefaultConfig()
	w.BackhaulBps = 1e9
	w.ActiveProb = 0.02
	return lib, scenario.GenConfig{
		Topology: topology.Config{
			AreaSideM:       1000 * math.Sqrt(float64(sz.servers)/10),
			NumServers:      sz.servers,
			NumUsers:        sz.users,
			CoverageRadiusM: w.CoverageRadiusM,
			ServerLayout:    topology.LayoutGrid,
		},
		Wireless: w,
		Workload: llmWorkload(),
	}, nil
}

// loraRecipe rebuilds dynamics.NewLoRAScaleConfig's scenario from seed: a
// 3.25B-parameter foundation model shared by every adapter on a 1 km side,
// servers on a grid as in benchRecipe. pA is 0.02 instead of the recipe's
// 0.5: there a few users near servers carry a hit ratio of about 1%, and
// Spec's DP width, set by the smallest of their gains, made per-seed
// checkpoint cost vary eightfold.
func loraRecipe(sz size) (*modellib.Library, scenario.GenConfig, error) {
	lib, err := libgen.GenerateLoRA(libgen.DefaultLoRAConfig(sz.models))
	if err != nil {
		return nil, scenario.GenConfig{}, err
	}
	w := wireless.DefaultConfig()
	w.BackhaulBps = 1e9
	w.ActiveProb = 0.02
	return lib, scenario.GenConfig{
		Topology: topology.Config{AreaSideM: 1000, NumServers: sz.servers, NumUsers: sz.users, CoverageRadiusM: w.CoverageRadiusM, ServerLayout: topology.LayoutGrid},
		Wireless: w,
		Workload: llmWorkload(),
	}, nil
}

// llmWorkload is both recipes' workload: LLM provisioning deadlines of
// minutes with seconds of on-device warm-up.
func llmWorkload() demand.Config {
	wl := demand.DefaultConfig()
	wl.DeadlineMinS, wl.DeadlineMaxS = 60, 180
	wl.InferMinS, wl.InferMaxS = 1, 5
	return wl
}

// generate draws the instance from the seed's "instance" stream, as the
// recipes do from rng.New(1).
func generate(seed uint64, lib *modellib.Library, gc scenario.GenConfig, rec *recorder) (*scenario.Instance, error) {
	s := rec.begin(spanGenerate)
	ins, err := scenario.Generate(lib, gc, rng.New(seed).Split("instance"))
	rec.end(s)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	return ins, nil
}

// Both unsharded workloads follow the paper's timeline shape: 10-minute
// checkpoints of 5 s mobility slots.
func dynConfig(ins *scenario.Instance, capacity int64, tracks []dynamics.Track, realizations int) dynamics.Config {
	return dynamics.Config{
		Instance:      ins,
		Capacities:    placement.UniformCapacities(ins.NumServers(), capacity),
		Tracks:        tracks,
		DurationMin:   120,
		CheckpointMin: 10,
		SlotS:         5,
		Realizations:  realizations,
		Workers:       1,
		Mode:          dynamics.Incremental,
	}
}

func lazyGen() placement.Algorithm {
	return placement.GenAlgorithm{Options: placement.GenOptions{Lazy: true}}
}

func buildFadingWalk(seed uint64, sz size, rec *recorder) (runner, error) {
	lib, gc, err := benchRecipe(sz)
	if err != nil {
		return nil, err
	}
	ins, err := generate(seed, lib, gc, rec)
	if err != nil {
		return nil, err
	}
	// No trigger: every checkpoint is Advance → Refresh → Measure.
	cfg := dynConfig(ins, benchCapacity, []dynamics.Track{{Algorithm: lazyGen()}}, 4)
	return newDynRunner(seed, cfg, nil, rec)
}

func buildResolveLoRA(seed uint64, sz size, rec *recorder) (runner, error) {
	lib, gc, err := loraRecipe(sz)
	if err != nil {
		return nil, err
	}
	ins, err := generate(seed, lib, gc, rec)
	if err != nil {
		return nil, err
	}
	cfg := dynConfig(ins, loraCapacity, []dynamics.Track{
		{Algorithm: lazyGen()},
		{Algorithm: placement.SpecAlgorithm{Options: placement.DefaultSpecOptions()}},
	}, 10)
	return newDynRunner(seed, cfg, []string{spanReplaceGen, spanReplaceSpc}, rec)
}

func buildTraceCells(seed uint64, sz size, rec *recorder) (runner, error) {
	lib, gc, err := benchRecipe(sz)
	if err != nil {
		return nil, err
	}
	ins, err := generate(seed, lib, gc, rec)
	if err != nil {
		return nil, err
	}
	dc := dynConfig(ins, benchCapacity, []dynamics.Track{
		{Algorithm: lazyGen()},
		{Algorithm: placement.IndependentAlgorithm{}},
	}, 4)
	cfg, err := shard.FromDynamics(dc, 4)
	if err != nil {
		return nil, err
	}
	cfg.Trace = &shard.TraceConfig{RequestsPerUserPerHour: perServerRequestsPerHour * float64(sz.servers) / float64(sz.users)}
	cfg.Workers = runtime.NumCPU()
	s := rec.begin(spanEngineNew)
	eng, err := shard.NewEngine(cfg, rng.New(seed))
	rec.end(s)
	if err != nil {
		return nil, fmt.Errorf("shard engine: %w", err)
	}
	return &shardRunner{eng: eng, k: sz.users}, nil
}

// dynRunner drives an unsharded dynamics.Engine. With replaceSpans set,
// every track is forced through Replace at every checkpoint, under the
// span name at its index.
type dynRunner struct {
	eng          *dynamics.Engine
	k, tracks    int
	realizations int
	replaceSpans []string
	hits         []float64
}

func newDynRunner(seed uint64, cfg dynamics.Config, replaceSpans []string, rec *recorder) (*dynRunner, error) {
	s := rec.begin(spanEngineNew)
	eng, err := dynamics.NewEngine(cfg, rng.New(seed))
	rec.end(s)
	if err != nil {
		return nil, fmt.Errorf("dynamics engine: %w", err)
	}
	return &dynRunner{
		eng:          eng,
		k:            cfg.Instance.NumUsers(),
		tracks:       len(cfg.Tracks),
		realizations: cfg.Realizations,
		replaceSpans: replaceSpans,
		hits:         make([]float64, len(cfg.Tracks)),
	}, nil
}

func (r *dynRunner) units() (int, int)            { return r.k, r.realizations }
func (r *dynRunner) footprint() memprof.Footprint { return r.eng.MemoryFootprint() }

func (r *dynRunner) checkpoint(cp int, rec *recorder, t *tally) error {
	t.attempted++
	s := rec.begin(spanAdvance)
	err := r.eng.Advance()
	rec.end(s)
	if err == nil {
		s = rec.begin(spanRefresh)
		err = r.eng.Refresh()
		rec.end(s)
	}
	var hits []float64
	if err == nil {
		s = rec.begin(spanMeasure)
		hits, err = r.eng.Measure(cp)
		rec.end(s)
	}
	if err != nil {
		t.failed++
		return err
	}
	// Measure's result aliases scratch the next Replace overwrites.
	copy(r.hits, hits)
	t.check(validRatios(r.hits))
	for a, name := range r.replaceSpans {
		t.attempted++
		s = rec.begin(name)
		hr, err := r.eng.Replace(a, cp)
		rec.end(s)
		if err != nil {
			t.failed++
			return err
		}
		t.check(validRatio(a, hr))
		r.hits[a] = hr
	}
	t.addHits(r.hits)
	if r.replaceSpans != nil && t.inWindow {
		pairs := 0
		for a := 0; a < r.tracks; a++ {
			pairs += r.eng.Placement(a).CountPlacements()
		}
		t.placedPairs += pairs
	}
	return nil
}

// finalCheck verifies every track's final placement against the live
// per-server capacities with a fresh evaluator over the final instance.
func (r *dynRunner) finalCheck(t *tally) {
	ins := r.eng.Instance()
	ev, err := placement.NewEvaluator(ins)
	if err != nil {
		t.fail(fmt.Errorf("final check: %w", err))
		return
	}
	caps := make([]int64, ins.NumServers())
	for m := range caps {
		caps[m] = r.eng.ServerCapacityBytes(m)
	}
	for a := 0; a < r.tracks; a++ {
		if err := ev.CheckFeasible(r.eng.Placement(a), caps); err != nil {
			t.fail(fmt.Errorf("track %d: %w", a, err))
		}
	}
}

// shardRunner drives a sharded shard.Engine with trace-driven serving.
type shardRunner struct {
	eng *shard.Engine
	k   int
}

func (r *shardRunner) units() (int, int)            { return r.k, 0 }
func (r *shardRunner) footprint() memprof.Footprint { return r.eng.MemoryFootprint() }

// finalCheck has nothing to add: every cell's placement lives behind the
// shard engine and is checked by its own tests.
func (r *shardRunner) finalCheck(*tally) {}

func (r *shardRunner) checkpoint(cp int, rec *recorder, t *tally) error {
	t.attempted++
	h0, g0 := r.eng.Handoffs(), r.eng.Grows()
	s := rec.begin(spanShard)
	st, err := r.eng.Checkpoint(cp)
	rec.end(s)
	if err != nil {
		t.failed++
		return err
	}
	t.check(errors.Join(validRatios(st.HitRatio), checkServe(st.Serve)))
	t.addHits(st.HitRatio)
	if t.timed {
		for _, res := range st.Serve {
			t.served += res.Requests
		}
	}
	if t.inWindow {
		t.handoffs += r.eng.Handoffs() - h0
		t.grows += r.eng.Grows() - g0
		for _, res := range st.Serve {
			t.addServe(res)
		}
	}
	return nil
}

// validRatios reports the first hit ratio that is not finite or lies
// outside [0,1].
func validRatios(hits []float64) error {
	for a, h := range hits {
		if err := validRatio(a, h); err != nil {
			return err
		}
	}
	return nil
}

func validRatio(track int, h float64) error {
	if math.IsNaN(h) || h < 0 || h > 1 {
		return fmt.Errorf("track %d: hit ratio %v outside [0,1]", track, h)
	}
	return nil
}

// checkServe checks one checkpoint's per-track serving aggregates: the
// routes partition the requests, QoS hits never exceed requests, every
// track served the same paired window, and the quantiles are ordered.
func checkServe(serve []cachesim.EventResult) error {
	if len(serve) == 0 {
		return errors.New("no serving results")
	}
	for a, res := range serve {
		if n := res.Direct + res.Relay + res.Cloud + res.Failed; n != res.Requests {
			return fmt.Errorf("track %d: %d requests but routes sum to %d", a, res.Requests, n)
		}
		if res.QoSHits > res.Requests {
			return fmt.Errorf("track %d: %d QoS hits > %d requests", a, res.QoSHits, res.Requests)
		}
		if res.Requests != serve[0].Requests {
			return fmt.Errorf("track %d: %d requests, track 0 served %d", a, res.Requests, serve[0].Requests)
		}
		if res.P50Latency > res.P95Latency || res.P95Latency > res.P99Latency {
			return fmt.Errorf("track %d: quantiles out of order p50=%v p95=%v p99=%v", a, res.P50Latency, res.P95Latency, res.P99Latency)
		}
	}
	return nil
}
