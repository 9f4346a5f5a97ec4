package main

// The -serve section: trace-driven serving at BENCH_serve.json dimensions
// (K = 100k users by default) — every checkpoint synthesizes a request
// window (Poisson arrivals per user, Zipf popularity) and serves it through
// the event-driven simulator, so the rows report request-level numbers the
// fading benchmark cannot: requests per second of wall time, the measured
// QoS hit ratio, and exact p50/p95/p99 request latency. The unsharded
// dynamics engine is compared against the sharded engine at 1/2/4/8 cells;
// sharded cells synthesize only their owned users' arrivals (global-user-
// keyed streams, so the window partitions exactly) and the per-cell sorted
// latency buffers are k-way merged for the global quantiles — never
// quantiles-of-quantiles. Per-checkpoint latency is the full serving loop —
// walk, membership plan, instance refresh, synthesis, event-driven serve,
// and any triggered re-placements — with the same warm-up-then-min protocol
// as the shard benchmark. The emitted JSON is schema-validated before it is
// written.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"trimcaching/internal/cachesim"
	"trimcaching/internal/dynamics"
	"trimcaching/internal/rng"
	"trimcaching/internal/shard"
)

// serveRun is one engine configuration's serving measurements.
type serveRun struct {
	// Shards is the cell count; 0 marks the unsharded dynamics engine.
	Shards int `json:"shards"`
	// Workers is the worker-pool bound the row ran with.
	Workers int `json:"workers"`
	// Checkpoints is the timed checkpoint count (after one warm-up).
	Checkpoints int `json:"checkpoints"`
	// CheckpointNs is the fastest timed serving checkpoint's end-to-end
	// wall time (walk + plan + refresh + synthesis + serve + triggers).
	CheckpointNs int64 `json:"checkpoint_ns_per_op"`
	// Requests is the total request count over the timed checkpoints.
	Requests int `json:"requests"`
	// ThroughputRequestsPerS is the timed checkpoints' total request count
	// over their total wall time — the sustained request-level rate of the
	// whole loop, not just the serve kernel.
	ThroughputRequestsPerS float64 `json:"throughput_requests_per_s"`
	// Speedup is the single-core unsharded per-checkpoint time over this
	// run's.
	Speedup float64 `json:"speedup"`
	// HitRatioMean averages the measured QoS hit ratio (aggregated across
	// cells by ΣQoSHits/ΣRequests) over the timed checkpoints.
	HitRatioMean float64 `json:"hit_ratio_mean"`
	// P50/P95/P99LatencyNs are request-weighted means over the timed
	// checkpoints of each window's exact latency quantile. Within a window
	// the quantile is exact even when sharded — per-cell sorted latency
	// buffers are merged before the quantile is read.
	P50LatencyNs int64 `json:"p50_latency_ns"`
	P95LatencyNs int64 `json:"p95_latency_ns"`
	P99LatencyNs int64 `json:"p99_latency_ns"`
	// Handoffs counts cross-cell ownership transfers over the timed
	// checkpoints (0 when unsharded).
	Handoffs int `json:"handoffs"`
}

// serveScenario is the serve report's scenario header.
type serveScenario struct {
	Servers                int     `json:"servers"`
	Users                  int     `json:"users"`
	Models                 int     `json:"models"`
	CheckpointMin          int     `json:"checkpointMin"`
	SlotS                  float64 `json:"slotS"`
	RequestsPerUserPerHour float64 `json:"requestsPerUserPerHour"`
	WindowS                float64 `json:"windowS"`
}

type serveReport struct {
	Scenario serveScenario `json:"scenario"`
	// Unsharded is the single whole-area engine baseline (Workers = 1).
	Unsharded serveRun `json:"unsharded"`
	// Sharded holds one entry per cell count, ascending (Workers = 1).
	Sharded []serveRun `json:"sharded"`
	// Multicore repeats the sweep with Workers = max(2, NumCPU), speedups
	// still against the single-core unsharded baseline.
	Multicore struct {
		Workers   int        `json:"workers"`
		Unsharded serveRun   `json:"unsharded"`
		Sharded   []serveRun `json:"sharded"`
	} `json:"multicore"`
	// Speedup is the headline number: the largest cell count's single-core
	// speedup.
	Speedup           float64 `json:"speedup"`
	SpeedupDefinition string  `json:"speedup_definition"`
}

// serveRunSchema validates one serveRun object.
var serveRunSchema = []fieldSpec{
	{"shards", 0},
	{"workers", 1},
	{"checkpoints", 1},
	{"checkpoint_ns_per_op", 1},
	{"requests", 1},
	{"throughput_requests_per_s", 0.000001},
	{"hit_ratio_mean", 0.000001},
	{"p50_latency_ns", 1},
	{"p95_latency_ns", 1},
	{"p99_latency_ns", 1},
}

var serveTopSchema = []fieldSpec{
	{"scenario.servers", 1},
	{"scenario.users", 1},
	{"scenario.models", 1},
	{"scenario.checkpointMin", 1},
	{"scenario.slotS", 0.000001},
	{"scenario.requestsPerUserPerHour", 0.000001},
	{"scenario.windowS", 1},
	{"multicore.workers", 2},
	{"speedup", 0.000001},
}

// serveStats accumulates one run's timed-checkpoint serving numbers.
type serveStats struct {
	dur      time.Duration // fastest timed checkpoint
	totalDur time.Duration
	requests int
	hitSum   float64
	// Request-weighted quantile sums (quantile * window requests).
	p50Sum, p95Sum, p99Sum float64
}

func (s *serveStats) add(res cachesim.EventResult, d time.Duration, first bool) {
	if first || d < s.dur {
		s.dur = d
	}
	s.totalDur += d
	s.requests += res.Requests
	s.hitSum += res.HitRatio
	w := float64(res.Requests)
	s.p50Sum += float64(res.P50Latency.Nanoseconds()) * w
	s.p95Sum += float64(res.P95Latency.Nanoseconds()) * w
	s.p99Sum += float64(res.P99Latency.Nanoseconds()) * w
}

func (s *serveStats) row(shards, workers, checkpoints int) serveRun {
	run := serveRun{
		Shards:       shards,
		Workers:      workers,
		Checkpoints:  checkpoints,
		CheckpointNs: s.dur.Nanoseconds(),
		Requests:     s.requests,
		HitRatioMean: s.hitSum / float64(checkpoints),
	}
	if s.totalDur > 0 {
		run.ThroughputRequestsPerS = float64(s.requests) / s.totalDur.Seconds()
	}
	if s.requests > 0 {
		w := float64(s.requests)
		run.P50LatencyNs = int64(s.p50Sum / w)
		run.P95LatencyNs = int64(s.p95Sum / w)
		run.P99LatencyNs = int64(s.p99Sum / w)
	}
	return run
}

// serveSweep runs the unsharded trace-driven baseline and one sharded
// engine per cell count, all with the given worker-pool bound. baseNs is
// the reference per-checkpoint time every speedup divides; 0 means use this
// sweep's own unsharded time.
func serveSweep(stdout io.Writer, scen *serveScenario, users, servers, models int, rate float64, checkpoints, workers int, counts []int, baseNs int64) (serveRun, []serveRun, error) {
	base, err := shard.NewBenchConfig(users, servers, models, 1)
	if err != nil {
		return serveRun{}, nil, err
	}
	windowS := float64(base.CheckpointMin) * 60
	if scen != nil {
		scen.Servers = servers
		scen.Users = users
		scen.Models = models
		scen.CheckpointMin = base.CheckpointMin
		scen.SlotS = base.SlotS
		scen.RequestsPerUserPerHour = rate
		scen.WindowS = windowS
	}
	eng, err := dynamics.NewEngine(dynamics.Config{
		Instance:      base.Instance,
		Capacities:    base.Capacities,
		Tracks:        base.Tracks,
		DurationMin:   base.DurationMin,
		CheckpointMin: base.CheckpointMin,
		SlotS:         base.SlotS,
		Realizations:  base.Realizations,
		Workers:       workers,
		Mode:          dynamics.Incremental,
		Measurement:   &dynamics.TraceMeasurement{RequestsPerUserPerHour: rate, WindowS: windowS},
	}, rng.New(1))
	if err != nil {
		return serveRun{}, nil, err
	}
	if _, err := eng.Checkpoint(1); err != nil { // warm-up
		return serveRun{}, nil, err
	}
	var us serveStats
	for cp := 2; cp <= checkpoints+1; cp++ {
		start := time.Now()
		st, err := eng.Checkpoint(cp)
		if err != nil {
			return serveRun{}, nil, err
		}
		us.add(st.Serve[0], time.Since(start), cp == 2)
	}
	un := us.row(0, workers, checkpoints)
	un.Speedup = 1
	if baseNs == 0 {
		baseNs = un.CheckpointNs
	} else if un.CheckpointNs > 0 {
		un.Speedup = float64(baseNs) / float64(un.CheckpointNs)
	}
	eng = nil
	base = shard.Config{}
	debug.FreeOSMemory()
	fmt.Fprintf(stdout, "serve unsharded (workers=%d): %v/checkpoint, %.0f req/s, p99 %v\n",
		workers, time.Duration(un.CheckpointNs), un.ThroughputRequestsPerS, time.Duration(un.P99LatencyNs))

	var runs []serveRun
	for _, n := range counts {
		cfg, err := shard.NewBenchConfig(users, servers, models, n)
		if err != nil {
			return serveRun{}, nil, err
		}
		cfg.Workers = workers
		cfg.Trace = &shard.TraceConfig{RequestsPerUserPerHour: rate, WindowS: windowS}
		se, err := shard.NewEngine(cfg, rng.New(1))
		if err != nil {
			return serveRun{}, nil, err
		}
		if _, err := se.Checkpoint(1); err != nil { // warm-up
			return serveRun{}, nil, err
		}
		warmHandoffs := se.Handoffs()
		var ss serveStats
		for cp := 2; cp <= checkpoints+1; cp++ {
			start := time.Now()
			st, err := se.Checkpoint(cp)
			if err != nil {
				return serveRun{}, nil, err
			}
			ss.add(st.Serve[0], time.Since(start), cp == 2)
		}
		run := ss.row(n, workers, checkpoints)
		run.Handoffs = se.Handoffs() - warmHandoffs
		if ss.dur > 0 {
			run.Speedup = float64(baseNs) / float64(ss.dur)
		}
		runs = append(runs, run)
		fmt.Fprintf(stdout, "serve %d shards (workers=%d): %v/checkpoint (%.2fx), %.0f req/s, hit %.4f vs %.4f, p99 %v, %d handoffs\n",
			n, workers, time.Duration(run.CheckpointNs), run.Speedup, run.ThroughputRequestsPerS,
			run.HitRatioMean, un.HitRatioMean, time.Duration(run.P99LatencyNs), run.Handoffs)
		se = nil
		cfg = shard.Config{}
		debug.FreeOSMemory()
	}
	return un, runs, nil
}

// runServe executes the trace-driven serving benchmark — the single-core
// and multicore sweeps — and writes the report.
func runServe(stdout io.Writer, users, servers, models int, rate float64, checkpoints int, counts []int, out string) error {
	if checkpoints <= 0 {
		return fmt.Errorf("serve checkpoints must be positive, got %d", checkpoints)
	}
	if rate <= 0 {
		return fmt.Errorf("serve request rate must be positive, got %v", rate)
	}
	var rep serveReport

	un, runs, err := serveSweep(stdout, &rep.Scenario, users, servers, models, rate, checkpoints, 1, counts, 0)
	if err != nil {
		return err
	}
	rep.Unsharded = un
	rep.Sharded = runs

	mcWorkers := runtime.NumCPU()
	if mcWorkers < 2 {
		mcWorkers = 2
	}
	mcUn, mcRuns, err := serveSweep(stdout, nil, users, servers, models, rate, checkpoints, mcWorkers, counts, un.CheckpointNs)
	if err != nil {
		return err
	}
	rep.Multicore.Workers = mcWorkers
	rep.Multicore.Unsharded = mcUn
	rep.Multicore.Sharded = mcRuns

	rep.Speedup = rep.Sharded[len(rep.Sharded)-1].Speedup
	rep.SpeedupDefinition = "end-to-end per-checkpoint wall time of the trace-driven serving loop (walk + membership plan + instance refresh + request synthesis + event-driven serve + triggered re-placements) of the unsharded dynamics engine over the sharded multi-cell engine at the largest cell count, all worker pools pinned to one goroutine; the multicore section repeats the sweep with workers = max(2, NumCPU), speedups still against the single-core unsharded baseline; latency quantiles are exact within each window (per-cell sorted buffers merged before the quantile is read) and request-weighted-averaged across the timed checkpoints"

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := validateServeReport(data); err != nil {
		return fmt.Errorf("emitted serve report fails schema validation: %w", err)
	}
	if out == "-" {
		_, err = stdout.Write(data)
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "serve speedup %.2fx at %d shards -> %s\n",
		rep.Speedup, rep.Sharded[len(rep.Sharded)-1].Shards, out)
	return nil
}

// checkServeRuns validates one {unsharded, sharded[]} group of a serve
// report.
func checkServeRuns(doc map[string]any, label string) error {
	un, ok := doc["unsharded"].(map[string]any)
	if !ok {
		return fmt.Errorf("%sunsharded: missing or not an object", label)
	}
	if err := checkFields(un, serveRunSchema); err != nil {
		return fmt.Errorf("%sunsharded: %w", label, err)
	}
	runs, ok := doc["sharded"].([]any)
	if !ok || len(runs) == 0 {
		return fmt.Errorf("%ssharded: missing or empty", label)
	}
	for i, r := range runs {
		obj, ok := r.(map[string]any)
		if !ok {
			return fmt.Errorf("%ssharded[%d]: not an object", label, i)
		}
		if err := checkFields(obj, serveRunSchema); err != nil {
			return fmt.Errorf("%ssharded[%d]: %w", label, i, err)
		}
		if v, _ := obj["speedup"].(float64); v < 0.000001 {
			return fmt.Errorf("%ssharded[%d]: speedup %v below minimum", label, i, v)
		}
		// The quantiles must be ordered; a crossed pair means the merge or
		// the weighting broke.
		p50, _ := obj["p50_latency_ns"].(float64)
		p95, _ := obj["p95_latency_ns"].(float64)
		p99, _ := obj["p99_latency_ns"].(float64)
		if p50 > p95 || p95 > p99 {
			return fmt.Errorf("%ssharded[%d]: latency quantiles out of order: p50=%v p95=%v p99=%v", label, i, p50, p95, p99)
		}
	}
	return nil
}

// validateServeReport checks the emitted BENCH_serve.json bytes against the
// documented schema (docs/BENCHMARKS.md): the scenario header including the
// request rate, the single-core unsharded baseline and sharded entries with
// request-level throughput and ordered latency quantiles, and the multicore
// section.
func validateServeReport(data []byte) error {
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	if err := checkFields(doc, serveTopSchema); err != nil {
		return err
	}
	if _, ok := doc["speedup_definition"].(string); !ok {
		return fmt.Errorf("speedup_definition: missing or not a string")
	}
	if err := checkServeRuns(doc, ""); err != nil {
		return err
	}
	mc, ok := doc["multicore"].(map[string]any)
	if !ok {
		return fmt.Errorf("multicore: missing or not an object")
	}
	return checkServeRuns(mc, "multicore.")
}
