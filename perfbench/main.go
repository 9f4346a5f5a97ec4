// Command perfbench is the repository benchmark. It runs one workload —
// a batch closed loop of checkpoints through the simulator's engines —
// from inputs built from a seed, checks the outputs, and prints its
// metrics, the last line of standard output being one JSON object:
//
//	go run . --workload fading-walk --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics, measured untraced. --trace 1
// is a separate run that records a span around every call the benchmark
// makes into a layer and reports per-layer metrics; it traces every other
// timed checkpoint, so the untraced ones in between give the tracing
// overhead. Each run writes its report (and, traced, its spans) under
// --out. README.md defines every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Fixed run protocol. Each run builds the engine setupRuns times and
// reports the median set-up; the timed loop then runs at least
// windowCheckpoints checkpoints (the deterministic window the simulated
// outputs cover: a 2-hour timeline of 10-minute checkpoints) and keeps
// going until --seconds have passed.
const (
	setupRuns         = 3
	windowCheckpoints = 12
	slotsPerCkpt      = 10 * 60 / 5 // CheckpointMin·60 / SlotS, as dynConfig sets them
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fading-walk, trace-cells or resolve-lora")
	seed := fs.Uint64("seed", 1, "seed every input is built from")
	seconds := fs.Float64("seconds", 25, "minimum timed wall time in seconds")
	traced := fs.Int("trace", 0, "0 reports end-to-end metrics; 1 runs the traced pass and reports per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the run report and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *traced)
		return 2
	}
	if *seconds < 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be >= 0, got %v\n", *seconds)
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	res, err := bench(params{w: w, sz: w.full, seed: *seed, seconds: *seconds, traced: *traced == 1, outDir: *out}, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type params struct {
	w       workload
	sz      size
	seed    uint64
	seconds float64
	traced  bool
	outDir  string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends with. Attempted counts operations
// (checkpoints and Replace calls); Failed counts those that returned an
// error or failed an output check.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the per-run file written under --out.
type report struct {
	Workload       string               `json:"workload"`
	Seed           uint64               `json:"seed"`
	Run            string               `json:"run"`
	Traced         bool                 `json:"traced"`
	Samples        int                  `json:"checkpoint_samples"`
	TailPercentile float64              `json:"tail_percentile"`
	SetupS         []float64            `json:"setup_s"`
	CheckpointS    []float64            `json:"checkpoint_s"`
	Layers         map[string]layerTime `json:"layers,omitempty"`
	Errors         []string             `json:"errors,omitempty"`
	Result         result               `json:"result"`
}

// bench runs one workload and returns its result. An error means the run
// could not be set up or its report not written; operations that fail
// once the timed loop has started are counted in the result instead.
func bench(p params, stdout io.Writer) (result, error) {
	runID := fmt.Sprintf("%s-seed%d-%d", p.w.name, p.seed, time.Now().UnixNano())
	rec := newRecorder(runID, p.traced)
	var t tally

	// Set-up: scenario.Generate, NewEngine (t = 0 placements and
	// measurement) and one untimed warm-up checkpoint, setupRuns times on
	// the same inputs. The last engine is kept.
	var r runner
	setupS := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		r = nil
		runtime.GC()
		start := time.Now()
		root := rec.begin(spanSetup)
		var err error
		r, err = p.w.build(p.seed, p.sz, rec)
		if err == nil {
			s := rec.begin(spanWarmup)
			err = r.checkpoint(1, rec, &t)
			rec.end(s)
		}
		rec.end(root)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}

	// Timed loop. A traced run records every other checkpoint.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var untraced, tracedS []float64
	t.timed = true
	loopStart := time.Now()
	for j := 0; j < windowCheckpoints || time.Since(loopStart).Seconds() < p.seconds; j++ {
		t.inWindow = j < windowCheckpoints
		rec.on = p.traced && j%2 == 0
		start := time.Now()
		root := rec.begin(spanCheckpoint)
		err := r.checkpoint(j+2, rec, &t)
		rec.end(root)
		d := time.Since(start).Seconds()
		if err != nil {
			t.errs = append(t.errs, err.Error())
			break
		}
		if rec.on {
			tracedS = append(tracedS, d)
		} else {
			untraced = append(untraced, d)
		}
	}
	loop := time.Since(loopStart).Seconds()
	runtime.ReadMemStats(&ms1)
	rec.on = false
	t.inWindow, t.timed = false, false

	r.finalCheck(&t)
	rss, err := peakRSS()
	if err != nil {
		return result{}, err
	}
	k, realizations := r.units()
	n := len(untraced) + len(tracedS)
	rep := report{
		Workload:    p.w.name,
		Seed:        p.seed,
		Run:         runID,
		Traced:      p.traced,
		Samples:     len(untraced),
		SetupS:      setupS,
		CheckpointS: untraced,
		Errors:      t.errs,
	}
	res := result{
		Correct:   t.failed == 0 && len(t.errs) == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   map[string]metric{},
	}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }

	p50 := median(untraced)
	tailS, tailPct, ok := tail(untraced)
	if !ok && !p.traced {
		return result{}, fmt.Errorf("%d timed checkpoints: the tail needs more than %d", len(untraced), tailSamples)
	}
	rep.TailPercentile = tailPct
	hitMean := 0.0
	if t.hitN > 0 {
		hitMean = t.hitSum / float64(t.hitN)
	}
	reqPerS, p99 := 0.0, 0.0
	if t.serve.Requests > 0 {
		reqPerS = float64(t.served) / loop
		p99 = t.p99Weighted / float64(t.serve.Requests)
	}

	fmt.Fprintf(stdout, "workload %s seed %d: %d timed checkpoints in %.2f s (%d in the deterministic window)\n",
		p.w.name, p.seed, n, loop, windowCheckpoints)
	if !p.traced {
		put("setup_s", median(setupS), "s")
		put("checkpoint_p50_s", p50, "s")
		put("checkpoint_tail_s", tailS, "s")
		put("user_checkpoints_per_s", float64(k)*float64(n)/loop, "1/s")
		put("peak_rss_bytes", float64(rss), "B")
		put("hit_ratio_mean", hitMean, "ratio")
		for _, name := range []string{"setup_s", "checkpoint_p50_s", "checkpoint_tail_s", "user_checkpoints_per_s", "peak_rss_bytes", "hit_ratio_mean"} {
			m := res.Metrics[name]
			fmt.Fprintf(stdout, "  %-24s %.6g %s\n", name, m.Value, m.Unit)
		}
		fmt.Fprintf(stdout, "  (checkpoint_p50_s over %d samples; checkpoint_tail_s is p%.1f with %d samples beyond it)\n",
			len(untraced), tailPct, tailSamples)
		if t.serve.Requests > 0 {
			fmt.Fprintf(stdout, "  %-24s %.6g 1/s\n", "requests_per_s", reqPerS)
			fmt.Fprintf(stdout, "  %-24s %.6g s\n", "sim_latency_p99_s", p99)
		} else {
			fmt.Fprintf(stdout, "  %-24s n/a (no trace-driven serving)\n", "requests_per_s")
			fmt.Fprintf(stdout, "  %-24s n/a (no trace-driven serving)\n", "sim_latency_p99_s")
		}
		fmt.Fprintf(stdout, "  %-24s %.6g ratio (%d of %d operations)\n", "failed_ratio",
			float64(t.failed)/float64(max(t.attempted, 1)), t.failed, t.attempted)
	} else {
		rep.Layers = layerMetrics(rec.spans, put, layerInputs{
			users: k, realizations: realizations, traced: tracedS, untraced: untraced,
		}, stdout)
		put("placement.placed_pairs", float64(t.placedPairs)/windowCheckpoints, "count")
		put("shard.handoffs_per_checkpoint", float64(t.handoffs)/windowCheckpoints, "count")
		put("shard.grows", float64(t.grows), "count")
		put("cachesim.requests", float64(t.serve.Requests), "count")
		put("cachesim.direct", float64(t.serve.Direct), "count")
		put("cachesim.relay", float64(t.serve.Relay), "count")
		put("cachesim.cloud", float64(t.serve.Cloud), "count")
		put("cachesim.failed", float64(t.serve.Failed), "count")
		put("cachesim.peak_concurrency", float64(t.serve.PeakConcurrency), "count")
		put("cachesim.requests_per_s", reqPerS, "1/s")
		if t.serve.Requests > 0 {
			fmt.Fprintf(stdout, "  sim_latency_p99_s %.6g s (request-weighted, deterministic window)\n", p99)
		}
		put("runtime.allocs_per_checkpoint", float64(ms1.Mallocs-ms0.Mallocs)/float64(max(n, 1)), "count")
		put("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC), "count")
		put("runtime.gc_pause_share", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e9/loop, "ratio")
		fp := r.footprint()
		put("memprof.reach_bytes", float64(fp.Reach), "B")
		put("memprof.rank_bytes", float64(fp.Rank), "B")
		put("memprof.rate_bytes", float64(fp.Rates), "B")
		put("memprof.workload_bytes", float64(fp.Workload), "B")
		put("memprof.evaluator_bytes", float64(fp.Evaluator), "B")
		put("memprof.measurement_bytes", float64(fp.Measurement), "B")
		put("memprof.coordinator_bytes", float64(fp.Coordinator), "B")
		put("memprof.total_bytes", float64(fp.Total()), "B")
	}
	rep.Result = res

	if err := os.MkdirAll(p.outDir, 0o755); err != nil {
		return result{}, fmt.Errorf("report directory: %w", err)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return result{}, fmt.Errorf("encode report: %w", err)
	}
	if err := os.WriteFile(filepath.Join(p.outDir, runID+".json"), data, 0o644); err != nil {
		return result{}, fmt.Errorf("write report: %w", err)
	}
	if p.traced {
		if err := writeSpans(filepath.Join(p.outDir, runID+".spans.json"), rec.spans); err != nil {
			return result{}, err
		}
	}
	return res, nil
}

// layerInputs carries what the per-layer metrics divide by.
type layerInputs struct {
	users, realizations int
	traced, untraced    []float64 // checkpoint wall times, seconds
}

// layerTime is one layer's self time over the traced checkpoints.
type layerTime struct {
	MedianS float64 `json:"median_s"`
	SumS    float64 `json:"sum_s"`
	Share   float64 `json:"share"`
}

// layers lists the checkpoint layers in report order: the span and the
// metric its share of the traced checkpoint is reported under. Absolute
// self times go to the printed table and the run report; as metrics they
// would read a constant 0 on every workload that bypasses the layer.
var layers = []struct{ span, share string }{
	{spanAdvance, "mobility.advance_share"},
	{spanRefresh, "refresh.share"},
	{spanMeasure, "sim.measure_share"},
	{spanReplaceGen, "placement.replace_gen_share"},
	{spanReplaceSpc, "placement.replace_spec_share"},
	{spanShard, "shard.checkpoint_share"},
}

// layerMetrics derives the per-layer metrics from the spans, prints the
// per-layer table, and returns each layer's self times.
func layerMetrics(spans []span, put func(string, float64, string), in layerInputs, stdout io.Writer) map[string]layerTime {
	setup := layerTotals(spans, spanSetup)
	put("scenario.generate_s", median(setup[spanGenerate]), "s")
	put("engine.new_s", median(setup[spanEngineNew]), "s")
	put("setup.warmup_s", median(setup[spanWarmup]), "s")

	self := layerSelf(spans, spanCheckpoint)
	ckpt := median(in.traced)
	base := median(in.untraced)
	out := map[string]layerTime{}
	var accounted float64
	fmt.Fprintf(stdout, "  %-24s %12s %12s %7s\n", "layer (self time)", "median s", "sum s", "share")
	row := func(name string, samples []float64) layerTime {
		lt := layerTime{MedianS: median(samples), SumS: sum(samples), Share: median(samples) / ckpt}
		out[name] = lt
		fmt.Fprintf(stdout, "  %-24s %12.6f %12.6f %6.1f%%\n", name, lt.MedianS, lt.SumS, 100*lt.Share)
		return lt
	}
	for _, l := range layers {
		if len(self[l.span]) == 0 {
			put(l.share, 0, "ratio")
			continue
		}
		lt := row(l.span, self[l.span])
		put(l.share, lt.Share, "ratio")
		accounted += lt.MedianS
	}
	put("bench.self_s", row("bench.self", self[spanCheckpoint]).MedianS, "s")

	// Layer throughputs: work units per second of the layer's median self
	// time (0 where the workload bypasses the layer).
	rate := func(span string, units int) float64 {
		if t := median(self[span]); t > 0 {
			return float64(units) / t
		}
		return 0
	}
	put("mobility.user_slots_per_s", rate(spanAdvance, in.users*slotsPerCkpt), "1/s")
	put("refresh.users_per_s", rate(spanRefresh, in.users), "1/s")
	put("sim.user_realizations_per_s", rate(spanMeasure, in.users*in.realizations), "1/s")

	overhead, covered := 0.0, 0.0
	if base > 0 {
		overhead = ckpt / base
		covered = accounted / base
	}
	put("trace.overhead_ratio", overhead, "ratio")
	put("trace.accounted_ratio", covered, "ratio")
	fmt.Fprintf(stdout, "  traced checkpoint p50 %.6f s over %d, untraced %.6f s over %d: overhead %.4f, layers account for %.4f of the untraced p50\n",
		ckpt, len(in.traced), base, len(in.untraced), overhead, covered)
	if len(self[spanShard]) > 0 {
		fmt.Fprintln(stdout, "  shard.checkpoint is not split (walk, membership plan, cells, aggregate): that needs a stats seam inside the engine (ROADMAP item 1)")
	}
	return out
}
