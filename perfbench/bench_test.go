package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
)

// contract is the part of BENCHMARK.json the program must agree with.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// checkSchema fails unless res reports exactly the metrics named in want,
// each with its declared unit.
func checkSchema(t *testing.T, res result, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		got := make([]string, 0, len(res.Metrics))
		for name := range res.Metrics {
			got = append(got, name)
		}
		sort.Strings(got)
		t.Errorf("%d metrics %v, BENCHMARK.json declares %d", len(got), got, len(want))
	}
	for _, m := range want {
		v, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
			continue
		}
		if v.Unit != m.Unit {
			t.Errorf("metric %s: unit %q, BENCHMARK.json declares %q", m.Name, v.Unit, m.Unit)
		}
	}
}

// TestWorkloadsSmoke runs every workload at its smoke size, untraced twice
// and traced once, and checks the outputs, the metric schema against
// BENCHMARK.json, and that the simulated outputs repeat bit for bit.
func TestWorkloadsSmoke(t *testing.T) {
	c := loadContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(c.Workloads), len(workloads))
	}
	for _, cw := range c.Workloads {
		w, err := findWorkload(cw.Name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(w.name, func(t *testing.T) {
			p := params{w: w, sz: w.smoke, seed: 1, outDir: t.TempDir()}
			var runs [2]result
			for i := range runs {
				res, err := bench(p, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < windowCheckpoints {
					t.Fatalf("run %d: correct=%v attempted=%d failed=%d", i, res.Correct, res.Attempted, res.Failed)
				}
				checkSchema(t, res, c.EndToEnd)
				for name, m := range res.Metrics {
					if !(m.Value > 0) {
						t.Errorf("run %d: end-to-end metric %s = %v, want > 0", i, name, m.Value)
					}
				}
				runs[i] = res
			}
			if a, b := runs[0].Metrics["hit_ratio_mean"].Value, runs[1].Metrics["hit_ratio_mean"].Value; a != b {
				t.Errorf("hit_ratio_mean differs across runs of one seed: %v vs %v", a, b)
			}

			p.traced = true
			traced, err := bench(p, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !traced.Correct || traced.Failed != 0 {
				t.Fatalf("traced: correct=%v failed=%d", traced.Correct, traced.Failed)
			}
			checkSchema(t, traced, c.PerLayer)
			// A time that reads 0 would read 0 on every run: every per-layer
			// time must be measured on every workload.
			for _, m := range c.PerLayer {
				if m.Unit == "s" && !(traced.Metrics[m.Name].Value > 0) {
					t.Errorf("per-layer time %s = %v, want > 0", m.Name, traced.Metrics[m.Name].Value)
				}
			}
			again, err := bench(p, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"cachesim.requests", "cachesim.direct", "cachesim.relay", "shard.handoffs_per_checkpoint", "placement.placed_pairs"} {
				if a, b := traced.Metrics[name].Value, again.Metrics[name].Value; a != b {
					t.Errorf("%s differs across runs of one seed: %v vs %v", name, a, b)
				}
			}
			if w.name == "trace-cells" && traced.Metrics["cachesim.requests"].Value == 0 {
				t.Error("trace-cells served no requests")
			}
		})
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i)
	}
	v, pct, ok := tail(xs)
	if !ok || v != 29 || pct != 75 {
		t.Fatalf("tail = %v, p%v, %v; want 29, p75, true", v, pct, ok)
	}
	if _, _, ok := tail(xs[:tailSamples]); ok {
		t.Fatal("tail with only tailSamples samples must not be defined")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: spanCheckpoint, Start: 0, End: 100, Parent: -1},
		{Name: spanAdvance, Start: 10, End: 40, Parent: 0},
		{Name: spanRefresh, Start: 40, End: 90, Parent: 0},
		{Name: spanCheckpoint, Start: 200, End: 260, Parent: -1},
		{Name: spanAdvance, Start: 200, End: 250, Parent: 3},
	}
	got := layerSelf(spans, spanCheckpoint)
	want := map[string][]float64{
		spanCheckpoint: {20e-9, 10e-9},
		spanAdvance:    {30e-9, 50e-9},
		spanRefresh:    {50e-9},
	}
	for name, w := range want {
		g := got[name]
		if len(g) != len(w) {
			t.Fatalf("%s: %v, want %v", name, g, w)
		}
		for i := range w {
			if diff := g[i] - w[i]; diff > 1e-15 || diff < -1e-15 {
				t.Fatalf("%s: %v, want %v", name, g, w)
			}
		}
	}
}
