package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Span names: one per public call the benchmark makes into a layer, plus
// the roots that group them. The benchmark records spans from outside the
// engines, so calls inside shard.Engine.Checkpoint (walk, membership plan,
// cells, aggregate) are not split.
const (
	spanSetup      = "setup"
	spanGenerate   = "scenario.generate"
	spanEngineNew  = "engine.new"
	spanWarmup     = "setup.warmup"
	spanCheckpoint = "checkpoint"
	spanAdvance    = "mobility.advance"
	spanRefresh    = "refresh"
	spanMeasure    = "sim.measure"
	spanReplaceGen = "placement.replace_gen"
	spanReplaceSpc = "placement.replace_spec"
	spanShard      = "shard.checkpoint"
)

// span is one timed call. Start and End are nanoseconds since the
// recorder's origin; Parent indexes the enclosing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
}

// recorder keeps spans in memory until the run ends. While on is false,
// begin and end cost a branch and record nothing.
type recorder struct {
	on     bool
	run    string
	origin time.Time
	spans  []span
	stack  []int
}

func newRecorder(run string, on bool) *recorder {
	r := &recorder{on: on, run: run, origin: time.Now()}
	if on {
		r.spans = make([]span, 0, 1<<14)
	}
	return r
}

// begin opens a span under the innermost open one and returns its index,
// or -1 when recording is off.
func (r *recorder) begin(name string) int {
	if !r.on {
		return -1
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.origin)), Parent: parent, Run: r.run})
	id := len(r.spans) - 1
	r.stack = append(r.stack, id)
	return id
}

// end closes span id; -1 (recording was off at begin) is a no-op.
func (r *recorder) end(id int) {
	if id < 0 {
		return
	}
	r.spans[id].End = int64(time.Since(r.origin))
	r.stack = r.stack[:len(r.stack)-1]
}

// selfTimes returns each span's duration minus the part its children
// cover. Children of one span never overlap: every call is made from the
// benchmark's single driving goroutine.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += time.Duration(s.End - s.Start)
		if s.Parent >= 0 {
			self[s.Parent] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

// rootOf returns, for each span, the index of its outermost ancestor.
// Parents precede their children, so one pass suffices.
func rootOf(spans []span) []int {
	roots := make([]int, len(spans))
	for i, s := range spans {
		roots[i] = i
		if s.Parent >= 0 {
			roots[i] = roots[s.Parent]
		}
	}
	return roots
}

// layerSelf collects, per span name, the self times in seconds of the
// spans nested under roots named root: one sample per root, summed when a
// name occurs more than once under it. The root's own self time is keyed
// by its name.
func layerSelf(spans []span, root string) map[string][]float64 {
	self := selfTimes(spans)
	roots := rootOf(spans)
	perRoot := map[int]map[string]float64{}
	var order []int
	for i, s := range spans {
		r := roots[i]
		if spans[r].Name != root {
			continue
		}
		if perRoot[r] == nil {
			perRoot[r] = map[string]float64{}
			order = append(order, r)
		}
		perRoot[r][s.Name] += self[i].Seconds()
	}
	out := map[string][]float64{}
	for _, r := range order {
		for name, v := range perRoot[r] {
			out[name] = append(out[name], v)
		}
	}
	return out
}

// layerTotals collects, per span name, the full durations in seconds of
// the spans nested under roots named root.
func layerTotals(spans []span, root string) map[string][]float64 {
	roots := rootOf(spans)
	out := map[string][]float64{}
	for i, s := range spans {
		if spans[roots[i]].Name == root {
			out[s.Name] = append(out[s.Name], time.Duration(s.End-s.Start).Seconds())
		}
	}
	return out
}

// writeSpans writes the recorded spans as one JSON document.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
