package main

import (
	"sort"

	"trimcaching/internal/cachesim"
)

// tally accumulates one run's operation counts and simulated outputs. The
// simulated outputs cover only the deterministic window (inWindow): a
// fixed number of checkpoints every run completes, so they are
// bit-identical across runs of one seed however long a run measures.
type tally struct {
	attempted, failed int
	errs              []string // the first few failures, for the report

	inWindow bool
	hitSum   float64
	hitN     int

	serve       cachesim.EventResult // request counts summed over checkpoints and tracks
	p99Weighted float64              // Σ p99 seconds × requests
	handoffs    int
	grows       int
	placedPairs int

	timed  bool
	served int // requests served over every timed checkpoint, all tracks
}

// check counts a failed output check against the current operation.
func (t *tally) check(err error) {
	if err != nil {
		t.fail(err)
	}
}

func (t *tally) fail(err error) {
	t.failed++
	if len(t.errs) < 8 {
		t.errs = append(t.errs, err.Error())
	}
}

func (t *tally) addHits(hits []float64) {
	if !t.inWindow {
		return
	}
	for _, h := range hits {
		t.hitSum += h
		t.hitN++
	}
}

func (t *tally) addServe(res cachesim.EventResult) {
	t.serve.Requests += res.Requests
	t.serve.Direct += res.Direct
	t.serve.Relay += res.Relay
	t.serve.Cloud += res.Cloud
	t.serve.Failed += res.Failed
	t.serve.QoSHits += res.QoSHits
	t.serve.PeakConcurrency = max(t.serve.PeakConcurrency, res.PeakConcurrency)
	t.p99Weighted += res.P99Latency.Seconds() * float64(res.Requests)
}

// median returns the middle of xs (the mean of the middle two for an even
// count), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailSamples is how many samples must lie beyond the reported tail.
const tailSamples = 10

// tail returns the highest percentile of xs with at least tailSamples
// samples beyond it: the (tailSamples+1)-th largest value, and its
// percentile rank. It reports ok = false with too few samples.
func tail(xs []float64) (value, percentile float64, ok bool) {
	n := len(xs)
	if n <= tailSamples {
		return 0, 0, false
	}
	s := sorted(xs)
	return s[n-tailSamples-1], 100 * float64(n-tailSamples) / float64(n), true
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
