package dynamics

import (
	"math"
	"testing"

	"trimcaching/internal/geom"
	"trimcaching/internal/rng"
	"trimcaching/internal/scenario"
)

// degradedConfig is testConfig with per-server capacity overrides applied
// both at the solver level (Capacities) and the instance level
// (SetServerCapacity) — the state a cold engine would be built over.
func degradedConfig(t *testing.T, ins *scenario.Instance, caps map[int]int64, mode Mode, workers int) Config {
	t.Helper()
	cfg := testConfig(ins, nil, mode, workers)
	cfg.Capacities = append([]int64(nil), cfg.Capacities...)
	for m, bytes := range caps {
		cfg.Capacities[m] = bytes
		if _, err := ins.SetServerCapacity(m, 8*bytes); err != nil {
			t.Fatal(err)
		}
	}
	return cfg
}

// TestDegradeRepairMatchesColdSolve is the partial-capacity counterpart of
// TestOutageRepairMatchesColdSolve, exercising both degradation regimes at
// once: server 0 shrinks below the large models (the instance blocks them
// outright) while server 2 shrinks to a budget every model fits alone (pure
// solver-level eviction pressure, reachability untouched). A warm Replace
// must reproduce an engine built cold at the reduced capacities, stay
// feasible under them, and a restore must reproduce the pristine solve.
func TestDegradeRepairMatchesColdSolve(t *testing.T) {
	shrunk := map[int]int64{0: 60 << 20, 2: 200 << 20}

	warm, err := NewEngine(testConfig(testInstance(t, 42), nil, Incremental, 1), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for m, bytes := range shrunk {
		if err := warm.SetServerCapacity(m, bytes); err != nil {
			t.Fatal(err)
		}
	}
	for a := range warm.cfg.Tracks {
		if _, err := warm.Replace(a, 1); err != nil {
			t.Fatal(err)
		}
	}

	cold, err := NewEngine(degradedConfig(t, testInstance(t, 42), shrunk, Incremental, 1), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	assertPlacementsEqual(t, "warm repair vs cold degraded solve", warm, cold)
	for a := range warm.cfg.Tracks {
		if err := warm.eval.CheckFeasible(warm.Placement(a), warm.caps); err != nil {
			t.Fatalf("track %d infeasible after degrade repair: %v", a, err)
		}
	}
	if got := warm.ServerCapacityBytes(0); got != 60<<20 {
		t.Fatalf("live capacity of server 0 is %d, want %d", got, 60<<20)
	}

	// Restore: capacities return to the configured values and the budget
	// state leaves the instance, so a forced replace matches a
	// never-degraded cold solve.
	for m := range shrunk {
		if err := warm.SetServerCapacity(m, -1); err != nil {
			t.Fatal(err)
		}
	}
	if got := warm.ServerCapacityBytes(0); got != 1<<30 {
		t.Fatalf("restored capacity of server 0 is %d, want %d", got, 1<<30)
	}
	for a := range warm.cfg.Tracks {
		if _, err := warm.Replace(a, 2); err != nil {
			t.Fatal(err)
		}
	}
	pristine, err := NewEngine(testConfig(testInstance(t, 42), nil, Incremental, 1), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	assertPlacementsEqual(t, "post-restore replace vs pristine solve", warm, pristine)
}

// TestRegionalFailureMatchesServerList pins the failure-domain selector and
// its correlated application: SetRegionDown must behave exactly like
// SetServersDown over the topology's ServersInRegion list, and
// DegradeRegion like the per-server SetServerCapacity sequence.
func TestRegionalFailureMatchesServerList(t *testing.T) {
	byRegion, err := NewEngine(testConfig(testInstance(t, 11), nil, Incremental, 1), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	topo := byRegion.Instance().Topology()
	// A disk around server 0 wide enough to catch at least one neighbour.
	c := topo.ServerPos(0)
	region := geom.DiskRegion(c.X, c.Y, 500)
	servers, err := topo.ServersInRegion(region)
	if err != nil {
		t.Fatal(err)
	}
	if len(servers) == 0 || len(servers) == topo.NumServers() {
		t.Fatalf("degenerate failure domain %v over %d servers", servers, topo.NumServers())
	}
	for m := 0; m < topo.NumServers(); m++ {
		inList := false
		for _, s := range servers {
			inList = inList || s == m
		}
		if want := region.Contains(topo.ServerPos(m)); inList != want {
			t.Fatalf("server %d: in region %v, in list %v", m, want, inList)
		}
	}

	byList, err := NewEngine(testConfig(testInstance(t, 11), nil, Incremental, 1), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := byRegion.SetRegionDown(region, true); err != nil {
		t.Fatal(err)
	}
	if err := byList.SetServersDown(servers, true); err != nil {
		t.Fatal(err)
	}
	if err := byRegion.DegradeRegion(region, 80<<20); err != nil {
		t.Fatal(err)
	}
	for _, m := range servers {
		if err := byList.SetServerCapacity(m, 80<<20); err != nil {
			t.Fatal(err)
		}
	}
	for a := range byRegion.cfg.Tracks {
		if _, err := byRegion.Replace(a, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := byList.Replace(a, 1); err != nil {
			t.Fatal(err)
		}
	}
	assertPlacementsEqual(t, "regional ops vs server-list ops", byRegion, byList)

	if err := byRegion.SetRegionDown(geom.RectRegion(-1, -1, -0.5, -0.5), true); err != nil {
		t.Fatal(err) // empty failure domain is a no-op, not an error
	}
	if err := byRegion.SetRegionDown(geom.Region{Kind: "hex"}, true); err == nil {
		t.Fatal("invalid region accepted")
	}
}

// runDegradeTimeline drives a six-checkpoint timeline with a regional
// degradation at checkpoint 2 and a restore at checkpoint 4, forcing a
// replace on both edges — the dynamics-level shape of the gallery's
// degrade scenario.
func runDegradeTimeline(t *testing.T, mode Mode, workers int) *Result {
	t.Helper()
	eng, err := NewEngine(testConfig(testInstance(t, 7), nil, mode, workers), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	region := geom.RectRegion(0, 0, 600, 1000)
	res := &Result{Replacements: make([]int, len(eng.cfg.Tracks))}
	for cp := 1; cp <= eng.Checkpoints(); cp++ {
		if cp == 2 || cp == 4 {
			bytes := int64(70 << 20)
			if cp == 4 {
				bytes = -1
			}
			if err := eng.DegradeRegion(region, bytes); err != nil {
				t.Fatal(err)
			}
			for a := range eng.cfg.Tracks {
				if _, err := eng.Replace(a, cp); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := eng.Advance(); err != nil {
			t.Fatal(err)
		}
		if err := eng.Refresh(); err != nil {
			t.Fatal(err)
		}
		st, err := eng.Step(cp)
		if err != nil {
			t.Fatal(err)
		}
		res.Steps = append(res.Steps, Step{
			TimeMin:  st.TimeMin,
			HitRatio: append([]float64(nil), st.HitRatio...),
			Replaced: append([]bool(nil), st.Replaced...),
		})
	}
	for a := range res.Replacements {
		res.Replacements[a] = eng.Replacements(a)
	}
	return res
}

// TestDegradeTimelineModeAndWorkerAgnostic pins the degradation timeline
// bit-identical between Incremental and Rebuild refreshes (Rebuild replays
// the reduced budgets through Instance.Rebuild) and across worker counts.
func TestDegradeTimelineModeAndWorkerAgnostic(t *testing.T) {
	want := runDegradeTimeline(t, Incremental, 1)
	assertResultsEqual(t, runDegradeTimeline(t, Incremental, 4), want, "workers 4 vs 1")
	assertResultsEqual(t, runDegradeTimeline(t, Rebuild, 1), want, "rebuild vs incremental")
	if want.Replacements[0] < 2 {
		t.Fatalf("forced replaces not counted: %v", want.Replacements)
	}
}

// TestCapacityOverflowRejected feeds a budget whose bit count overflows
// int64 (8·2^61 wraps to 0 bits, which would block every model while the
// engine reported ~2.3 EB) through both capacity ops. Each must fail and
// leave the live capacities, the placements after a forced replace, and
// the next checkpoint's hit ratios bit-identical to an engine that never
// saw the calls.
func TestCapacityOverflowRejected(t *testing.T) {
	const huge = int64(1) << 61
	got, err := NewEngine(testConfig(testInstance(t, 11), nil, Incremental, 1), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewEngine(testConfig(testInstance(t, 11), nil, Incremental, 1), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	region := geom.RectRegion(0, 0, 600, 1000)
	if servers, err := got.Instance().Topology().ServersInRegion(region); err != nil || len(servers) == 0 {
		t.Fatalf("region holds servers %v (%v); the test needs at least one", servers, err)
	}
	if err := got.SetServerCapacity(0, huge); err == nil {
		t.Fatal("SetServerCapacity accepted an overflowing budget")
	}
	if err := got.DegradeRegion(region, huge); err == nil {
		t.Fatal("DegradeRegion accepted an overflowing budget")
	}
	for m := range want.caps {
		if g, w := got.ServerCapacityBytes(m), want.ServerCapacityBytes(m); g != w {
			t.Fatalf("server %d: live capacity %d after rejected calls, want %d", m, g, w)
		}
	}
	steps := make([][]float64, 2)
	for k, eng := range []*Engine{got, want} {
		for a := range eng.cfg.Tracks {
			if _, err := eng.Replace(a, 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Advance(); err != nil {
			t.Fatal(err)
		}
		if err := eng.Refresh(); err != nil {
			t.Fatal(err)
		}
		st, err := eng.Step(1)
		if err != nil {
			t.Fatal(err)
		}
		steps[k] = append([]float64(nil), st.HitRatio...)
	}
	assertPlacementsEqual(t, "after rejected capacity ops", got, want)
	for a := range steps[1] {
		if math.Float64bits(steps[0][a]) != math.Float64bits(steps[1][a]) {
			t.Fatalf("track %d: next checkpoint hit ratio %v, want %v", a, steps[0][a], steps[1][a])
		}
	}
}
