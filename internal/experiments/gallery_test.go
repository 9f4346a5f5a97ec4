package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"trimcaching/internal/dynamics"
	"trimcaching/internal/geom"
)

// galleryGolden is the checked-in artifact for one scenario: the full
// timeline through both engines. Byte-compared against testdata; refresh
// with UPDATE_GOLDENS=1 go test ./internal/experiments -run TestGalleryGoldens.
type galleryGolden struct {
	Config    GalleryConfig  `json:"config"`
	Unsharded *GalleryResult `json:"unsharded"`
	Sharded   *GalleryResult `json:"sharded"`
}

func runGalleryPair(t *testing.T, cfg GalleryConfig) (*GalleryResult, *GalleryResult) {
	t.Helper()
	un, err := RunGallery(cfg)
	if err != nil {
		t.Fatalf("%s unsharded: %v", cfg.Name, err)
	}
	sh, err := RunGallerySharded(cfg)
	if err != nil {
		t.Fatalf("%s sharded: %v", cfg.Name, err)
	}
	return un, sh
}

// TestGalleryGoldens runs every built-in scenario through both engines at
// the reduced scale and pins the complete timelines — hit ratios to the
// last bit, event placement, replacement counts, recovery latency —
// against the checked-in goldens.
func TestGalleryGoldens(t *testing.T) {
	for _, name := range GalleryNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg, err := GalleryScenario(name, DefaultGalleryConfig())
			if err != nil {
				t.Fatal(err)
			}
			un, sh := runGalleryPair(t, cfg)
			assertGalleryShape(t, cfg, un)
			assertGalleryShape(t, cfg, sh)

			got, err := json.MarshalIndent(galleryGolden{Config: cfg, Unsharded: un, Sharded: sh}, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", name+".golden.json")
			if os.Getenv("UPDATE_GOLDENS") != "" {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("updated %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (regenerate with UPDATE_GOLDENS=1): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("golden drift in %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
		})
	}
}

// assertGalleryShape checks the scenario-specific invariants that make a
// timeline a proof, beyond byte equality with the golden.
func assertGalleryShape(t *testing.T, cfg GalleryConfig, res *GalleryResult) {
	t.Helper()
	leg := "unsharded"
	if res.Sharded {
		leg = "sharded"
	}
	checkpoints := cfg.DurationMin / cfg.CheckpointMin
	if len(res.Steps) != checkpoints+1 {
		t.Fatalf("%s: %d steps, want %d", leg, len(res.Steps), checkpoints+1)
	}
	for i, st := range res.Steps {
		if st.HitRatio <= 0 || st.HitRatio > 1 {
			t.Fatalf("%s: step %d hit ratio %v outside (0, 1]", leg, i, st.HitRatio)
		}
	}
	switch cfg.Name {
	case "outage", "degrade", "regional":
		if res.PreOutageHit <= 0 {
			t.Errorf("%s: no pre-fault hit recorded", leg)
		}
		third := (checkpoints + 2) / 3
		if dip := res.Steps[third].HitRatio; dip >= res.PreOutageHit {
			t.Errorf("%s: %s did not dent the hit ratio: %v -> %v", leg, cfg.Name, res.PreOutageHit, dip)
		}
		if res.RecoveryCheckpoints < 0 {
			t.Errorf("%s: timeline never recovered to %v of %v", leg, cfg.RecoveryFrac, res.PreOutageHit)
		}
	case "churn":
		if res.FinalModels != cfg.Models+cfg.ReserveModels {
			t.Errorf("%s: final library %d models, want %d", leg, res.FinalModels, cfg.Models+cfg.ReserveModels)
		}
	default:
		if res.FinalModels != cfg.Models {
			t.Errorf("%s: final library %d models, want %d", leg, res.FinalModels, cfg.Models)
		}
	}
}

// TestGalleryDeterminism pins every scenario timeline bit-identical across
// worker counts and across Incremental vs Rebuild refreshes, through both
// engines, on a shortened clock.
func TestGalleryDeterminism(t *testing.T) {
	for _, name := range GalleryNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			base := DefaultGalleryConfig()
			base.DurationMin = 60
			cfg, err := GalleryScenario(name, base)
			if err != nil {
				t.Fatal(err)
			}
			wantUn, wantSh := runGalleryPair(t, cfg)

			workers := cfg
			workers.Workers = 3
			gotUn, gotSh := runGalleryPair(t, workers)
			assertGalleryEqual(t, "workers 3 vs default unsharded", gotUn, wantUn)
			assertGalleryEqual(t, "workers 3 vs default sharded", gotSh, wantSh)

			rebuild := cfg
			rebuild.Mode = dynamics.Rebuild
			gotUn, gotSh = runGalleryPair(t, rebuild)
			assertGalleryEqual(t, "rebuild vs incremental unsharded", gotUn, wantUn)
			assertGalleryEqual(t, "rebuild vs incremental sharded", gotSh, wantSh)
		})
	}
}

func assertGalleryEqual(t *testing.T, label string, got, want any) {
	t.Helper()
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Fatalf("%s diverged\n--- got ---\n%s\n--- want ---\n%s", label, g, w)
	}
}

// TestGalleryShardsOneMatchesUnsharded pins the two gallery legs to each
// other: with one cell the sharded engine runs the unsharded engine's
// walk, measurement streams and event ops, so every scenario's steps,
// replacement count and recovery latency must match bit for bit.
func TestGalleryShardsOneMatchesUnsharded(t *testing.T) {
	for _, name := range GalleryNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			base := DefaultGalleryConfig()
			base.Shards = 1
			cfg, err := GalleryScenario(name, base)
			if err != nil {
				t.Fatal(err)
			}
			un, sh := runGalleryPair(t, cfg)
			assertLegsMatch(t, un, sh)
		})
	}
}

// assertLegsMatch requires a one-cell sharded run to reproduce the
// unsharded run's steps, replacement count and recovery.
func assertLegsMatch(t *testing.T, un, sh *GalleryResult) {
	t.Helper()
	assertGalleryEqual(t, "shards=1 steps vs unsharded", sh.Steps, un.Steps)
	if sh.Replacements != un.Replacements || sh.PreOutageHit != un.PreOutageHit || sh.RecoveryCheckpoints != un.RecoveryCheckpoints {
		t.Fatalf("shards=1 made %d replacements, recovery (pre %v, %d checkpoints); unsharded %d, (pre %v, %d checkpoints)",
			sh.Replacements, sh.PreOutageHit, sh.RecoveryCheckpoints, un.Replacements, un.PreOutageHit, un.RecoveryCheckpoints)
	}
}

// fuzzGalleryConfig is the tiny deployment FuzzGalleryTimeline runs: four
// servers with room for the foundation and three adapters each, four
// checkpoints, one cell on the sharded leg.
func fuzzGalleryConfig() GalleryConfig {
	cfg := DefaultGalleryConfig()
	cfg.Name = "fuzz"
	cfg.Servers, cfg.Users, cfg.Models, cfg.ReserveModels = 4, 40, 10, 4
	cfg.CapacityBytes = 2_030_000_000
	cfg.DurationMin = 40
	cfg.Realizations = 2
	cfg.Shards = 1
	return cfg
}

// fuzzBudgets are the storage budgets a fuzzed degrade or regional event
// picks from: restore, blackout (regional only; a degrade rejects it),
// brownouts around the 2 GB foundation, and one past the byte limit.
var fuzzBudgets = []int64{-1, 0, 1_990_000_000, 2_000_000_000, galleryDegradeBytes, 2_060_000_000, 1 << 62}

// decodeTimeline reads up to six events from data, four bytes each:
// checkpoint, kind, and two parameter bytes.
func decodeTimeline(data []byte, cfg GalleryConfig) Timeline {
	kinds := []EventKind{EventOutage, EventRecovery, EventDemand, EventGrow, EventDegrade, EventRegional}
	checkpoints := cfg.DurationMin / cfg.CheckpointMin
	side := gallerySideM(cfg.Servers)
	var tl Timeline
	for i := 0; i+4 <= len(data) && len(tl.Events) < 6; i += 4 {
		b := data[i : i+4]
		ev := Event{Checkpoint: 1 + int(b[0])%checkpoints, Kind: kinds[int(b[1])%len(kinds)]}
		switch ev.Kind {
		case EventOutage, EventRecovery, EventDegrade:
			for m := 0; m < cfg.Servers; m++ {
				if b[2]&(1<<m) != 0 {
					ev.Servers = append(ev.Servers, m)
				}
			}
			ev.CapacityBytes = fuzzBudgets[int(b[3])%len(fuzzBudgets)]
		case EventDemand:
			ev.HotModel = int(b[2])%(cfg.Models+1) - 1
			ev.Weight = float64(b[3]%11) / 10
			ev.MassScale = float64(b[3]/11%4) / 2
		case EventGrow:
			ev.Models = 1 + int(b[2])%3
		case EventRegional:
			x, y := float64(b[2]&3)*side/3, float64(b[2]>>2&3)*side/3
			r := geom.DiskRegion(x, y, float64(1+b[2]>>4&3)*side/4)
			if b[2]&0x40 != 0 {
				r = geom.RectRegion(x/2, y/2, x/2+side/2, y/2+side/2)
			}
			ev.Region = &r
			ev.CapacityBytes = fuzzBudgets[int(b[3])%len(fuzzBudgets)]
		}
		tl.Events = append(tl.Events, ev)
	}
	return tl
}

// rootCause returns the innermost error of a wrap chain.
func rootCause(err error) error {
	for {
		inner := errors.Unwrap(err)
		if inner == nil {
			return err
		}
		err = inner
	}
}

// FuzzGalleryTimeline drives random short timelines through both gallery
// legs — the unsharded engine and the sharded engine at one cell — and
// requires identical steps, replacements, and recovery, or the same error
// at the same checkpoint.
func FuzzGalleryTimeline(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := fuzzGalleryConfig()
		cfg.Timeline = decodeTimeline(data, cfg)
		if cfg.Validate() != nil {
			return
		}
		un, unErr := RunGallery(cfg)
		sh, shErr := RunGallerySharded(cfg)
		if unErr != nil || shErr != nil {
			if unErr == nil || shErr == nil {
				t.Fatalf("only one leg failed: unsharded %v, sharded %v", unErr, shErr)
			}
			steps := func(r *GalleryResult) int {
				if r == nil {
					return -1
				}
				return len(r.Steps)
			}
			if steps(un) != steps(sh) || rootCause(unErr).Error() != rootCause(shErr).Error() {
				t.Fatalf("legs failed differently: unsharded after %d steps (%v), sharded after %d steps (%v)",
					steps(un), unErr, steps(sh), shErr)
			}
			return
		}
		assertLegsMatch(t, un, sh)
	})
}
