package scenario

import (
	"testing"

	"trimcaching/internal/rng"
)

// packedView is a raw ServerColumns implementation for kernel-level tests:
// the placement columns as a bare word slice.
type packedView struct{ cols []uint64 }

func (v packedView) PackedServerColumns() []uint64 { return v.cols }

// randomViews builds n random placement column sets for ins, with enough
// density that hits are not vacuous.
func randomViews(ins *Instance, n int, src *rng.Source) []ServerColumns {
	M, I, sw := ins.NumServers(), ins.NumModels(), ins.ServerMaskWords()
	views := make([]ServerColumns, n)
	for a := range views {
		cols := make([]uint64, I*sw)
		for i := 0; i < I; i++ {
			for m := 0; m < M; m++ {
				if src.Float64() < 0.3 {
					cols[i*sw+(m>>6)] |= 1 << uint(m&63)
				}
			}
		}
		views[a] = packedView{cols: cols}
	}
	return views
}

// TestFadedHitMassBlockMatchesPerRealization pins the kernel-level half of
// the realization-blocking contract: for any block partition of the
// realizations, FadedHitMassBlock must equal a per-realization loop of
// SampleGains + FadedHitMass exactly — same draws (realization r always
// consumes the full M×K gain matrix of its own source), same word ops,
// same float add order.
func TestFadedHitMassBlockMatchesPerRealization(t *testing.T) {
	for _, dims := range []struct{ m, k int }{{6, 15}, {70, 20}} {
		ins := buildInstance(t, dims.m, dims.k, 3, 40)
		views := randomViews(ins, 3, rng.New(41))
		P := len(views)
		const R = 7
		root := rng.New(42)

		// Reference: one realization at a time through the gains-based entry
		// point, each drawing its full gain matrix from its own source.
		gains := SampleGains(ins.NumServers(), ins.NumUsers(), rng.New(0))
		want := make([]float64, R*P)
		scratch := ins.MakeFadeScratch()
		for r := 0; r < R; r++ {
			SampleGainsInto(gains, root.SplitIndex("real", r))
			if err := ins.FadedHitMass(gains, views, want[r*P:(r+1)*P], scratch); err != nil {
				t.Fatal(err)
			}
		}

		for _, block := range []int{1, 2, 3, 7} {
			got := make([]float64, R*P)
			srcs := make([]*rng.Source, 0, block)
			for r0 := 0; r0 < R; r0 += block {
				n := block
				if r0+n > R {
					n = R - r0
				}
				srcs = srcs[:0]
				for j := 0; j < n; j++ {
					srcs = append(srcs, root.SplitIndex("real", r0+j))
				}
				if err := ins.FadedHitMassBlock(srcs, views, got[r0*P:(r0+n)*P], scratch); err != nil {
					t.Fatal(err)
				}
			}
			for x := range got {
				if got[x] != want[x] {
					t.Fatalf("M=%d block=%d: entry %d (r=%d view=%d): blocked %.17g != per-realization %.17g",
						dims.m, block, x, x/P, x%P, got[x], want[x])
				}
			}
		}
	}
}

// TestFadedHitMassBlockValidation covers the blocked entry point's error
// paths.
func TestFadedHitMassBlockValidation(t *testing.T) {
	ins := buildInstance(t, 4, 8, 2, 45)
	views := randomViews(ins, 2, rng.New(46))
	if err := ins.FadedHitMassBlock(nil, views, nil, nil); err == nil {
		t.Fatal("empty source list must error")
	}
	srcs := []*rng.Source{rng.New(47), rng.New(48)}
	if err := ins.FadedHitMassBlock(srcs, views, make([]float64, 3), nil); err == nil {
		t.Fatal("dst length mismatch must error")
	}
	if err := ins.FadedHitMassBlock(srcs, views, make([]float64, 2*len(views)), nil); err != nil {
		t.Fatalf("valid call failed: %v", err)
	}
}

// TestRankIndexBuiltAtConstruction pins the construction-time rank index:
// a fresh instance must expose sorted per-user rank rows before any
// in-place update has run: construction is the index's only builder.
func TestRankIndexBuiltAtConstruction(t *testing.T) {
	ins := buildInstance(t, 6, 12, 3, 50)
	I := ins.NumModels()
	for k := 0; k < ins.NumUsers(); k++ {
		do, dv, ro, rv := ins.UserRankRows(k)
		if len(do) != I || len(dv) != I || len(ro) != I || len(rv) != I {
			t.Fatalf("user %d: rank rows %d/%d/%d/%d, want %d", k, len(do), len(dv), len(ro), len(rv), I)
		}
		for j := 1; j < I; j++ {
			if dv[j] < dv[j-1] || rv[j] < rv[j-1] {
				t.Fatalf("user %d: rank values not ascending at %d", k, j)
			}
		}
	}
}
