package placement

import (
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"testing"

	"trimcaching/internal/bitset"
	"trimcaching/internal/rng"
)

// bruteForceKnapsack enumerates all subsets (n <= 20).
func bruteForceKnapsack(items []knapsackItem, capacity int64) float64 {
	best := 0.0
	n := len(items)
	for mask := 0; mask < 1<<n; mask++ {
		var w int64
		var v float64
		for idx := 0; idx < n; idx++ {
			if mask&(1<<idx) != 0 {
				w += items[idx].weight
				v += items[idx].value
			}
		}
		if w <= capacity && v > best {
			best = v
		}
	}
	return best
}

func randomItems(src *rng.Source, n int) []knapsackItem {
	items := make([]knapsackItem, n)
	for i := range items {
		items[i] = knapsackItem{
			id:     i,
			value:  src.Uniform(0.01, 1),
			weight: int64(src.IntRange(1, 100)),
		}
	}
	return items
}

func TestBranchAndBoundExact(t *testing.T) {
	src := rng.New(1)
	for trial := 0; trial < 50; trial++ {
		n := src.IntRange(1, 12)
		items := randomItems(src, n)
		capacity := int64(src.IntRange(10, 400))
		chosen, got := solveKnapsack(items, capacity, 0, nil)
		want := bruteForceKnapsack(items, capacity)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: BB %v, brute force %v", trial, got, want)
		}
		verifySelection(t, items, chosen, capacity, got)
	}
}

func TestRoundingDPGuarantee(t *testing.T) {
	// Algorithm 2 must return at least (1-ε) of the optimum (Prop. 4).
	src := rng.New(2)
	for _, eps := range []float64{0.05, 0.1, 0.3, 1.0} {
		for trial := 0; trial < 30; trial++ {
			n := src.IntRange(1, 12)
			items := randomItems(src, n)
			capacity := int64(src.IntRange(10, 400))
			chosen, got := solveKnapsack(items, capacity, eps, &dpScratch{})
			want := bruteForceKnapsack(items, capacity)
			if got < (1-eps)*want-1e-9 {
				t.Fatalf("eps=%v trial %d: DP %v < (1-eps)*opt %v", eps, trial, got, (1-eps)*want)
			}
			if got > want+1e-9 {
				t.Fatalf("eps=%v trial %d: DP %v exceeds optimum %v", eps, trial, got, want)
			}
			verifySelection(t, items, chosen, capacity, got)
		}
	}
}

// verifySelection checks the returned ids are consistent with the reported
// value and respect the capacity.
func verifySelection(t *testing.T, items []knapsackItem, chosen []int, capacity int64, value float64) {
	t.Helper()
	byID := map[int]knapsackItem{}
	for _, it := range items {
		byID[it.id] = it
	}
	var w int64
	var v float64
	seen := map[int]bool{}
	for _, id := range chosen {
		if seen[id] {
			t.Fatalf("duplicate id %d in selection", id)
		}
		seen[id] = true
		it, ok := byID[id]
		if !ok {
			t.Fatalf("unknown id %d in selection", id)
		}
		// Compare before adding so a huge weight cannot wrap the sum
		// back under capacity.
		if it.weight > capacity-w {
			t.Fatalf("selection weight exceeds capacity %d at id %d", capacity, id)
		}
		w += it.weight
		v += it.value
	}
	if math.Abs(v-value) > 1e-9 {
		t.Fatalf("selection value %v != reported %v", v, value)
	}
}

func TestKnapsackDegenerate(t *testing.T) {
	if chosen, v := solveKnapsack(nil, 100, 0.1, nil); v != 0 || len(chosen) != 0 {
		t.Fatal("empty items")
	}
	items := []knapsackItem{{id: 0, value: 1, weight: 200}}
	if chosen, v := solveKnapsack(items, 100, 0.1, nil); v != 0 || len(chosen) != 0 {
		t.Fatal("oversized item must be dropped")
	}
	// Zero/negative value items never selected.
	items = []knapsackItem{{id: 0, value: 0, weight: 1}, {id: 1, value: -2, weight: 1}}
	if chosen, v := solveKnapsack(items, 100, 0, nil); v != 0 || len(chosen) != 0 {
		t.Fatal("valueless items must be dropped")
	}
}

func TestKnapsackAllFitShortcut(t *testing.T) {
	items := []knapsackItem{
		{id: 3, value: 0.5, weight: 10},
		{id: 1, value: 0.2, weight: 20},
	}
	chosen, v := solveKnapsack(items, 100, 0.1, nil)
	if math.Abs(v-0.7) > 1e-12 || len(chosen) != 2 {
		t.Fatalf("all-fit: %v %v", chosen, v)
	}
}

func TestKnapsackZeroCapacity(t *testing.T) {
	items := randomItems(rng.New(3), 5)
	for _, eps := range []float64{0, 0.1} {
		if chosen, v := solveKnapsack(items, 0, eps, nil); v != 0 || len(chosen) != 0 {
			t.Fatalf("eps=%v: zero capacity selected %v", eps, chosen)
		}
	}
}

func TestFractionalBoundIsUpperBound(t *testing.T) {
	src := rng.New(4)
	for trial := 0; trial < 40; trial++ {
		n := src.IntRange(1, 12)
		items := randomItems(src, n)
		capacity := int64(src.IntRange(10, 400))
		ub := fractionalBound(items, capacity)
		opt := bruteForceKnapsack(items, capacity)
		if ub < opt-1e-9 {
			t.Fatalf("trial %d: fractional bound %v below optimum %v", trial, ub, opt)
		}
	}
	if fractionalBound(randomItems(src, 3), 0) != 0 {
		t.Fatal("zero capacity bound must be 0")
	}
}

func TestRoundingDPWidthCap(t *testing.T) {
	// An adversarial value spread (huge max/min ratio) must not blow up
	// memory: the scale coarsens to maxDPWidth and still returns a valid,
	// near-optimal solution.
	items := []knapsackItem{
		{id: 0, value: 1e-9, weight: 5},
		{id: 1, value: 1.0, weight: 60},
		{id: 2, value: 0.9, weight: 50},
	}
	chosen, v := solveKnapsack(items, 100, 0.1, &dpScratch{})
	verifySelection(t, items, chosen, 100, v)
	if v < 0.9 {
		t.Fatalf("width-capped DP value %v too low", v)
	}
}

// TestKnapsackOverflow feeds weights and capacities near the int64 limit:
// the all-fit shortcut's weight sum, the DP's sentinel capacity+1 and its
// candidate sums T[w-q]+weight must not wrap into a feasible-looking
// over-capacity set.
func TestKnapsackOverflow(t *testing.T) {
	const half = math.MaxInt64 / 2
	cases := []struct {
		name     string
		items    []knapsackItem
		capacity int64
		want     []int
	}{
		{
			name: "capacity MaxInt64",
			items: []knapsackItem{
				{id: 0, value: 0.5, weight: math.MaxInt64 - 10},
				{id: 1, value: 0.4, weight: half},
				{id: 2, value: 0.3, weight: half},
				{id: 3, value: 0.2, weight: 1},
			},
			capacity: math.MaxInt64,
			want:     []int{1, 2, 3},
		},
		{
			name: "two weights near MaxInt64/2",
			items: []knapsackItem{
				{id: 0, value: 1, weight: half + 5},
				{id: 1, value: 0.9, weight: half + 7},
			},
			capacity: half + 100,
			want:     []int{0},
		},
	}
	for _, tc := range cases {
		for _, eps := range []float64{0, 0.1, 1} {
			chosen, v := solveKnapsack(tc.items, tc.capacity, eps, nil)
			verifySelection(t, tc.items, chosen, tc.capacity, v)
			if !slices.Equal(chosen, tc.want) {
				t.Errorf("%s eps=%v: solveKnapsack chose %v, want %v", tc.name, eps, chosen, tc.want)
			}
			if eps == 0 {
				continue
			}
			// The DP alone, past the all-fit shortcut.
			chosen, v = roundingDP(tc.items, tc.capacity, eps, &dpScratch{})
			verifySelection(t, tc.items, chosen, tc.capacity, v)
			if !slices.Equal(chosen, tc.want) {
				t.Errorf("%s eps=%v: roundingDP chose %v, want %v", tc.name, eps, chosen, tc.want)
			}
		}
	}
}

// roundingDPReference is the plain rounding DP that roundingDP must match
// bit for bit: every cell holds its exact minimum weight (or inf when the
// value is unreachable) and every item sweeps up to the cumulative
// quantized value. It allocates its own buffers and trusts weight sums not
// to wrap, so it is an oracle for inputs below MaxInt64/2 only.
func roundingDPReference(items []knapsackItem, capacity int64, epsilon float64) ([]int, float64) {
	uMin := math.Inf(1)
	var uSum float64
	for _, it := range items {
		if it.value < uMin {
			uMin = it.value
		}
		uSum += it.value
	}
	scale := epsilon * uMin
	if uSum/scale > float64(maxDPWidth) {
		scale = uSum / float64(maxDPWidth)
	}

	quant := make([]int, len(items))
	width := 0
	for idx, it := range items {
		quant[idx] = int(it.value / scale)
		width += quant[idx]
	}
	if width == 0 {
		return nil, 0
	}

	const inf = math.MaxInt64
	// T[w] = smallest total weight achieving quantized value exactly w
	// (eq. 15 initialization, eq. 16 transition). take[idx*(width+1)+w]
	// records whether T gained value w by taking item idx; with the
	// descending-w in-place update, T[w-q] reads the previous item row, so
	// the flags reconstruct an optimal set exactly.
	T := make([]int64, width+1)
	take := make(bitset.Set, bitset.Words(len(items)*(width+1)))
	T[0] = 0
	for w := 1; w <= width; w++ {
		T[w] = inf
	}
	reach := 0 // highest value index reachable so far
	for idx, it := range items {
		q := quant[idx]
		if q == 0 {
			continue
		}
		hi := reach + q
		if hi > width {
			hi = width
		}
		for w := hi; w >= q; w-- {
			if T[w-q] == inf {
				continue
			}
			if cand := T[w-q] + it.weight; cand < T[w] {
				T[w] = cand
				take.Set(idx*(width+1) + w)
			}
		}
		reach = hi
	}

	// eq. (17): the largest quantized value whose weight fits.
	best := -1
	for w := width; w >= 0; w-- {
		if T[w] <= capacity {
			best = w
			break
		}
	}
	if best <= 0 {
		return nil, 0
	}
	// Recover the chosen set; report its true (unquantized) value, eq. (20).
	var ids []int
	var trueValue float64
	w := best
	for idx := len(items) - 1; idx >= 0 && w > 0; idx-- {
		if take.Has(idx*(width+1) + w) {
			ids = append(ids, items[idx].id)
			trueValue += items[idx].value
			w -= quant[idx]
		}
	}
	sort.Ints(ids)
	return ids, trueValue
}

// diffInstance draws one rounding-DP instance. Values are positive, as
// solveKnapsack's filter leaves them; the shapes mix zero weights, tied
// values, capacities from 0 to Σw, and value spreads wide enough to hit
// maxDPWidth.
func diffInstance(src *rng.Source) (items []knapsackItem, capacity int64, eps float64) {
	eps = []float64{0.01, 0.1, 0.5, 1}[src.Intn(4)]
	shape := src.Intn(16)
	n := src.IntRange(1, 16)
	if shape == 0 {
		n = src.IntRange(2, 6) // width-capped instances are the expensive ones
	}
	items = make([]knapsackItem, n)
	var sum int64
	for i := range items {
		it := knapsackItem{id: 3 * i, value: src.Uniform(0.01, 1), weight: int64(src.IntRange(1, 1000))}
		switch shape {
		case 0:
			if i == 0 {
				it.value = 1e-7 // ε·u_min far below the other values
			}
		case 1:
			it.value = []float64{0.25, 0.5, 0.75}[src.Intn(3)]
		case 2:
			if src.Intn(3) == 0 {
				it.weight = 0
			}
		}
		items[i] = it
		sum += it.weight
	}
	capacity = int64(src.IntRange(0, int(sum)))
	return items, capacity, eps
}

// TestRoundingDPMatchesReference pins the capacity-bounded DP to the plain
// one: identical chosen ids and bit-equal values on random instances.
func TestRoundingDPMatchesReference(t *testing.T) {
	src := rng.New(12)
	scratch := &dpScratch{}
	capped := 0
	for trial := 0; trial < 3000; trial++ {
		items, capacity, eps := diffInstance(src)
		if roundingDPWidth(items, eps) == maxDPWidth {
			capped++
		}
		checkRoundingDP(t, items, capacity, eps, scratch)
	}
	if capped == 0 {
		t.Fatal("no instance reached maxDPWidth")
	}
}

// roundingDPWidth recomputes roundingDP's quantized value width (up to
// float rounding of the coarsened scale).
func roundingDPWidth(items []knapsackItem, eps float64) int {
	uMin, uSum := math.Inf(1), 0.0
	for _, it := range items {
		uMin = math.Min(uMin, it.value)
		uSum += it.value
	}
	scale := eps * uMin
	if uSum/scale > float64(maxDPWidth) {
		return maxDPWidth
	}
	width := 0
	for _, it := range items {
		width += int(it.value / scale)
	}
	return width
}

// checkRoundingDP fails unless roundingDP and roundingDPReference agree
// bit for bit and the selection is feasible.
func checkRoundingDP(t *testing.T, items []knapsackItem, capacity int64, eps float64, scratch *dpScratch) {
	t.Helper()
	got, gotV := roundingDP(items, capacity, eps, scratch)
	want, wantV := roundingDPReference(items, capacity, eps)
	if !slices.Equal(got, want) || math.Float64bits(gotV) != math.Float64bits(wantV) {
		t.Fatalf("eps=%v capacity=%d items=%v: got %v (%v), reference %v (%v)",
			eps, capacity, items, got, gotV, want, wantV)
	}
	verifySelection(t, items, got, capacity, gotV)
}

// FuzzRoundingDP compares roundingDP with roundingDPReference on decoded
// instances. Each 4-byte record of raw is one item: a 16-bit value (a
// high bit in the first byte scales it down by 1e6, so spreads reach
// maxDPWidth) and a 16-bit weight. capacity is taken modulo Σw+1.
func FuzzRoundingDP(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, capacity uint32, epsByte uint8) {
		items := make([]knapsackItem, 0, 24)
		var sum int64
		for i := 0; i+4 <= len(raw) && len(items) < cap(items); i += 4 {
			v := float64(binary.LittleEndian.Uint16(raw[i:])&0x7fff+1) / 32768
			if raw[i+1]&0x80 != 0 {
				v *= 1e-6
			}
			w := int64(binary.LittleEndian.Uint16(raw[i+2:]))
			items = append(items, knapsackItem{id: len(items), value: v, weight: w})
			sum += w
		}
		if len(items) == 0 {
			return
		}
		eps := float64(epsByte%100+1) / 100
		checkRoundingDP(t, items, int64(capacity)%(sum+1), eps, &dpScratch{})
	})
}
