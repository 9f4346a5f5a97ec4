package placement

import (
	"math"
	"sort"

	"trimcaching/internal/bitset"
)

// knapsackItem is one model in the per-combination sub-problem of Algorithm
// 2: value u(m,i) (expected cache-hit mass, eq. 14) and weight D_N(i) (the
// model's specific bytes once the shared combination is cached, eq. 13).
type knapsackItem struct {
	id     int // model index
	value  float64
	weight int64
}

// maxDPWidth bounds the value-axis resolution of the rounding DP. When the
// paper's scale ε·u_min would need more slots, the scale is coarsened to
// fit; this trades a documented sliver of the (1-ε) guarantee for bounded
// memory and time. The DP sweeps O(n·reach) cells, where reach is the
// highest quantized value whose weight still fits, so the width bounds the
// sweep at O(n·width) and sizes the scratch at one bit per (item, value).
const maxDPWidth = 1 << 17

// dpScratch holds reusable DP buffers so the per-combination solves of
// Algorithm 2 do not reallocate megabytes per combo. The take flags are
// word-packed: one bit per (item, value) cell shrinks the scratch 8× and
// makes the per-combo clear a word fill.
type dpScratch struct {
	weights []uint64
	take    bitset.Set
}

func (s *dpScratch) resize(n, width int) (T []uint64, take bitset.Set) {
	if cap(s.weights) < width+1 {
		s.weights = make([]uint64, width+1)
	}
	words := bitset.Words(n * (width + 1))
	if cap(s.take) < words {
		s.take = make(bitset.Set, words)
	}
	T = s.weights[:width+1]
	take = s.take[:words]
	take.Zero()
	return T, take
}

// solveKnapsack maximizes Σ value subject to Σ weight ≤ capacity. Weights
// are non-negative.
//
// epsilon > 0 runs the paper's DP-based rounding (Algorithm 2): values are
// quantized to u̇ = ⌊u/(ε·u_min)⌋ with u_min the smallest positive item
// value, the DP computes the minimum weight per achievable quantized value
// (eq. 15–16), and the best feasible value is recovered (eq. 17). The
// returned set's TRUE value is reported, matching eq. (20).
//
// epsilon == 0 computes the exact optimum by depth-first branch-and-bound
// with a fractional-relaxation bound (used for the Fig. 6 optimality
// comparison, where the paper sets ε = 0).
//
// scratch may be nil; pass one to amortize DP allocations across calls.
func solveKnapsack(items []knapsackItem, capacity int64, epsilon float64, scratch *dpScratch) (chosen []int, value float64) {
	// Filter items that cannot contribute. room is the capacity left once
	// every filtered item so far is taken; it never goes negative, so the
	// all-fit test cannot wrap however large the weights are.
	filtered := make([]knapsackItem, 0, len(items))
	room, allFit := capacity, true
	var allValue float64
	for _, it := range items {
		if it.value <= 0 || it.weight > capacity {
			continue
		}
		filtered = append(filtered, it)
		if it.weight > room {
			allFit = false
		} else {
			room -= it.weight
		}
		allValue += it.value
	}
	if len(filtered) == 0 {
		return nil, 0
	}
	// Everything fits: no optimization needed.
	if allFit {
		ids := make([]int, len(filtered))
		for i, it := range filtered {
			ids[i] = it.id
		}
		return ids, allValue
	}
	if epsilon > 0 {
		if scratch == nil {
			scratch = &dpScratch{}
		}
		return roundingDP(filtered, capacity, epsilon, scratch)
	}
	return branchAndBound(filtered, capacity)
}

// roundingDP is Algorithm 2's inner DP. capacity and every weight must be
// non-negative.
//
// T[w] is the smallest total weight reaching quantized value exactly w
// (eq. 15–16), except that every weight above capacity is folded into one
// sentinel, capacity+1. The cells run in uint64: a cell holds at most
// capacity+1 <= 2^63 and an item weight at most 2^63-1, so a candidate
// T[w-q]+weight never wraps. A candidate from an unreachable or infeasible
// predecessor is at least the sentinel, and no cell exceeds the sentinel,
// so one comparison both rejects it and keeps infeasible weights out. The
// highest feasible cell, reach, bounds each item's sweep at reach+q: cells
// above it hold the sentinel and cannot seed an update. The DP thus sweeps
// O(n·reach) cells instead of O(n·width).
//
// The result equals the plain DP's, which records every weight exactly.
// By induction over items, a cell differs from the plain DP only where the
// plain DP holds a weight above capacity, and a take flag differs only
// where the plain DP updated a cell to such a weight. Eq. (17) selects the
// highest cell whose weight fits, so it reads only equal cells. The
// backtrack from that cell steps from T_idx[w] to either T_(idx-1)[w] or
// T_(idx-1)[w-q] = T_idx[w]-weight, so every cell on its path satisfies
// T_idx[w] <= T_final[best] <= capacity and every flag it reads is equal.
func roundingDP(items []knapsackItem, capacity int64, epsilon float64, scratch *dpScratch) ([]int, float64) {
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

	// take[idx*(width+1)+w] records whether T gained value w by taking item
	// idx; with the descending-w in-place update, T[w-q] reads the previous
	// item row, so the flags reconstruct an optimal set exactly.
	limit := uint64(capacity)
	over := limit + 1 // the sentinel for every weight above capacity
	T, take := scratch.resize(len(items), width)
	T[0] = 0
	for w := 1; w <= width; w++ {
		T[w] = over
	}
	reach := 0 // highest value index whose weight fits so far
	for idx, it := range items {
		q := quant[idx]
		if q == 0 {
			continue
		}
		hi := reach + q
		if hi > width {
			hi = width
		}
		// prev[j] = T[j] and cur[j] = T[j+q]: the sweep over w = j+q runs
		// descending j without bounds checks.
		wt := uint64(it.weight)
		prev := T[:hi-q+1]
		cur := T[q : hi+1]
		cur = cur[:len(prev)]
		base := idx*(width+1) + q
		for j := len(prev) - 1; j >= 0; j-- {
			if cand := prev[j] + wt; cand < cur[j] {
				cur[j] = cand
				take.Set(base + j)
			}
		}
		for w := hi; w > reach; w-- {
			if T[w] <= limit {
				reach = w
				break
			}
		}
	}

	// eq. (17): the largest quantized value whose weight fits.
	best := -1
	for w := width; w >= 0; w-- {
		if T[w] <= limit {
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

// branchAndBound solves 0/1 knapsack exactly. Items are explored in
// decreasing value density with a fractional-relaxation upper bound.
func branchAndBound(items []knapsackItem, capacity int64) ([]int, float64) {
	order := make([]knapsackItem, len(items))
	copy(order, items)
	sort.Slice(order, func(a, b int) bool {
		return order[a].value*float64(order[b].weight) > order[b].value*float64(order[a].weight)
	})

	bestValue := 0.0
	var bestSet []int
	cur := make([]int, 0, len(order))

	// bound returns the fractional-knapsack upper bound for the subtree.
	bound := func(idx int, room int64, value float64) float64 {
		for ; idx < len(order) && room > 0; idx++ {
			it := order[idx]
			if it.weight <= room {
				room -= it.weight
				value += it.value
			} else {
				value += it.value * float64(room) / float64(it.weight)
				break
			}
		}
		return value
	}

	var dfs func(idx int, room int64, value float64)
	dfs = func(idx int, room int64, value float64) {
		if value > bestValue {
			bestValue = value
			bestSet = append(bestSet[:0], cur...)
		}
		if idx >= len(order) || bound(idx, room, value) <= bestValue {
			return
		}
		if it := order[idx]; it.weight <= room {
			cur = append(cur, it.id)
			dfs(idx+1, room-it.weight, value+it.value)
			cur = cur[:len(cur)-1]
		}
		dfs(idx+1, room, value)
	}
	dfs(0, capacity, 0)

	ids := append([]int(nil), bestSet...)
	sort.Ints(ids)
	return ids, bestValue
}
