// Package partition provides state-space partitioning for parallel and
// distributed kernel operations — the direction §6 of the paper lists as
// future work ("specialist techniques, e.g. using hypergraph
// partitioning of data structures, to achieve scalable algorithms for
// systems with ~10⁸ states and beyond").
//
// Two complementary tools are provided:
//
//   - balanced row partitions of the kernel matrix, used to split one
//     s-point's solve into row blocks held by different shard members,
//     and
//
//   - communication-volume accounting (cut edges / boundary vertices)
//     for a hypothetical distributed-memory decomposition, together with
//     a BFS-locality reordering that approximates what a (hyper)graph
//     partitioner buys over random placement.
package partition

import (
	"fmt"

	"hydra/internal/sparse"
)

// Range is a half-open row interval [Lo, Hi).
type Range struct {
	Lo, Hi int
}

// BalancedRows splits rows 0..n-1 into at most parts contiguous ranges
// with approximately equal total weight (e.g. nnz per row). Every row is
// covered exactly once; fewer ranges are returned when parts > n.
func BalancedRows(weights []int, parts int) []Range {
	n := len(weights)
	if parts < 1 {
		panic(fmt.Sprintf("partition: non-positive part count %d", parts))
	}
	if parts > n {
		parts = n
	}
	if parts == 0 {
		return nil
	}
	var total int64
	for _, w := range weights {
		total += int64(w)
	}
	if total == 0 {
		// Degenerate weights (e.g. a kernel probe before any fill, or an
		// all-zero row-cost estimate) used to collapse every row into the
		// final range; fall back to balancing by row count instead.
		out := make([]Range, 0, parts)
		for p := 0; p < parts; p++ {
			lo, hi := p*n/parts, (p+1)*n/parts
			out = append(out, Range{Lo: lo, Hi: hi})
		}
		return out
	}
	out := make([]Range, 0, parts)
	target := float64(total) / float64(parts)
	lo := 0
	var acc int64
	for i := 0; i < n; i++ {
		acc += int64(weights[i])
		// Close the current range once it reaches its share, keeping
		// enough rows for the remaining parts.
		remainingParts := parts - len(out) - 1
		if remainingParts > 0 &&
			float64(acc) >= target*float64(len(out)+1) &&
			n-(i+1) >= remainingParts {
			out = append(out, Range{Lo: lo, Hi: i + 1})
			lo = i + 1
		}
	}
	out = append(out, Range{Lo: lo, Hi: n})
	return out
}

// ShardBlocks splits n states into at most parts contiguous row blocks
// for a sharded distributed solve. Balancing is by row count — the
// conductor assigns blocks before any worker has filled a kernel, so it
// has no per-row cost to weigh — with one structural constraint: a
// maximal run of consecutive target states is never split across
// blocks. Target rows are absorbing in U′ and get their values pinned
// during sweeps; keeping a run on one shard keeps that per-sweep fix-up
// local instead of turning every target row into exchanged boundary
// state. Fewer (never empty) blocks are returned when parts exceeds the
// number of splittable units.
func ShardBlocks(n, parts int, targets []int) []Range {
	if n <= 0 {
		return nil
	}
	if parts < 1 {
		panic(fmt.Sprintf("partition: non-positive part count %d", parts))
	}
	isTarget := make([]bool, n)
	for _, t := range targets {
		if t >= 0 && t < n {
			isTarget[t] = true
		}
	}
	// Unsplittable units: each maximal target run is one unit, every
	// other row its own unit.
	var units []Range
	for i := 0; i < n; {
		j := i + 1
		if isTarget[i] {
			for j < n && isTarget[j] {
				j++
			}
		}
		units = append(units, Range{Lo: i, Hi: j})
		i = j
	}
	weights := make([]int, len(units))
	for u, r := range units {
		weights[u] = r.Hi - r.Lo
	}
	grouped := BalancedRows(weights, parts)
	out := make([]Range, len(grouped))
	for k, g := range grouped {
		out[k] = Range{Lo: units[g.Lo].Lo, Hi: units[g.Hi-1].Hi}
	}
	return out
}

// Assignment maps each row to its part.
type Assignment []int

// FromRanges converts contiguous ranges to a per-row assignment.
func FromRanges(ranges []Range, n int) Assignment {
	a := make(Assignment, n)
	for p, r := range ranges {
		for i := r.Lo; i < r.Hi; i++ {
			a[i] = p
		}
	}
	return a
}

// CutEdges counts kernel entries (i→j) whose endpoints live in different
// parts — the per-iteration communication volume of a row-distributed
// accumulator product (each cut edge makes part(i) contribute to a
// vector entry owned by part(j)).
func CutEdges(m *sparse.CMatrix, a Assignment) int {
	rows, _ := m.Dims()
	if len(a) != rows {
		panic("partition: assignment size mismatch")
	}
	var cut int
	for i := 0; i < rows; i++ {
		m.Row(i, func(j int, _ complex128) {
			if a[i] != a[j] {
				cut++
			}
		})
	}
	return cut
}

// BoundaryVertices counts rows with at least one cut edge — the number
// of vector entries that must be exchanged per iteration (the
// hypergraph-partitioning objective is a refinement of this count).
func BoundaryVertices(m *sparse.CMatrix, a Assignment) int {
	rows, _ := m.Dims()
	boundary := make([]bool, rows)
	for i := 0; i < rows; i++ {
		m.Row(i, func(j int, _ complex128) {
			if a[i] != a[j] {
				boundary[i] = true
				boundary[j] = true
			}
		})
	}
	var n int
	for _, b := range boundary {
		if b {
			n++
		}
	}
	return n
}

// BFSOrder returns a breadth-first ordering of the states over the
// kernel's adjacency starting from state 0 (unreached states are
// appended in index order). Assigning contiguous ranges of this order to
// parts keeps neighbourhoods together, which is the locality a graph
// partitioner exploits; reachability generators already emit states in
// BFS order, so model state spaces get this for free.
func BFSOrder(m *sparse.CMatrix) []int {
	rows, _ := m.Dims()
	order := make([]int, 0, rows)
	seen := make([]bool, rows)
	queue := []int{0}
	seen[0] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		m.Row(v, func(j int, _ complex128) {
			if !seen[j] {
				seen[j] = true
				queue = append(queue, j)
			}
		})
	}
	for i := 0; i < rows; i++ {
		if !seen[i] {
			order = append(order, i)
		}
	}
	return order
}

// AssignByOrder distributes a row ordering over parts in contiguous
// chunks weighted by the rows' weights, returning a per-row assignment.
func AssignByOrder(order []int, weights []int, parts int) Assignment {
	permWeights := make([]int, len(order))
	for pos, row := range order {
		permWeights[pos] = weights[row]
	}
	ranges := BalancedRows(permWeights, parts)
	a := make(Assignment, len(order))
	for p, r := range ranges {
		for pos := r.Lo; pos < r.Hi; pos++ {
			a[order[pos]] = p
		}
	}
	return a
}
