package passage

import (
	"fmt"
	"sync"

	"hydra/internal/partition"
	"hydra/internal/smp"
)

// This file connects the partition planner to the sharded solver: the
// kernel's sparsity pattern is the graph, and the plan decides whether
// blocks are plain index ranges (identity) or contiguous ranges of a
// boundary-minimizing state ordering. Plans are deterministic functions
// of (model, parts, targets), which is the distributed contract: the
// fleet master has no kernel, so every recruited worker computes the
// same plan independently and reports its placement back.

// kernelGraph adapts a model's kernel sparsity to partition.Graph.
type kernelGraph struct{ m *smp.Model }

func (g kernelGraph) NumRows() int                  { return g.m.N() }
func (g kernelGraph) Neighbors(i int, fn func(int)) { g.m.KernelCols(i, fn) }

// planCache memoizes shard plans. A plan is a deterministic pure
// function of (model, parts, targets), every member of a session
// computes the identical plan, and resident workers recruit sessions
// repeatedly — so the BFS + refinement cost (~50ms per 10^5 states)
// should be paid once per key, not once per member per session. The
// cache is dropped wholesale at a small bound: entries pin their model
// (and an Order slice of N ints), and a rebuild is milliseconds.
var planCache = struct {
	sync.Mutex
	entries map[planKey]partition.Plan
}{entries: make(map[planKey]partition.Plan)}

type planKey struct {
	m       *smp.Model
	parts   int
	targets string
}

// PlanShardBlocks computes the boundary-minimizing shard plan for the
// model: ShardBlocks' identity split versus a BFS + frontier-refinement
// ordering, whichever exchanges fewer states per sweep. Deterministic
// for a given model/parts/targets, and memoized on that key. Callers
// must treat the returned plan (its Order in particular) as read-only.
func PlanShardBlocks(m *smp.Model, parts int, targets []int) partition.Plan {
	key := planKey{m: m, parts: parts, targets: fmt.Sprint(targets)}
	planCache.Lock()
	if p, ok := planCache.entries[key]; ok {
		planCache.Unlock()
		return p
	}
	planCache.Unlock()
	// Concurrent misses compute the same deterministic plan twice;
	// cheaper than holding the lock across a multi-ms computation.
	p := partition.PlanBlocks(kernelGraph{m: m}, parts, targets, 0)
	planCache.Lock()
	if len(planCache.entries) >= 16 {
		clear(planCache.entries)
	}
	planCache.entries[key] = p
	planCache.Unlock()
	return p
}

// ShardPlacement describes one member's block under a plan: positions
// [Lo, Hi) of the planned ordering, with Perm listing the original
// state per position (nil for the identity ordering). The conductor
// needs it to route halos (Lo/Hi) and to map the member's answer block
// back to original state numbers (Perm).
type ShardPlacement struct {
	Lo, Hi int
	Perm   []int
}

// NewPlannedShardSolver computes the plan for parts blocks and builds
// the member for block part. When the plan yields fewer blocks than
// parts (tiny models), surplus parts get a nil solver and a zero
// placement — the distributed caller releases those members.
func NewPlannedShardSolver(m *smp.Model, parts, part int, targets []int) (*ShardSolver, ShardPlacement, error) {
	if part < 0 || parts < 1 || part >= parts {
		return nil, ShardPlacement{}, fmt.Errorf("passage: shard part %d of %d", part, parts)
	}
	plan := PlanShardBlocks(m, parts, targets)
	return plannedSolver(m, plan, part, targets)
}

func plannedSolver(m *smp.Model, plan partition.Plan, part int, targets []int) (*ShardSolver, ShardPlacement, error) {
	if part >= len(plan.Ranges) {
		return nil, ShardPlacement{}, nil
	}
	r := plan.Ranges[part]
	if plan.Order == nil {
		sv, err := NewShardSolver(m, r.Lo, r.Hi, targets)
		return sv, ShardPlacement{Lo: r.Lo, Hi: r.Hi}, err
	}
	sv, err := NewShardSolverPermuted(m, plan.Order, r.Lo, r.Hi, targets)
	return sv, ShardPlacement{Lo: r.Lo, Hi: r.Hi, Perm: plan.Order[r.Lo:r.Hi]}, err
}

// SolveShardedPlanned is SolveSharded with the boundary-minimizing plan
// — the in-process reference for the fleet's distributed path. Answers
// come back in original state order regardless of the plan's ordering.
func SolveShardedPlanned(m *smp.Model, opts Options, parts int, targets []int, points []complex128) ([][]complex128, *ShardStats, error) {
	plan := PlanShardBlocks(m, parts, targets)
	members := make([]ShardMember, 0, len(plan.Ranges))
	for part := range plan.Ranges {
		sv, _, err := plannedSolver(m, plan, part, targets)
		if err != nil {
			return nil, nil, err
		}
		members = append(members, sv)
	}
	ss, err := NewShardSession(m.N(), members, opts)
	if err != nil {
		return nil, nil, err
	}
	out := make([][]complex128, len(points))
	for idx, s := range points {
		v, _, err := ss.SolvePoint(s)
		if err != nil {
			return nil, nil, fmt.Errorf("point %d (s=%v): %w", idx, s, err)
		}
		if plan.Order != nil {
			mapped := make([]complex128, len(v))
			for pos, orig := range plan.Order {
				mapped[orig] = v[pos]
			}
			v = mapped
		}
		out[idx] = v
	}
	stats := ss.Stats()
	return out, &stats, nil
}
