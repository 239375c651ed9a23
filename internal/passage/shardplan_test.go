package passage

import (
	"math/cmplx"
	"math/rand"
	"testing"
)

// shardTunings enumerates the conduct combinations every
// differential test must hold under: lock-step, overlapped exchange,
// inner-sweep batching, and both at once.
var shardTunings = []struct {
	name   string
	tuning ShardTuning
}{
	{"lockstep", ShardTuning{}},
	{"overlap", ShardTuning{Overlap: true}},
	{"batch", ShardTuning{InnerSweeps: 8}},
	{"overlap+batch", ShardTuning{Overlap: true, InnerSweeps: 8}},
}

// TestShardedPlannedMatchesMonolithicCold is the tentpole differential
// property: the planned solve — boundary-minimizing ordering, overlap,
// inner-sweep batching — must agree with the monolithic solver at 1e-12
// for every partition count and tuning. Batching runs block-Jacobi with
// stale halos, so the iterates differ mid-flight; a tight Epsilon makes
// the converged answers land well inside the 1e-12 gate.
func TestShardedPlannedMatchesMonolithicCold(t *testing.T) {
	r := rand.New(rand.NewSource(1501))
	for trial := 0; trial < 12; trial++ {
		n := 4 + r.Intn(20)
		m := randomSMP(r, n)
		targets := randomTargets(r, n)
		points := contourPoints(r, 1+r.Intn(3))
		opts := Options{Epsilon: 1e-13}
		mono := NewSolver(m, opts)
		want := make([][]complex128, len(points))
		for i, s := range points {
			v, _, err := mono.VectorLST(s, targets)
			if err != nil {
				t.Fatalf("trial %d: monolithic: %v", trial, err)
			}
			want[i] = v
		}
		for parts := 1; parts <= 4; parts++ {
			for _, tc := range shardTunings {
				got, stats, err := SolveShardedPlanned(m, opts, parts, targets, points, 0, tc.tuning)
				if err != nil {
					t.Fatalf("trial %d parts %d %s: %v", trial, parts, tc.name, err)
				}
				if stats.Points != len(points) {
					t.Fatalf("trial %d parts %d %s: stats.Points = %d, want %d",
						trial, parts, tc.name, stats.Points, len(points))
				}
				for i := range points {
					for j := 0; j < n; j++ {
						if d := cmplx.Abs(got[i][j] - want[i][j]); d > 1e-12 {
							t.Errorf("trial %d parts %d %s point %d state %d: planned %v vs mono %v (diff %g)",
								trial, parts, tc.name, i, j, got[i][j], want[i][j], d)
						}
					}
				}
			}
		}
	}
}

// TestShardedPlannedMatchesMonolithicWarm runs the same property with
// warm starts on: the planned session's history rotation and
// extrapolation seeding must track the monolithic solver through the
// contour, under every tuning.
func TestShardedPlannedMatchesMonolithicWarm(t *testing.T) {
	r := rand.New(rand.NewSource(733))
	for trial := 0; trial < 10; trial++ {
		n := 4 + r.Intn(20)
		m := randomSMP(r, n)
		targets := randomTargets(r, n)
		points := contourPoints(r, 3+r.Intn(3))
		opts := Options{WarmStart: true, Epsilon: 1e-13}
		mono := NewSolver(m, opts)
		want := make([][]complex128, len(points))
		for i, s := range points {
			v, _, err := mono.VectorLST(s, targets)
			if err != nil {
				t.Fatalf("trial %d: monolithic: %v", trial, err)
			}
			want[i] = v
		}
		for parts := 1; parts <= 4; parts++ {
			for _, tc := range shardTunings {
				got, _, err := SolveShardedPlanned(m, opts, parts, targets, points, 0, tc.tuning)
				if err != nil {
					t.Fatalf("trial %d parts %d %s: %v", trial, parts, tc.name, err)
				}
				for i := range points {
					for j := 0; j < n; j++ {
						if d := cmplx.Abs(got[i][j] - want[i][j]); d > 1e-12 {
							t.Errorf("trial %d parts %d %s point %d state %d: planned %v vs mono %v (diff %g)",
								trial, parts, tc.name, i, j, got[i][j], want[i][j], d)
						}
					}
				}
			}
		}
	}
}

// TestShardedPlannedSegmentRestarts checks the contour-block rule under
// the tuned path: segment boundaries restart cold even when the point
// before used batched sweeps.
func TestShardedPlannedSegmentRestarts(t *testing.T) {
	r := rand.New(rand.NewSource(88))
	n := 18
	m := randomSMP(r, n)
	targets := []int{2, 9}
	const segment = 3
	points := append(contourPoints(r, segment), contourPoints(r, segment)...)
	opts := Options{WarmStart: true, Epsilon: 1e-13}

	want := make([][]complex128, len(points))
	var mono *Solver
	for i, s := range points {
		if i%segment == 0 {
			mono = NewSolver(m, opts)
		}
		v, _, err := mono.VectorLST(s, targets)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}
	got, _, err := SolveShardedPlanned(m, opts, 3, targets, points, segment,
		ShardTuning{Overlap: true, InnerSweeps: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range points {
		for j := 0; j < n; j++ {
			if d := cmplx.Abs(got[i][j] - want[i][j]); d > 1e-12 {
				t.Errorf("point %d state %d: planned %v vs mono %v (diff %g)", i, j, got[i][j], want[i][j], d)
			}
		}
	}
}

// TestShardedPlannedLockstepBitwise: with zero tuning the planned path
// on an identity plan performs the identical arithmetic to SolveSharded,
// so the answers must be bitwise equal — the planned entry point adds no
// numerical drift of its own.
func TestShardedPlannedLockstepBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(909))
	for trial := 0; trial < 8; trial++ {
		n := 6 + r.Intn(14)
		m := randomSMP(r, n)
		targets := randomTargets(r, n)
		points := contourPoints(r, 2)
		plan := PlanShardBlocks(m, 2, targets)
		if plan.Order != nil {
			// Locality ordering won — arithmetic order differs by design;
			// the 1e-12 differential tests above cover this shape.
			continue
		}
		want, _, err := SolveSharded(m, Options{}, 2, targets, points, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := SolveShardedPlanned(m, Options{}, 2, targets, points, 0, ShardTuning{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range points {
			for j := 0; j < n; j++ {
				if got[i][j] != want[i][j] {
					t.Fatalf("trial %d point %d state %d: planned %v vs sharded %v",
						trial, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

// TestInnerPlannerAdapts pins the adaptive-k policy: no estimate or
// rising norms mean lock-step, steady contraction grows k toward the
// cap, and the endgame (norm below Epsilon) drops back to 1 so the
// gauge sees the true final increment.
func TestInnerPlannerAdapts(t *testing.T) {
	p := newInnerPlanner(8, 1e-10)
	if k := p.next(1e-2, 1); k != 1 {
		t.Fatalf("first exchange: k = %d, want 1 (no estimate yet)", k)
	}
	// ρ = 0.5: about 25 sweeps to 1e-10 remain, so the planner should
	// authorise a solid batch, capped at the limit.
	k := p.next(5e-3, 1)
	if k < 2 || k > 8 {
		t.Fatalf("contracting: k = %d, want in [2, 8]", k)
	}
	if got := p.next(6e-3, k); got != 1 {
		t.Fatalf("rising norm: k = %d, want 1", got)
	}
	if got := p.next(1e-11, 1); got != 1 {
		t.Fatalf("endgame below eps: k = %d, want 1", got)
	}
}

// TestShardedPlannedBatchingReducesExchanges: on a model where the
// solve needs many sweeps, inner-sweep batching must move fewer
// boundary values than lock-step — the point of the whole exercise.
func TestShardedPlannedBatchingReducesExchanges(t *testing.T) {
	r := rand.New(rand.NewSource(6121))
	n := 40
	m := randomSMP(r, n)
	targets := []int{11, 29}
	points := contourPoints(r, 2)
	opts := Options{Epsilon: 1e-13}

	_, lock, err := SolveShardedPlanned(m, opts, 3, targets, points, 0, ShardTuning{})
	if err != nil {
		t.Fatal(err)
	}
	_, batch, err := SolveShardedPlanned(m, opts, 3, targets, points, 0, ShardTuning{InnerSweeps: 8})
	if err != nil {
		t.Fatal(err)
	}
	if lock.Sweeps < 8 {
		t.Skipf("solve converged in %d sweeps; too short to exercise batching", lock.Sweeps)
	}
	if batch.Exchanged >= lock.Exchanged {
		t.Fatalf("batching did not reduce exchange: %d values vs %d lock-step (sweeps %d vs %d)",
			batch.Exchanged, lock.Exchanged, batch.Sweeps, lock.Sweeps)
	}
}
