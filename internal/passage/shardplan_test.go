package passage

import (
	"math/cmplx"
	"math/rand"
	"testing"
)

// TestShardedPlannedMatchesMonolithicCold is the differential property
// of the planned solve for every partition count: bitwise equal to the
// monolithic cold series when the plan keeps the identity ordering, and
// within 1e-12 when it permutes the states, since a permuted block sums
// each row's entries in permuted column order.
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
			got, stats, err := SolveShardedPlanned(m, opts, parts, targets, points)
			if err != nil {
				t.Fatalf("trial %d parts %d: %v", trial, parts, err)
			}
			if stats.Points != len(points) {
				t.Fatalf("trial %d parts %d: stats.Points = %d, want %d",
					trial, parts, stats.Points, len(points))
			}
			tol := 1e-12
			if PlanShardBlocks(m, parts, targets).Order == nil {
				tol = 0
			}
			for i := range points {
				for j := 0; j < n; j++ {
					if d := cmplx.Abs(got[i][j] - want[i][j]); d > tol {
						t.Errorf("trial %d parts %d point %d state %d: planned %v vs mono %v (diff %g, tolerance %g)",
							trial, parts, i, j, got[i][j], want[i][j], d, tol)
					}
				}
			}
		}
	}
}

// TestShardedPlannedLockstepBitwise: the planned path on an identity
// plan performs the identical arithmetic to SolveSharded,
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
			// the 1e-12 differential test above covers this shape.
			continue
		}
		want, _, err := SolveSharded(m, Options{}, 2, targets, points)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := SolveShardedPlanned(m, Options{}, 2, targets, points)
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
