package passage

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"hydra/internal/partition"
)

// contourPoints builds a short synthetic contour segment: nearby
// s-points at fixed real part, the shape the Euler inverters emit and
// the warm-start machinery assumes.
func contourPoints(r *rand.Rand, k int) []complex128 {
	a := 0.4 + 1.5*r.Float64()
	b := 2 * (r.Float64() - 0.5)
	h := 0.1 + 0.2*r.Float64()
	pts := make([]complex128, k)
	for i := range pts {
		pts[i] = complex(a, b+float64(i)*h)
	}
	return pts
}

func randomTargets(r *rand.Rand, n int) []int {
	nT := 1 + r.Intn(3)
	targets := make([]int, 0, nT)
	seen := map[int]bool{}
	for len(targets) < nT {
		k := r.Intn(n)
		if !seen[k] {
			seen[k] = true
			targets = append(targets, k)
		}
	}
	return targets
}

// TestShardedMatchesMonolithicCold is the core differential property:
// with warm starts off, a sharded solve over any partition count must
// reproduce the monolithic cold VectorLST — and because the sharded
// sweep performs the identical arithmetic in the identical order, the
// agreement is far inside solver tolerance.
func TestShardedMatchesMonolithicCold(t *testing.T) {
	r := rand.New(rand.NewSource(301))
	for trial := 0; trial < 20; trial++ {
		n := 4 + r.Intn(20)
		m := randomSMP(r, n)
		targets := randomTargets(r, n)
		points := contourPoints(r, 1+r.Intn(4))
		mono := NewSolver(m, Options{})
		want := make([][]complex128, len(points))
		for i, s := range points {
			v, _, err := mono.VectorLST(s, targets)
			if err != nil {
				t.Fatalf("trial %d: monolithic: %v", trial, err)
			}
			want[i] = v
		}
		for parts := 1; parts <= 4; parts++ {
			got, stats, err := SolveSharded(m, Options{}, parts, targets, points, 0)
			if err != nil {
				t.Fatalf("trial %d parts %d: sharded: %v", trial, parts, err)
			}
			if stats.Points != len(points) {
				t.Fatalf("trial %d parts %d: stats.Points = %d, want %d", trial, parts, stats.Points, len(points))
			}
			for i := range points {
				for j := 0; j < n; j++ {
					if d := cmplx.Abs(got[i][j] - want[i][j]); d > 1e-12 {
						t.Errorf("trial %d parts %d point %d state %d: sharded %v vs mono %v (diff %g)",
							trial, parts, i, j, got[i][j], want[i][j], d)
					}
				}
			}
		}
	}
}

// TestShardedMatchesMonolithicWarm runs the same differential property
// with warm starts on: the sharded session must track the monolithic
// VectorLST through the cold first point, the neighbour-seeded second,
// and the extrapolation-seeded rest, including the per-block history
// rotation.
func TestShardedMatchesMonolithicWarm(t *testing.T) {
	r := rand.New(rand.NewSource(977))
	for trial := 0; trial < 15; trial++ {
		n := 4 + r.Intn(20)
		m := randomSMP(r, n)
		targets := randomTargets(r, n)
		points := contourPoints(r, 3+r.Intn(4))
		opts := Options{WarmStart: true}
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
			got, _, err := SolveSharded(m, opts, parts, targets, points, 0)
			if err != nil {
				t.Fatalf("trial %d parts %d: sharded: %v", trial, parts, err)
			}
			for i := range points {
				for j := 0; j < n; j++ {
					if d := cmplx.Abs(got[i][j] - want[i][j]); d > 1e-12 {
						t.Errorf("trial %d parts %d point %d state %d: sharded %v vs mono %v (diff %g)",
							trial, parts, i, j, got[i][j], want[i][j], d)
					}
				}
			}
		}
	}
}

// TestShardedSegmentBoundariesRestartCold mirrors the pipeline's
// contour-block rule: an index at a multiple of the segment hint starts
// cold. The monolithic reference reproduces that by recreating its
// solver at each boundary.
func TestShardedSegmentBoundariesRestartCold(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	n := 18
	m := randomSMP(r, n)
	targets := []int{2, 9}
	const segment = 3
	points := append(contourPoints(r, segment), contourPoints(r, segment)...)
	opts := Options{WarmStart: true}

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
	got, _, err := SolveSharded(m, opts, 3, targets, points, segment)
	if err != nil {
		t.Fatal(err)
	}
	for i := range points {
		for j := 0; j < n; j++ {
			if d := cmplx.Abs(got[i][j] - want[i][j]); d > 1e-12 {
				t.Errorf("point %d state %d: sharded %v vs mono %v (diff %g)", i, j, got[i][j], want[i][j], d)
			}
		}
	}
}

// TestShardSessionRejectsBadTilings pins the session's validation: gaps,
// overlaps and short coverage are structural errors, not silent wrong
// answers.
func TestShardSessionRejectsBadTilings(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	m := randomSMP(r, 10)
	mk := func(lo, hi int) ShardMember {
		sv, err := NewShardSolver(m, Options{}, lo, hi, []int{1})
		if err != nil {
			t.Fatal(err)
		}
		return sv
	}
	cases := [][]ShardMember{
		{mk(0, 4), mk(5, 10)}, // gap
		{mk(0, 6), mk(4, 10)}, // overlap
		{mk(0, 4), mk(4, 8)},  // short
		{mk(2, 10)},           // does not start at 0
	}
	for i, members := range cases {
		if _, err := NewShardSession(10, members, Options{}, ShardTuning{}); err == nil {
			t.Errorf("case %d: bad tiling accepted", i)
		}
	}
	if _, err := NewShardSession(10, nil, Options{}, ShardTuning{}); err == nil {
		t.Error("empty member list accepted")
	}
}

// TestShardBlocksDriveSession sanity-checks the partition glue on the
// awkward shapes the regression fixes cover: more parts than states and
// target runs, end to end through a solve.
func TestShardBlocksDriveSession(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	m := randomSMP(r, 5)
	targets := []int{1, 2, 3} // one pinned run covering most of the model
	ranges := partition.ShardBlocks(5, 8, targets)
	if len(ranges) > 5 {
		t.Fatalf("ShardBlocks returned %d ranges for 5 states", len(ranges))
	}
	mono := NewSolver(m, Options{})
	s := complex(0.8, 0.3)
	want, _, err := mono.VectorLST(s, targets)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := SolveSharded(m, Options{}, 8, targets, []complex128{s}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if d := cmplx.Abs(got[0][j] - want[j]); d > 1e-12 {
			t.Errorf("state %d: %v vs %v", j, got[0][j], want[j])
		}
	}
}
