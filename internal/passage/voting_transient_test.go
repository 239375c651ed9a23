package passage_test

import (
	"math"
	"math/cmplx"
	"testing"

	"hydra"
	"hydra/internal/lt"
	"hydra/internal/passage"
)

// TestTransientMatchesPykeOracleOnVotingSystem0 runs the renewal route
// against the Eq. (6)–(7) oracle where the difference matters: voting
// system 0 (2,061 states) with the 111 all-voted states as targets, at
// the 33 Euler points of t = the passage mean. Each vector must agree to
// 1e-6 of its largest entry, cold and warm-started alike.
func TestTransientMatchesPykeOracleOnVotingSystem0(t *testing.T) {
	m, err := hydra.VotingSystem(0)
	if err != nil {
		t.Fatal(err)
	}
	p2 := m.PlaceIndex("p2")
	targets := m.States(func(mk hydra.Marking) bool { return mk[p2] >= 18 })
	if len(targets) != 111 {
		t.Fatalf("%d all-voted states, want 111", len(targets))
	}
	mean, _, err := m.PassageMoments([]int{m.InitialState()}, targets)
	if err != nil {
		t.Fatal(err)
	}
	points := lt.DefaultEuler().Points([]float64{mean})

	oracle := passage.NewSolver(m.SMP(), passage.Options{})
	cold := passage.NewSolver(m.SMP(), passage.Options{})
	warm := passage.NewSolver(m.SMP(), passage.Options{WarmStart: true})
	for k, s := range points {
		want, err := passage.TransientOracle(oracle, s, targets)
		if err != nil {
			t.Fatalf("point %d: oracle: %v", k, err)
		}
		for _, route := range []struct {
			name string
			sv   *passage.Solver
		}{{"cold", cold}, {"warm", warm}} {
			got, err := route.sv.TransientVectorLST(s, targets)
			if err != nil {
				t.Fatalf("point %d: %s route: %v", k, route.name, err)
			}
			if d := relDiff(got, want); d > 1e-6 {
				t.Errorf("point %d (s=%v): %s route differs from Eq. (6)–(7) by %.3g of the largest entry", k, s, route.name, d)
			}
		}
	}
}

// relDiff is max|a−b| ÷ max|b|.
func relDiff(a, b []complex128) float64 {
	var diff, norm float64
	for i := range b {
		diff = math.Max(diff, cmplx.Abs(a[i]-b[i]))
		norm = math.Max(norm, cmplx.Abs(b[i]))
	}
	return diff / norm
}
