package passage

import (
	"math/cmplx"
	"math/rand"
	"testing"
)

// contour builds an Euler-like vertical contour: fixed real abscissa,
// ascending imaginary parts — neighbouring points differ only slightly,
// which is the geometry warm starting exploits.
func contour(re float64, n int) []complex128 {
	pts := make([]complex128, n)
	for k := range pts {
		pts[k] = complex(re, float64(k)*0.35)
	}
	return pts
}

// Warm-started solves are an acceleration, not an approximation: walking
// a contour with WarmStart on must reproduce the cold per-point answers
// within solver tolerance, on random semi-Markov models, while actually
// engaging the warm path (warm solves reported, sweeps saved counted).
func TestWarmStartMatchesColdWithinTolerance(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	totalWarm := 0
	for trial := 0; trial < 20; trial++ {
		n := 3 + r.Intn(10)
		m := randomSMP(r, n)
		targets := []int{r.Intn(n)}
		cold := NewSolver(m, Options{})
		warm := NewSolver(m, Options{WarmStart: true})

		for _, s := range contour(0.4+r.Float64(), 12) {
			want, _, err := cold.IterativeVectorLST(s, targets)
			if err != nil {
				t.Fatalf("trial %d: cold: %v", trial, err)
			}
			got, _, err := warm.VectorLST(s, targets)
			if err != nil {
				t.Fatalf("trial %d: warm: %v", trial, err)
			}
			for i := range want {
				if d := cmplx.Abs(got[i] - want[i]); d > 1e-6 {
					t.Fatalf("trial %d: s=%v state %d: warm %v vs cold %v (diff %g)",
						trial, s, i, got[i], want[i], d)
				}
			}
			if w, saved := warm.LastWarmStart(); w {
				totalWarm++
				if saved < 0 {
					t.Fatalf("trial %d: negative sweeps-saved estimate %d", trial, saved)
				}
			}
		}
	}
	if totalWarm == 0 {
		t.Fatal("warm path never engaged across 20 contours — the cache is dead code")
	}
}

// The first solve of a contour has no neighbour to seed from; it must
// run cold and say so.
func TestWarmStartFirstPointIsCold(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	m := randomSMP(r, 6)
	sv := NewSolver(m, Options{WarmStart: true})
	if _, _, err := sv.VectorLST(complex(0.8, 0), []int{2}); err != nil {
		t.Fatal(err)
	}
	if w, _ := sv.LastWarmStart(); w {
		t.Fatal("first solve of a fresh solver reported a warm start")
	}
}

// Changing the target set mid-stream must not seed from the old set's
// solution: each prepared entry keeps its own warm state.
func TestWarmStartSeparatesTargetSets(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	m := randomSMP(r, 8)
	warm := NewSolver(m, Options{WarmStart: true})
	cold := NewSolver(m, Options{})
	pts := contour(0.6, 6)
	for _, s := range pts {
		for _, targets := range [][]int{{1}, {3, 5}} {
			want, _, err := cold.IterativeVectorLST(s, targets)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := warm.VectorLST(s, targets)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if d := cmplx.Abs(got[i] - want[i]); d > 1e-6 {
					t.Fatalf("s=%v targets %v state %d: diff %g", s, targets, i, d)
				}
			}
		}
	}
}
