package passage

import (
	"math/cmplx"
	"math/rand"
	"testing"
)

// TestIterativeVectorMatchesPerSource is the solver-equivalence
// property the vector engine rests on: on random models, the full
// source-indexed vector from one column iteration agrees with a
// separate scalar IterativeLST per source state.
func TestIterativeVectorMatchesPerSource(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	for trial := 0; trial < 25; trial++ {
		n := 3 + r.Intn(12)
		m := randomSMP(r, n)
		sv := NewSolver(m, Options{})
		nT := 1 + r.Intn(2)
		targets := make([]int, 0, nT)
		seen := map[int]bool{}
		for len(targets) < nT {
			k := r.Intn(n)
			if !seen[k] {
				seen[k] = true
				targets = append(targets, k)
			}
		}
		s := complex(0.2+2*r.Float64(), 4*(r.Float64()-0.5))
		vec, _, err := sv.IterativeVectorLST(s, targets)
		if err != nil {
			t.Fatalf("trial %d: vector: %v", trial, err)
		}
		if len(vec) != n {
			t.Fatalf("trial %d: vector length %d, want %d", trial, len(vec), n)
		}
		for i := 0; i < n; i++ {
			want, _, err := sv.IterativeLST(s, SingleSource(i), targets)
			if err != nil {
				t.Fatalf("trial %d source %d: scalar: %v", trial, i, err)
			}
			if cmplx.Abs(vec[i]-want) > 1e-6 {
				t.Errorf("trial %d: L_%d = %v (vector) vs %v (scalar), diff %g",
					trial, i, vec[i], want, cmplx.Abs(vec[i]-want))
			}
		}
	}
}

// TestIterativeVectorPaperIncrementCriterion runs the same equivalence
// under the literal Eq. (11) truncation rule, since the vector
// iteration implements both criteria.
func TestIterativeVectorPaperIncrementCriterion(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 8; trial++ {
		n := 3 + r.Intn(8)
		m := randomSMP(r, n)
		sv := NewSolver(m, Options{Criterion: PaperIncrement, ConsecutiveHits: 3})
		targets := []int{r.Intn(n)}
		s := complex(0.3+r.Float64(), 2*(r.Float64()-0.5))
		vec, _, err := sv.IterativeVectorLST(s, targets)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := 0; i < n; i++ {
			want, _, err := sv.IterativeLST(s, SingleSource(i), targets)
			if err != nil {
				t.Fatalf("trial %d source %d: %v", trial, i, err)
			}
			if cmplx.Abs(vec[i]-want) > 1e-5 {
				t.Errorf("trial %d: L_%d = %v vs %v", trial, i, vec[i], want)
			}
		}
	}
}
