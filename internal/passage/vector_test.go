package passage

import (
	"errors"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"

	"hydra/internal/dist"
	"hydra/internal/smp"
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

// TestNonFiniteIncrementIsAnError drives the drivers left of the
// imaginary axis, where |h*(s)| > 1 and the Eq. (10) sum overflows: every
// route must report ErrNoConvergence within a few hundred sweeps instead
// of certifying NaN after MaxR.
func TestNonFiniteIncrementIsAnError(t *testing.T) {
	// 0 ⇄ 1 cycles with exp(1) sojourns and leaves to the target 2 with
	// probability 0.1; at s = −0.8, h*(s) = 5 and the cycle's weight per
	// round trip is 22.5.
	b := smp.NewBuilder(3)
	e := dist.NewExponential(1)
	b.Add(0, 1, 0.9, e)
	b.Add(0, 2, 0.1, e)
	b.Add(1, 0, 1, e)
	b.Add(2, 0, 1, e)
	m := mustModel(t, b)
	const bad = complex(-0.8, 0)
	targets := []int{2}
	check := func(route string, v []complex128, r int, err error) {
		t.Helper()
		if !errors.Is(err, ErrNoConvergence) {
			t.Errorf("%s: err = %v, vector %v; want ErrNoConvergence", route, err, v)
			return
		}
		if r > 10000 {
			t.Errorf("%s: gave up after %d sweeps; want it to stop at the first non-finite increment", route, r)
		}
		if !strings.Contains(err.Error(), "s=(-0.8+0i)") {
			t.Errorf("%s: error %q does not name s", route, err)
		}
	}

	v, r, err := NewSolver(m, Options{}).VectorLST(bad, targets)
	check("series", v, r, err)
	v, r, err = NewSolver(m, Options{}).IterativeVectorLST(bad, targets)
	check("iterative series", v, r, err)
	_, r, err = NewSolver(m, Options{}).IterativeLST(bad, SourceWeights{States: []int{0}, Weights: []float64{1}}, targets)
	check("row iteration", nil, r, err)

	warm := NewSolver(m, Options{WarmStart: true})
	if _, _, err := warm.VectorLST(1, targets); err != nil {
		t.Fatal(err)
	}
	// The warm refinement runs first and must fail over to the series,
	// which fails the same way.
	v, r, err = warm.VectorLST(bad, targets)
	check("warm refinement", v, r, err)

	_, _, err = SolveSharded(m, Options{}, 2, targets, []complex128{bad}, 0)
	check("sharded", nil, 0, err)
}
