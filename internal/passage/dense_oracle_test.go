package passage

import (
	"fmt"
	"math"

	"hydra/internal/sparse"
)

// DirectDenseLST solves the passage system by dense Gaussian elimination —
// O(N³), usable only on small models: the ground-truth oracle the tests
// hold the iterative routes to.
func (sv *Solver) DirectDenseLST(s complex128, src SourceWeights, targets []int) (complex128, error) {
	if err := src.validate(sv.m.N()); err != nil {
		return 0, err
	}
	if err := sv.prepare(s, passageQ, targets); err != nil {
		return 0, err
	}
	n := sv.m.N()
	a := sparse.NewDense(n)
	b := make([]complex128, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
		sv.u.Row(i, func(k int, v complex128) {
			if sv.targets[k] {
				b[i] += v
			} else {
				a.Add(i, k, -v)
			}
		})
	}
	x, err := sparse.SolveDense(a, b)
	if err != nil {
		return 0, err
	}
	return src.Dot(x), nil
}

// validate checks a weighting against an n-state model.
func (sw SourceWeights) validate(n int) error {
	if len(sw.States) == 0 || len(sw.States) != len(sw.Weights) {
		return fmt.Errorf("passage: malformed source weights (%d states, %d weights)", len(sw.States), len(sw.Weights))
	}
	var sum float64
	for k, i := range sw.States {
		if i < 0 || i >= n {
			return fmt.Errorf("passage: source state %d outside model of %d states", i, n)
		}
		if math.IsNaN(sw.Weights[k]) || math.IsInf(sw.Weights[k], 0) {
			return fmt.Errorf("passage: non-finite source weight %v", sw.Weights[k])
		}
		if sw.Weights[k] < 0 {
			return fmt.Errorf("passage: negative source weight %v", sw.Weights[k])
		}
		sum += sw.Weights[k]
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("passage: source weights sum to %v, want 1", sum)
	}
	return nil
}
