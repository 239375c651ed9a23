package passage

import (
	"fmt"
	"math"

	"hydra/internal/smp"
)

// jacobiWarmRef is the warm passage route in the sharded solver's form,
// kept as the reference the sharded ≡ monolithic differential tests
// compare against bitwise. The monolithic warm route refines by
// in-place Gauss–Seidel, whose answers agree with the sharded Jacobi
// sweep only to solver tolerance; this reference runs the sharded
// arithmetic on one solver instead: the cold series for a segment's
// first point, then x ← e⃗ + U′·x from the neighbouring fixed point, or
// from the linear or quadratic extrapolation of the last two or three,
// with the same retry-cold rule.
type jacobiWarmRef struct {
	sv   *Solver
	hist [][]complex128 // converged z of the last points, newest first, at most three
}

// newJacobiWarmRef builds the reference over m. The solver runs with
// WarmStart off: the reference keeps its own seed history.
func newJacobiWarmRef(m *smp.Model, opts Options) *jacobiWarmRef {
	opts.WarmStart = false
	return &jacobiWarmRef{sv: NewSolver(m, opts)}
}

// VectorLST is Solver.VectorLST with the Jacobi warm route.
func (j *jacobiWarmRef) VectorLST(s complex128, targets []int) ([]complex128, error) {
	sv := j.sv
	if err := sv.preparePassage(s, targets); err != nil {
		return nil, err
	}
	if len(j.hist) > 0 {
		if z, err := j.refine(s); err == nil {
			j.hist = append([][]complex128{z}, j.hist[:min(len(j.hist), 2)]...)
			return sv.closePassage(z, true), nil
		}
		j.hist = nil
	}
	z, _, err := sv.series(s)
	if err != nil {
		return nil, err
	}
	j.hist = [][]complex128{append([]complex128(nil), z...)}
	return sv.closePassage(z, false), nil
}

// refine is the Jacobi refinement: one product, one right-hand-side
// pass and one increment norm per sweep, seeded by extrapolation.
func (j *jacobiWarmRef) refine(s complex128) ([]complex128, error) {
	sv := j.sv
	x := make([]complex128, sv.m.N())
	y := make([]complex128, len(x))
	h := j.hist
	for i := range x {
		switch len(h) {
		case 3:
			x[i] = 3*(h[0][i]-h[1][i]) + h[2][i]
		case 2:
			x[i] = 2*h[0][i] - h[1][i]
		default:
			x[i] = h[0][i]
		}
	}
	gauge := newConvGauge(sv.tol)
	for r := 1; r <= sv.opts.MaxR; r++ {
		sv.u.MulVecSkipRows(x, y, sv.absorb)
		for i, isT := range sv.targets {
			if isT {
				y[i] += sv.rhs[i]
			}
		}
		var m float64
		for i := range y {
			d := y[i] - x[i]
			m = nanMax(m, math.Hypot(real(d), imag(d)))
		}
		x, y = y, x
		if !finite(m) {
			return nil, nonFinite(s, r)
		}
		if gauge.converged(m, 1) {
			return x, nil
		}
	}
	return nil, fmt.Errorf("%w: Jacobi refinement after %d sweeps at s=%v", ErrNoConvergence, sv.opts.MaxR, s)
}
