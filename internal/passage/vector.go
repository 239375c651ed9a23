package passage

import (
	"fmt"
	"math"
)

// This file holds the column-form driver behind every source-indexed
// quantity. One run yields the transform for every source state at once,
// so one solve per (model, quantity, targets, s) serves any number of
// source weightings as O(N) dot products. Both quantities are the fixed
// point of
//
//	z = b + A·z
//
// where A is U(s) with the rows flagged in sv.absorb zeroed and b
// (sv.rhs) is supported on the target states j⃗:
//
//   - passage, the column form of Eq. (10): A = U′ (target rows
//     absorbing), b = e⃗, and L_·j⃗(s) = U·z;
//   - transient, the Markov-renewal form of Eq. (6)–(7): A = U (no row
//     absorbs), b_k = (1 − h*_k(s))/s for k ∈ j⃗, and T*_·j⃗(s) = z.
//
// Every |A| row sum is at most h*_i(Re s) < 1 for Re(s) > 0, so the
// Neumann series b + A·b + A²·b + … converges there, and the max norm of
// its last increment bounds what the remaining terms can add. The cold
// route sums that series; the warm route (refine) sweeps the same fixed
// point by Gauss–Seidel. One convGauge judges both.
//
// The paper's row form, L̃ = (α̃U + α̃UU′ + α̃UU′² + …)·e⃗, is the same
// sum read through one source weighting: SourceWeights.Dot of the column
// answer gives it for any α̃.

// VectorLST computes the source-indexed passage vector L_·j⃗(s). With
// WarmStart off (or on the first point of a segment) it sums the Eq. (10)
// series; once a converged fixed point over the same target set exists
// it refines that neighbouring s-point's z by descending Gauss–Seidel
// sweeps (refine), which on a smooth contour converge in about a quarter
// of the cold depth. The returned depth is the series depth or the
// refinement sweep count, whichever route ran — both measure one kernel
// traversal per unit. A warm solve that fails to converge falls back to the cold
// series, so WarmStart never turns a solvable point into an error. A
// point outside Re s > 0 is an ErrHalfPlane.
func (sv *Solver) VectorLST(s complex128, targets []int) ([]complex128, int, error) {
	if err := sv.preparePassage(s, targets); err != nil {
		return nil, 0, err
	}
	z, r, warm, err := sv.fixedPoint(s)
	if err != nil {
		return nil, r, err
	}
	return sv.closePassage(z, warm), r, nil
}

// preparePassage selects the passage entry for targets at s and sets
// b = e⃗.
func (sv *Solver) preparePassage(s complex128, targets []int) error {
	if err := sv.prepare(s, passageQ, targets); err != nil {
		return err
	}
	sv.rhs = resizeC(sv.rhs, sv.m.N())
	for i, isT := range sv.targets {
		sv.rhs[i] = 0
		if isT {
			sv.rhs[i] = 1
		}
	}
	return nil
}

// closePassage returns L = U·z in a fresh vector. A refined z, a
// converged Gauss–Seidel iterate, satisfies z = e⃗ + U′·z to the
// certified tail bound, and U′ differs from U only in the zeroed target
// rows, so the non-target rows of U·z are z itself and only the target
// rows need a real row product — which drops the closing full-kernel
// traversal. A cold series sum stops one increment
// short of that identity, so it takes the full product.
func (sv *Solver) closePassage(z []complex128, warm bool) []complex128 {
	out := make([]complex128, len(z))
	if !warm {
		sv.u.MulVec(z, out)
		return out
	}
	copy(out, z)
	for i, isT := range sv.targets {
		if !isT {
			continue
		}
		cols, vals := sv.u.RowSlices(i)
		var sum complex128
		for e, k := range cols {
			sum += vals[e] * z[k]
		}
		out[i] = sum
	}
	return out
}

// fixedPoint solves the current entry's z = b + A·z at s: continued from
// the neighbouring s-point's solution when WarmStart is on and one
// exists, otherwise — or when that refinement stalls — by the cold
// series. It returns z (possibly a solver workspace, valid until the
// next solve), the depth, and whether the warm route produced it, and
// records the depth, the sweeps-saved accounting and, with WarmStart
// on, z as the next point's seed. A point outside Re s > 0 is rejected
// before either route runs, and leaves the seed as it was.
func (sv *Solver) fixedPoint(s complex128) ([]complex128, int, bool, error) {
	if err := checkHalfPlane(s); err != nil {
		return nil, 0, false, err
	}
	p := sv.cur
	if sv.opts.WarmStart && p.zWarm && len(p.dirZ) == sv.m.N() {
		if r, err := sv.refine(s, p.dirZ); err == nil {
			sv.lastSweeps = r
			sv.noteWarm(true)
			return p.dirZ, r, true, nil
		}
		// The failed refinement overwrote the seed; rerun cold.
		p.zWarm, sv.lastWarm, sv.lastSaved = false, false, 0
	}
	z, r, err := sv.series(s)
	if err == nil {
		sv.lastSweeps = r
		sv.noteWarm(false)
		if sv.opts.WarmStart {
			p.dirZ, p.zWarm = append(p.dirZ[:0], z...), true
		}
	}
	return z, r, false, err
}

// series sums z = b + A·b + A²·b + … until the gauge certifies the
// tail, one kernel traversal per term.
func (sv *Solver) series(s complex128) ([]complex128, int, error) {
	z := append([]complex128(nil), sv.rhs...)
	copy(sv.acc, sv.rhs)
	gauge := newConvGauge(sv.tol)
	for r := 1; r <= sv.opts.MaxR; r++ {
		sv.u.MulVecSkipRows(sv.acc, sv.next, sv.absorb)
		sv.acc, sv.next = sv.next, sv.acc
		for i := range z {
			z[i] += sv.acc[i]
		}
		m := maxNorm(sv.acc)
		if !finite(m) {
			return nil, r, nonFinite(s, r)
		}
		if gauge.converged(m) {
			return z, r, nil
		}
	}
	return nil, sv.opts.MaxR, fmt.Errorf("%w: %d transitions at s=%v (remaining mass %g)",
		ErrNoConvergence, sv.opts.MaxR, s, maxNorm(sv.acc))
}

// refine sweeps z, the neighbouring s-point's converged solution, in
// place to this point's fixed point by Gauss–Seidel in descending state
// order (sparse.CMatrix.SweepDescSkipRows) and returns the sweep count.
// Every |A| row sum is below 1 for Re s > 0, so the sweep converges in
// any row order; the order sets its speed. petri.Explore numbers states
// breadth-first, so targets sit at high indices and a descending sweep
// carries their information back to the sources within one sweep. Each
// sweep is one kernel traversal, like one series term, and the same
// geometric tail bound certifies the result.
func (sv *Solver) refine(s complex128, z []complex128) (int, error) {
	gauge := newConvGauge(sv.tol)
	for r := 1; r <= sv.opts.MaxR; r++ {
		m := math.Sqrt(sv.u.SweepDescSkipRows(z, sv.rhs, sv.absorb))
		if !finite(m) {
			return r, nonFinite(s, r)
		}
		if gauge.converged(m) {
			return r, nil
		}
	}
	return sv.opts.MaxR, fmt.Errorf("%w: warm refinement after %d sweeps at s=%v",
		ErrNoConvergence, sv.opts.MaxR, s)
}

// maxNorm returns max_i |v_i|, NaN if any |v_i| is NaN.
func maxNorm(v []complex128) float64 {
	var m float64
	for _, c := range v {
		m = nanMax(m, math.Hypot(real(c), imag(c)))
	}
	return m
}

// nanMax is the running max of increment norms. Unlike a bare a > m it
// keeps a NaN, which would otherwise read as a zero increment and
// certify a diverged sum.
func nanMax(m, a float64) float64 {
	if a > m || math.IsNaN(a) && !math.IsNaN(m) {
		return a
	}
	return m
}
