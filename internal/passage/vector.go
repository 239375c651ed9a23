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
// its last increment bounds what the remaining terms can add — the role
// the ℓ1 norm plays in the row iteration. One convGauge judges the cold
// series and the warm refinement alike.

// VectorLST computes the source-indexed passage vector L_·j⃗(s). With
// WarmStart off (or on the first point of a segment) it sums the Eq. (10)
// series; once a converged fixed point over the same target set exists
// it continues the iteration from that neighbouring s-point (refine),
// which typically converges in a fraction of the cold depth on a smooth
// contour. The returned depth is the series depth or the refinement
// sweep count, whichever route ran — both measure one kernel traversal
// per unit. A warm solve that fails to converge falls back to the cold
// series, so WarmStart never turns a solvable point into an error.
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

// IterativeVectorLST computes the same vector by the cold series alone,
//
//	L_·j⃗(s) = (U + UU′ + UU′² + …)·e⃗
//
// propagating the target-indicator column e⃗ backwards through U′. One
// run costs the same as a single-source IterativeLST (one sparse product
// per transition depth) yet yields L_ij⃗(s) for every source state i at
// once, which is how the paper's algorithm serves all sources in one
// sweep over U(s). It returns the vector and the transition depth r at
// which the truncation criterion (see Convergence) was met. With
// WarmStart on, the converged sum still seeds the next VectorLST.
func (sv *Solver) IterativeVectorLST(s complex128, targets []int) ([]complex128, int, error) {
	if err := sv.preparePassage(s, targets); err != nil {
		return nil, 0, err
	}
	z, r, err := sv.series(s)
	if err != nil {
		return nil, r, err
	}
	return sv.closePassage(z, false), r, nil
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

// closePassage returns L = U·z in a fresh vector. A refined z satisfies
// z = e⃗ + U′·z to the certified tail bound, and U′ differs from U only
// in the zeroed target rows, so the non-target rows of U·z are z itself
// and only the target rows need a real row product — which drops the
// closing full-kernel traversal. A cold series sum stops one increment
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
// next solve), the depth, and whether the warm route produced it.
func (sv *Solver) fixedPoint(s complex128) ([]complex128, int, bool, error) {
	if p := sv.cur; sv.opts.WarmStart && p.zWarm && len(p.dirZ) == sv.m.N() {
		if z, r, err := sv.refine(s); err == nil {
			return z, r, true, nil
		}
		// Non-convergence marks the seed stale; rerun cold below.
	}
	z, r, err := sv.series(s)
	return z, r, false, err
}

// series sums z = b + A·b + A²·b + … until the gauge certifies the
// tail, one kernel traversal per term.
func (sv *Solver) series(s complex128) ([]complex128, int, error) {
	z := append([]complex128(nil), sv.rhs...)
	copy(sv.acc, sv.rhs)
	gauge := newConvGauge(sv.opts, sv.tol)
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
			sv.settle(z, r, false)
			return z, r, nil
		}
	}
	return nil, sv.opts.MaxR, fmt.Errorf("%w: %d transitions at s=%v (remaining mass %g)",
		ErrNoConvergence, sv.opts.MaxR, s, maxNorm(sv.acc))
}

// refine continues the iteration x ← b + A·x from the neighbouring
// s-point's converged z — or, once two or three neighbours exist, from
// their linear or quadratic extrapolation, whose smaller seed error buys
// several extra contraction decades of head start. Each sweep costs one
// kernel traversal, the same as one series term, so on a smooth contour
// the refinement replaces a full depth-r series with a fraction of the
// sweeps. The same geometric tail bound as the cold series certifies
// the result: ρ(A) < 1 for Re(s) > 0, so ‖z* − x_r‖∞ ≤ m·ρ/(1−ρ) with m
// the last change.
func (sv *Solver) refine(s complex128) ([]complex128, int, error) {
	p := sv.cur
	n := sv.m.N()
	x, y := sv.acc, sv.next
	switch {
	case p.zPrev2 && len(p.dirZPrev2) == n:
		// Quadratic extrapolation through the last three fixed points.
		for i := range x {
			x[i] = 3*(p.dirZ[i]-p.dirZPrev[i]) + p.dirZPrev2[i]
		}
	case p.zPrev && len(p.dirZPrev) == n:
		for i := range x {
			x[i] = 2*p.dirZ[i] - p.dirZPrev[i]
		}
	default:
		copy(x, p.dirZ)
	}
	gauge := newConvGauge(sv.opts, sv.tol)
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
			sv.acc, sv.next = x, y
			sv.staleSeed()
			return nil, r, nonFinite(s, r)
		}
		if gauge.converged(m) {
			sv.acc, sv.next = x, y
			sv.settle(x, r, true)
			return x, r, nil
		}
	}
	sv.acc, sv.next = x, y
	sv.staleSeed()
	return nil, sv.opts.MaxR, fmt.Errorf("%w: warm refinement after %d sweeps at s=%v",
		ErrNoConvergence, sv.opts.MaxR, s)
}

// staleSeed drops the current entry's warm-start history after a failed
// refinement, so the point reruns cold.
func (sv *Solver) staleSeed() {
	sv.cur.zWarm, sv.cur.zPrev, sv.cur.zPrev2 = false, false, false
	sv.lastWarm, sv.lastSaved = false, 0
}

// settle records a converged fixed point z of depth r on the current
// entry: the depth for LastSweeps and the sweeps-saved accounting, and —
// with WarmStart on — z as the next point's seed. A cold solve restarts
// the extrapolation history; a warm one extends it.
func (sv *Solver) settle(z []complex128, r int, warm bool) {
	sv.lastSweeps = r
	sv.noteWarm(warm)
	if !sv.opts.WarmStart {
		return
	}
	p := sv.cur
	if warm {
		p.dirZPrev2, p.dirZPrev, p.dirZ =
			p.dirZPrev, p.dirZ, append(p.dirZPrev2[:0], z...)
		p.zPrev2 = p.zPrev
		p.zPrev = true
		return
	}
	p.dirZ = append(p.dirZ[:0], z...)
	p.zWarm = true
	p.zPrev, p.zPrev2 = false, false
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
