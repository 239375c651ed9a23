package passage

import (
	"fmt"
	"math"
)

// finite reports whether an increment norm is a number. A NaN or
// infinite increment means the Eq. (10) sum has overflowed or a
// transform was not a number, and no later sweep can bring it back, so
// the drivers stop at once instead of running to MaxR.
func finite(m float64) bool { return !math.IsNaN(m) && !math.IsInf(m, 0) }

// nonFinite is the error for a non-finite increment after sweep r at s.
func nonFinite(s complex128, r int) error {
	return fmt.Errorf("%w: non-finite increment after %d sweeps at s=%v", ErrNoConvergence, r, s)
}

// checkHalfPlane rejects an s-point outside Re s > 0. Every |A| row sum
// is below 1 only there, so elsewhere the iterations may diverge or
// settle on different iterates, and convGauge's tail bound bounds
// nothing.
func checkHalfPlane(s complex128) error {
	if !(real(s) > 0) {
		return fmt.Errorf("%w: s=%v has Re s ≤ 0", ErrHalfPlane, s)
	}
	return nil
}

// convGauge is the one truncation judge for the Eq. (10) iterations:
// the cold series, the warm refinement, and the sharded distributed
// sweep all feed it one scalar per sweep (the max-norm of the last
// increment) and stop when it says so. Centralising the rule matters
// for the sharded solve, whose conductor must reach the same stopping
// decision at the same sweep as the monolithic loop it replaces —
// otherwise the differential harness could only compare to solver
// tolerance instead of exactly.
//
// The rule is a geometric tail bound: once the increment norm m is
// below the bound, its decay ratio ρ̂ against the previous observation
// bounds everything the remaining terms can add by m·ρ̂/(1−ρ̂), and the
// iteration stops when that is below the bound too. Unlike a test on
// the last increment alone (the paper's Eq. (11)), it cannot stop
// early on a long passage whose first increments are zero.
type convGauge struct {
	eps   float64 // the bound: Options.Epsilon for passage, Options.GSEpsilon for transient
	prevM float64
}

func newConvGauge(eps float64) convGauge {
	return convGauge{eps: eps, prevM: math.Inf(1)}
}

// converged reports whether the iteration may stop after a sweep whose
// increment max-norm was m — one call per sweep.
func (g *convGauge) converged(m float64) bool {
	ok := false
	if m < g.eps {
		rho := 0.0
		if g.prevM > 0 && !math.IsInf(g.prevM, 1) {
			rho = m / g.prevM
		}
		ok = rho < 1 && m*rho/(1-rho) < g.eps
	}
	g.prevM = m
	return ok
}
