package passage

import (
	"fmt"
	"math"
)

// finite reports whether an increment norm is a number. A NaN or
// infinite increment means the Eq. (10) sum has overflowed — |h*(s)| > 1
// somewhere, as happens left of the imaginary axis — and no later sweep
// can bring it back, so the drivers stop at once instead of running to
// MaxR.
func finite(m float64) bool { return !math.IsNaN(m) && !math.IsInf(m, 0) }

// nonFinite is the error for a non-finite increment after sweep r at s.
func nonFinite(s complex128, r int) error {
	return fmt.Errorf("%w: non-finite increment after %d sweeps at s=%v", ErrNoConvergence, r, s)
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

// converged reports whether the iteration may stop after an observation
// whose final-sweep increment max-norm was m, covering k sweeps — one
// call per observation. The monolithic loops observe every sweep
// (k = 1); a batched shard exchange covers k inner sweeps, so the ratio
// between observations is ρᵏ and the k-th root recovers the per-sweep
// contraction. Since ratio^(1/k) ≥ ratio the bound only grows with k:
// batching can never stop earlier than lock-step would have, and at
// k = 1 the arithmetic is the monolithic loop's exactly
// (math.Pow(x, 1) == x).
func (g *convGauge) converged(m float64, k int) bool {
	ok := false
	if m < g.eps {
		rho := 0.0
		if g.prevM > 0 && !math.IsInf(g.prevM, 1) {
			if ratio := m / g.prevM; ratio < 1 {
				rho = math.Pow(ratio, 1/float64(k))
			} else {
				rho = ratio
			}
		}
		ok = rho < 1 && m*rho/(1-rho) < g.eps
	}
	g.prevM = m
	return ok
}
