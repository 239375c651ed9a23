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

// convGauge is the shared truncation judge for the Eq. (10) iterations:
// the cold series, the warm refinement, and the sharded distributed
// sweep all feed it one scalar per sweep (the max-norm of the last
// increment) and stop when it says so. Centralising the rule matters
// for the sharded solve, whose conductor must reach the same stopping
// decision at the same sweep as the monolithic loop it replaces —
// otherwise the differential harness could only compare to solver
// tolerance instead of exactly.
type convGauge struct {
	opts  Options
	eps   float64 // the bound: opts.Epsilon for passage, opts.GSEpsilon for transient
	hits  int
	prevM float64
}

func newConvGauge(opts Options, eps float64) convGauge {
	return convGauge{opts: opts, eps: eps, prevM: math.Inf(1)}
}

// converged reports whether the iteration may stop after a sweep whose
// increment max-norm was m. Exactly one call per sweep: the MassBound
// branch tracks the decay ratio between consecutive sweeps and the
// PaperIncrement branch counts consecutive sub-Epsilon hits.
func (g *convGauge) converged(m float64) bool {
	switch g.opts.Criterion {
	case PaperIncrement:
		if m < g.eps {
			g.hits++
			return g.hits >= g.opts.ConsecutiveHits
		}
		g.hits = 0
		return false
	default: // MassBound
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
}

// shardGauge is convGauge for the sharded conductor, aware of
// multi-sweep batching: when an exchange covered k inner sweeps, the
// observed norm ratio between exchanges is ρᵏ, so the MassBound tail
// test takes the k-th root to recover the per-sweep contraction. Since
// ρ̂ = ratio^(1/k) ≥ ratio, the bound is strictly more conservative
// than the raw ratio — batching can never stop earlier than lock-step
// would have. With k = 1 every decision is bitwise identical to
// convGauge (math.Pow(x, 1) = x).
type shardGauge struct {
	opts  Options
	hits  int
	prevM float64
}

func newShardGauge(opts Options) shardGauge {
	return shardGauge{opts: opts, prevM: math.Inf(1)}
}

// converged reports whether the iteration may stop after an exchange
// whose final-sweep increment max-norm was m, covering k inner sweeps.
func (g *shardGauge) converged(m float64, k int) bool {
	switch g.opts.Criterion {
	case PaperIncrement:
		// Intermediate sweep norms are not observable under batching, so
		// a k-sweep exchange counts as a single observation — consecutive
		// hits accumulate per exchange, never faster than lock-step.
		if m < g.opts.Epsilon {
			g.hits++
			return g.hits >= g.opts.ConsecutiveHits
		}
		g.hits = 0
		return false
	default: // MassBound
		ok := false
		if m < g.opts.Epsilon {
			rho := 0.0
			if g.prevM > 0 && !math.IsInf(g.prevM, 1) {
				if ratio := m / g.prevM; ratio < 1 {
					rho = math.Pow(ratio, 1/float64(k))
				} else {
					rho = ratio
				}
			}
			ok = rho < 1 && m*rho/(1-rho) < g.opts.Epsilon
		}
		g.prevM = m
		return ok
	}
}
