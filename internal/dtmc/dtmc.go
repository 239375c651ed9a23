// Package dtmc computes steady-state distributions of discrete-time
// Markov chains. The passage-time method needs the stationary vector π̃
// of the SMP's embedded DTMC to weight multiple source states: Eq. (5) of
// the paper sets α_k = π_k / Σ_{j∈i⃗} π_j for source states k ∈ i⃗.
//
// There is one solver, SteadyStateGS: Gauss–Seidel sweeps with Anderson
// acceleration between them. The acceleration only chooses the vector
// the next sweep starts from. The stopping test — one plain sweep that
// changes no entry by more than Tol·Σπ — and the returned vector — that
// sweep's, normalised — are those of unaccelerated Gauss–Seidel, so the
// answer carries the same certificate; the test also asks every entry to
// have settled to 1e-8 of itself, which plain Gauss–Seidel met without
// asking. When the accelerator misbehaves (a sweep changes the vector no
// less than the one before it, or a mixed vector is not finite) it drops
// its history and the next step is a plain sweep.
package dtmc

import (
	"errors"
	"fmt"
	"math"

	"hydra/internal/sparse"
)

// ErrNotConverged is returned when an iterative solver exhausts its
// iteration budget before meeting its tolerance.
var ErrNotConverged = errors.New("dtmc: steady-state iteration did not converge")

// ErrReducible is returned when the chain is not irreducible, in which
// case no unique stationary vector exists.
var ErrReducible = errors.New("dtmc: chain is reducible")

// Options configures the steady-state solvers.
type Options struct {
	// Tol is the convergence tolerance on the successive-iterate
	// infinity norm (default 1e-12).
	Tol float64
	// MaxIter bounds the number of sweeps (default 100000).
	MaxIter int
	// SkipIrreducibilityCheck bypasses the SCC pre-check for callers that
	// have already verified the chain (the reachability generator
	// guarantees every state is reachable from the initial one, but not
	// the converse).
	SkipIrreducibilityCheck bool
}

func (o Options) withDefaults() Options {
	if o.Tol == 0 {
		o.Tol = 1e-12
	}
	if o.MaxIter == 0 {
		o.MaxIter = 100000
	}
	return o
}

// validateStochastic confirms that every row of P sums to 1 (within tol)
// and entries are non-negative.
func validateStochastic(p *sparse.Matrix) error {
	rows, cols := p.Dims()
	if rows != cols {
		return fmt.Errorf("dtmc: transition matrix is %dx%d, want square", rows, cols)
	}
	for i, sum := range p.RowSums() {
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("dtmc: row %d sums to %v, want 1", i, sum)
		}
	}
	bad := -1
	for i := 0; i < rows && bad < 0; i++ {
		p.Row(i, func(j int, v float64) {
			if v < 0 {
				bad = i
			}
		})
	}
	if bad >= 0 {
		return fmt.Errorf("dtmc: row %d has a negative probability", bad)
	}
	return nil
}

// SteadyStateGS computes the stationary vector by Gauss–Seidel sweeps on
// the normal equations π_i = Σ_{j≠i} π_j·p_ji / (1 − p_ii), accelerated
// by Anderson mixing (see anderson): between two sweeps the accelerator
// replaces the swept vector with the combination of the last few sweeps
// that best cancels their changes. On the stiff embedded chains of
// voting systems 1 and 2, whose rare failures put the subdominant
// eigenvalue near 1, that takes about a sixth of the plain sweeps.
//
// The acceleration never touches the certificate. Every iteration is a
// plain sweep of the current vector, and the solve stops at a sweep that
// changes no entry by more than Tol·Σπ — and no entry by more than
// relTol of itself — returning that sweep's vector, normalised. Once
// the absolute test has passed, the accelerator is switched off and the
// remaining sweeps, which settle the probabilities of rare states, are
// plain. The accelerator guards itself: an entry whose mixed value is
// negative, or whose last sweep still changed it by more than a tenth,
// takes its plain sweep value; when a sweep changes the vector no less
// than the one before it, or a mixed vector is not finite, the history
// is dropped and the next step is a plain sweep.
func SteadyStateGS(p *sparse.Matrix, opts Options) ([]float64, error) {
	pi, _, err := steadyStateGS(p, opts)
	return pi, err
}

// relTol is the componentwise half of the stopping test. Plain
// Gauss–Seidel met it as a by-product of its many sweeps — its vectors
// were right to ~1e-8 relative on every state of voting systems 1 and 2,
// down to π = 1e-134 — but an accelerated solve that stops on the
// absolute test alone leaves the rarest states wrong by orders of
// magnitude.
const relTol = 1e-8

// steadyStateGS is SteadyStateGS reporting the number of sweeps it ran.
func steadyStateGS(p *sparse.Matrix, opts Options) ([]float64, int, error) {
	opts = opts.withDefaults()
	if err := validateStochastic(p); err != nil {
		return nil, 0, err
	}
	if !opts.SkipIrreducibilityCheck && !IsIrreducible(p) {
		return nil, 0, ErrReducible
	}
	n, _ := p.Dims()
	op := newIncoming(p)
	acc := newAnderson(n, andersonDepth)
	accelerate := true
	for iter := 0; iter < opts.MaxIter; iter++ {
		pi := acc.g
		diff, sum, settled := op.sweep(pi)
		if math.IsNaN(sum) || math.IsInf(sum, 0) {
			return nil, iter + 1, fmt.Errorf("%w: sweep %d left a non-finite vector", ErrNotConverged, iter+1)
		}
		converged := diff < opts.Tol*sum
		if converged && settled {
			// A copy, so the accelerator's history can be collected.
			out := make([]float64, n)
			inv := 1 / sum
			for i, v := range pi {
				out[i] = v * inv
			}
			return out, iter + 1, nil
		}
		accelerate = accelerate && !converged
		if accelerate {
			acc.mix(diff, sum)
		} else {
			acc.plain(pi, 1/sum)
		}
	}
	return nil, opts.MaxIter, fmt.Errorf("%w after %d iterations", ErrNotConverged, opts.MaxIter)
}

// incoming is the Gauss–Seidel operator of the normal equations
// π_i = Σ_{j≠i} π_j·p_ji / (1 − p_ii): row i holds the incoming
// probabilities p_ji in ascending j with the diagonal dropped, and
// denom[i] is 1 − p_ii.
type incoming struct {
	rowPtr []int
	col    []int32
	val    []float64
	denom  []float64
}

func newIncoming(p *sparse.Matrix) *incoming {
	n, _ := p.Dims()
	op := &incoming{rowPtr: make([]int, n+1), denom: make([]float64, n)}
	for i := 0; i < n; i++ {
		p.Row(i, func(j int, v float64) {
			if j == i {
				op.denom[i] = v // p_ii, until the loop below
			} else {
				op.rowPtr[j+1]++
			}
		})
	}
	for i := 0; i < n; i++ {
		op.rowPtr[i+1] += op.rowPtr[i]
		denom := 1 - op.denom[i]
		if denom <= 0 {
			// Absorbing state: impossible in an irreducible chain
			// with n > 1, but guard against degenerate input.
			denom = 1
		}
		op.denom[i] = denom
	}
	op.col = make([]int32, op.rowPtr[n])
	op.val = make([]float64, op.rowPtr[n])
	next := append([]int(nil), op.rowPtr[:n]...)
	for i := 0; i < n; i++ {
		p.Row(i, func(j int, v float64) {
			if j != i {
				op.col[next[j]] = int32(i)
				op.val[next[j]] = v
				next[j]++
			}
		})
	}
	return op
}

// sweep runs one Gauss–Seidel pass over pi in place. It returns the
// largest change it made to an entry, the mass Σπ it left, and whether
// every entry moved by at most relTol of its new value.
func (op *incoming) sweep(pi []float64) (diff, sum float64, settled bool) {
	settled = true
	for i := range pi {
		var in float64
		for k := op.rowPtr[i]; k < op.rowPtr[i+1]; k++ {
			in += op.val[k] * pi[op.col[k]]
		}
		next := in / op.denom[i]
		d := math.Abs(next - pi[i])
		if d > diff {
			diff = d
		}
		if d > relTol*next {
			settled = false
		}
		pi[i] = next
		sum += next
	}
	return diff, sum, settled
}

// Residual returns ‖πP − π‖∞, the stationarity defect of a candidate
// vector.
func Residual(p *sparse.Matrix, pi []float64) float64 {
	n, _ := p.Dims()
	out := make([]float64, n)
	p.VecMul(pi, out)
	var r float64
	for i := range out {
		if d := math.Abs(out[i] - pi[i]); d > r {
			r = d
		}
	}
	return r
}

// Alpha computes the Eq. (5) source weights: the steady-state
// probabilities of the source states, renormalised over the source set.
func Alpha(pi []float64, sources []int) ([]float64, error) {
	var total float64
	for _, k := range sources {
		if k < 0 || k >= len(pi) {
			return nil, fmt.Errorf("dtmc: source state %d outside chain of %d states", k, len(pi))
		}
		total += pi[k]
	}
	if total <= 0 {
		return nil, fmt.Errorf("dtmc: source states have zero steady-state mass")
	}
	alpha := make([]float64, len(sources))
	for i, k := range sources {
		alpha[i] = pi[k] / total
	}
	return alpha, nil
}
