package passage

import (
	"fmt"
	"math"

	"hydra/internal/dist"
	"hydra/internal/smp"
)

// Moments computes the exact first and second moments of the
// first-passage time into the target set from every state, by first-step
// analysis in the time domain — no Laplace transforms involved, which
// makes it both an independent oracle for the transform pipeline and the
// cheap way to get mean response times:
//
//	E[T_i]   = m_i + Σ_{k∉j⃗} p_ik·E[T_k]
//	E[T_i²]  = m2_i + 2·Σ_{k∉j⃗} c_ik·E[T_k] + Σ_{k∉j⃗} p_ik·E[T_k²]
//
// where m_i, m2_i are the first and second moments of the sojourn in i
// and c_ik = p_ik·E[sojourn_i,k] couples the sojourn before the jump to
// the remaining passage. The convention matches Eq. (9)'s leading U
// term: the first transition is always taken, so cycle times
// (source ∈ targets) are well defined.
//
// Every sojourn distribution must implement dist.Varer for the second
// moment; Moments returns an error naming the offending distribution
// otherwise.
type Moments struct {
	Mean   []float64 // E[T_i]
	Second []float64 // E[T_i²]
}

// Variance returns Var[T_i] for state i.
func (mo *Moments) Variance(i int) float64 {
	return mo.Second[i] - mo.Mean[i]*mo.Mean[i]
}

// PassageMoments solves the two linear systems by one joint Gauss–Seidel
// iteration: each sweep updates E[T_i] and E[T_i²] from the latest
// means. It sweeps in descending state index: the equations are
// backward (state i reads its successors), and a breadth-first state
// space numbers the states near the targets last, so this order carries
// what is known at the targets toward the source within one sweep. The
// second-moment system only reads the first, so the joint sweep has the
// fixed point of solving them one after the other.
//
// The stopping test is per state: a moment has converged when every
// state's change over one sweep is at most GSEpsilon times that state's
// own value. A normwise test would let the states with the smallest
// moments, orders of magnitude below the largest, stop with far less
// relative accuracy than the rest. The means stop moving once they pass
// the test — they are then the iterate a first-moment solve on its own
// would have returned — and the second moments run on until they pass it.
func PassageMoments(m *smp.Model, targets []int, opts Options) (*Moments, error) {
	opts = opts.withDefaults()
	n := m.N()
	if len(targets) == 0 {
		return nil, fmt.Errorf("passage: empty target set")
	}
	inTarget := make([]bool, n)
	for _, t := range targets {
		if t < 0 || t >= n {
			return nil, fmt.Errorf("passage: target %d outside model", t)
		}
		inTarget[t] = true
	}

	// Per-distribution moments, then per-state sojourn moments.
	dists := m.Distributions()
	dMean := make([]float64, len(dists))   // E[τ] of each distribution
	dSecond := make([]float64, len(dists)) // E[τ²] of each distribution
	for id, d := range dists {
		v, ok := d.(dist.Varer)
		if !ok {
			return nil, fmt.Errorf("passage: distribution %s has no second moment; PassageMoments requires dist.Varer", d)
		}
		dMean[id] = d.Mean()
		dSecond[id] = v.Variance() + dMean[id]*dMean[id]
	}
	m1 := make([]float64, n) // E[sojourn_i]
	m2 := make([]float64, n) // E[sojourn_i²]
	for i := 0; i < n; i++ {
		_, prob, did := m.TermSlices(i)
		for k, p := range prob {
			m1[i] += p * dMean[did[k]]
			m2[i] += p * dSecond[did[k]]
		}
	}

	// E_i = m1_i + Σ_{k∉j} p_ik·E_k, where the sum is over successor
	// states (post-jump), so the "absorbing" truncation applies to the
	// *destination*; and E[T_i²] = E[(τ + T')²] = m2_i +
	// 2·Σ p_ik·E[τ_ik]·E[T_k] + Σ p_ik·E[T_k²] over non-target
	// successors — for target successors the remaining passage is zero.
	//
	// The two moments of a non-target state sit side by side, x[2i] =
	// E[T_i] and x[2i+1] = E[T_i²], so the random access to a successor
	// fetches both with one cache line. A target's entries stay zero —
	// the remaining passage once it is entered — and its own moments,
	// which no other state reads, go to tgt.
	x := make([]float64, 2*n)
	tgt := make([]float64, 2*n)
	eps := opts.GSEpsilon
	meanDone := false
	for iter := 0; iter < opts.GSMaxIter; iter++ {
		meanOK, secondOK := true, true
		for i := n - 1; i >= 0; i-- {
			to, prob, did := m.TermSlices(i)
			sumM, sumS := m1[i], m2[i]
			for k, j := range to {
				p, mj := prob[k], x[2*j]
				sumM += p * mj
				sumS += 2*p*dMean[did[k]]*mj + p*x[2*j+1]
			}
			own := x[2*i : 2*i+2]
			if inTarget[i] {
				own = tgt[2*i : 2*i+2]
			}
			if !meanDone {
				meanOK = meanOK && math.Abs(sumM-own[0]) <= eps*math.Abs(sumM)
				own[0] = sumM
			}
			secondOK = secondOK && math.Abs(sumS-own[1]) <= eps*math.Abs(sumS)
			own[1] = sumS
		}
		meanDone = meanDone || meanOK
		if meanDone && secondOK {
			mo := &Moments{Mean: make([]float64, n), Second: make([]float64, n)}
			for i := range mo.Mean {
				own := x
				if inTarget[i] {
					own = tgt
				}
				mo.Mean[i], mo.Second[i] = own[2*i], own[2*i+1]
			}
			return mo, nil
		}
	}
	return nil, fmt.Errorf("%w: moment Gauss–Seidel after %d sweeps", ErrNoConvergence, opts.GSMaxIter)
}

// WeightedMoments reduces per-state moments over a source weighting:
// the passage time from α̃ is the α-mixture of the per-state passages.
func (mo *Moments) WeightedMoments(src SourceWeights) (mean, variance float64) {
	var m, s float64
	for k, i := range src.States {
		m += src.Weights[k] * mo.Mean[i]
		s += src.Weights[k] * mo.Second[i]
	}
	return m, s - m*m
}
