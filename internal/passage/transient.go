package passage

import "fmt"

// TransientVectorLST computes the full source-indexed transient vector
// T*_·j⃗(s), the transform of P(Z(t) ∈ j⃗ | Z(0) = i), in the
// Markov-renewal form of Pyke's relations (Eq. 6–7):
//
//	T*_ij⃗(s) = 1[i∈j⃗]·(1 − h*_i(s))/s + Σ_k u_ik(s)·T*_kj⃗(s)
//
// that is, z = g + U·z with g supported on the targets. The column-form
// driver solves it in one column however many target states there are,
// warm-started from the neighbouring s-point like VectorLST, and sets
// LastSweeps to its depth. The result vector answers any source
// weighting as a dot product. The series converges only for Re s > 0,
// so points outside that half-plane are rejected (ErrHalfPlane) before
// any sweep.
func (sv *Solver) TransientVectorLST(s complex128, targets []int) ([]complex128, error) {
	if err := sv.prepare(s, transientQ, targets); err != nil {
		return nil, err
	}
	// prepare just sampled the distribution table at this s, so the
	// sojourn transforms come from the same sample without re-evaluating
	// any distribution; g overwrites them in place.
	sv.rhs = sv.m.SojournLSTsSampled(sv.lsts, sv.rhs)
	for i, isT := range sv.targets {
		if isT {
			sv.rhs[i] = (1 - sv.rhs[i]) / s
		} else {
			sv.rhs[i] = 0
		}
	}
	z, _, _, err := sv.fixedPoint(s)
	if err != nil {
		return nil, fmt.Errorf("passage: transient over %d targets: %w", len(targets), err)
	}
	return append([]complex128(nil), z...), nil
}
