package passage

import (
	"math/cmplx"
	"math/rand"
	"testing"
)

// TestConjugateSymmetry checks L(s̄) = conj L(s) on every route: every
// transform here is the Laplace transform of a real function, so the
// answer at a conjugate point is the conjugate answer. The drivers never
// exploit the symmetry, so it is an independent property check of the
// column driver (passage and transient) and of the sharded session. Each
// solve is within its truncation bound of the exact value, so the two
// may differ by twice that bound (Epsilon for passage, GSEpsilon for
// transient); in practice conjugation commutes with every rounding step
// and they agree far closer.
func TestConjugateSymmetry(t *testing.T) {
	opts := Options{}.withDefaults()
	r := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 12; trial++ {
		n := 3 + r.Intn(14)
		m := randomSMP(r, n)
		targets := randomTargets(r, n)
		s := complex(0.2+2*r.Float64(), 0.1+4*r.Float64())
		conj := cmplx.Conj(s)
		check := func(route string, eps float64, at, atConj []complex128) {
			t.Helper()
			for i := range at {
				if d := cmplx.Abs(atConj[i] - cmplx.Conj(at[i])); d > 2*eps {
					t.Errorf("trial %d %s: state %d at s̄ = %v, conj at s = %v (diff %g)",
						trial, route, i, atConj[i], cmplx.Conj(at[i]), d)
				}
			}
		}

		sv := NewSolver(m, Options{})
		l, _, err := sv.VectorLST(s, targets)
		if err != nil {
			t.Fatal(err)
		}
		lc, _, err := sv.VectorLST(conj, targets)
		if err != nil {
			t.Fatal(err)
		}
		check("VectorLST", opts.Epsilon, l, lc)

		tr, err := sv.TransientVectorLST(s, targets)
		if err != nil {
			t.Fatal(err)
		}
		trc, err := sv.TransientVectorLST(conj, targets)
		if err != nil {
			t.Fatal(err)
		}
		check("TransientVectorLST", opts.GSEpsilon, tr, trc)

		sh, _, err := SolveSharded(m, Options{}, 1+r.Intn(3), targets, []complex128{s, conj})
		if err != nil {
			t.Fatal(err)
		}
		check("ShardSession.SolvePoint", opts.Epsilon, sh[0], sh[1])
	}
}
