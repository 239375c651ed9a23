package passage

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"

	"hydra/internal/dist"
	"hydra/internal/smp"
)

// TestIterativeVectorMatchesPerSource is the solver-equivalence
// property the vector engine rests on: on random models, the full
// source-indexed vector from one cold column iteration agrees with a
// separate dense-elimination solve per source state.
func TestIterativeVectorMatchesPerSource(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	for trial := 0; trial < 25; trial++ {
		n := 3 + r.Intn(12)
		m := randomSMP(r, n)
		sv := NewSolver(m, Options{})
		nT := 1 + r.Intn(2)
		targets := make([]int, 0, nT)
		seen := map[int]bool{}
		for len(targets) < nT {
			k := r.Intn(n)
			if !seen[k] {
				seen[k] = true
				targets = append(targets, k)
			}
		}
		s := complex(0.2+2*r.Float64(), 4*(r.Float64()-0.5))
		vec, _, err := sv.VectorLST(s, targets)
		if err != nil {
			t.Fatalf("trial %d: vector: %v", trial, err)
		}
		if len(vec) != n {
			t.Fatalf("trial %d: vector length %d, want %d", trial, len(vec), n)
		}
		for i := 0; i < n; i++ {
			want, err := sv.DirectDenseLST(s, SingleSource(i), targets)
			if err != nil {
				t.Fatalf("trial %d source %d: dense: %v", trial, i, err)
			}
			if cmplx.Abs(vec[i]-want) > 1e-6 {
				t.Errorf("trial %d: L_%d = %v (vector) vs %v (dense), diff %g",
					trial, i, vec[i], want, cmplx.Abs(vec[i]-want))
			}
		}
	}
}

// TestNonFiniteIncrementIsAnError drives each driver left of the
// imaginary axis, where |h*(s)| > 1 and the Eq. (10) sum overflows:
// every driver must report ErrNoConvergence within a few hundred sweeps
// instead of certifying NaN after MaxR. The exported entries refuse such
// a point with ErrHalfPlane before any sweep
// (TestHalfPlaneRejectedOnEveryRoute), so the two monolithic drivers are
// called directly; the sharded conductor's rule is driven by a member
// that reports a NaN increment norm at a valid point.
func TestNonFiniteIncrementIsAnError(t *testing.T) {
	// 0 ⇄ 1 cycles with exp(1) sojourns and leaves to the target 2 with
	// probability 0.1; at s = −0.8, h*(s) = 5 and the cycle's weight per
	// round trip is 22.5.
	b := smp.NewBuilder(3)
	e := dist.NewExponential(1)
	b.Add(0, 1, 0.9, e)
	b.Add(0, 2, 0.1, e)
	b.Add(1, 0, 1, e)
	b.Add(2, 0, 1, e)
	m := mustModel(t, b)
	const bad = complex(-0.8, 0)
	targets := []int{2}
	check := func(route, sName string, r int, err error) {
		t.Helper()
		if !errors.Is(err, ErrNoConvergence) {
			t.Errorf("%s: err = %v; want ErrNoConvergence", route, err)
			return
		}
		if r > 10000 {
			t.Errorf("%s: gave up after %d sweeps; want it to stop at the first non-finite increment", route, r)
		}
		if !strings.Contains(err.Error(), "s="+sName) {
			t.Errorf("%s: error %q does not name s", route, err)
		}
	}

	sv := NewSolver(m, Options{})
	if err := sv.preparePassage(bad, targets); err != nil {
		t.Fatal(err)
	}
	_, r, err := sv.series(bad)
	check("series", "(-0.8+0i)", r, err)
	r, err = sv.refine(bad, append([]complex128(nil), sv.rhs...))
	check("warm refinement", "(-0.8+0i)", r, err)

	members := make([]ShardMember, 2)
	for i, blk := range [][2]int{{0, 2}, {2, 3}} {
		sh, err := NewShardSolver(m, blk[0], blk[1], targets)
		if err != nil {
			t.Fatal(err)
		}
		members[i] = sh
	}
	members[1] = nanNormMember{members[1]}
	ss, err := NewShardSession(3, members, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, r, err = ss.SolvePoint(1)
	check("sharded", "(1+0i)", r, err)
}

// nanNormMember is a shard member whose sweeps report a NaN increment.
type nanNormMember struct{ ShardMember }

func (m nanNormMember) Sweep(halo []complex128) ([]complex128, float64, error) {
	b, _, err := m.ShardMember.Sweep(halo)
	return b, math.NaN(), err
}

// TestHalfPlaneRejectedOnEveryRoute holds every solve outside Re s > 0
// to ErrHalfPlane, before any sweep: passage (cold and warm), transient
// and sharded, at s = 0 and at s = −3.55+11.62i. Left of the axis the
// gauge's tail bound bounds nothing — at that second point a random SMP
// once let both the cold series and the warm Gauss–Seidel "converge" to
// answers 1.76e-6 apart. A rejected point must also leave the warm seed
// usable for the next valid point.
func TestHalfPlaneRejectedOnEveryRoute(t *testing.T) {
	r := rand.New(rand.NewSource(355))
	for trial := 0; trial < 5; trial++ {
		n := 3 + r.Intn(20)
		m := randomSMP(r, n)
		targets := randomTargets(r, n)
		cold := NewSolver(m, Options{})
		warm := NewSolver(m, Options{WarmStart: true})
		if _, _, err := warm.VectorLST(complex(1, 0.5), targets); err != nil {
			t.Fatal(err)
		}
		for _, s := range []complex128{0, complex(-3.55, 11.62)} {
			routes := map[string]error{}
			_, _, routes["passage"] = cold.VectorLST(s, targets)
			_, _, routes["passage warm"] = warm.VectorLST(s, targets)
			_, routes["transient"] = cold.TransientVectorLST(s, targets)
			_, _, routes["sharded"] = SolveSharded(m, Options{}, 2, targets, []complex128{s})
			for route, err := range routes {
				if !errors.Is(err, ErrHalfPlane) {
					t.Errorf("trial %d %s at s=%v: err = %v, want ErrHalfPlane", trial, route, s, err)
				}
			}
		}
		if _, _, err := warm.VectorLST(complex(1, 0.6), targets); err != nil {
			t.Fatal(err)
		}
		if w, _ := warm.LastWarmStart(); !w {
			t.Errorf("trial %d: the point after a rejected one did not warm-start", trial)
		}
	}
}
