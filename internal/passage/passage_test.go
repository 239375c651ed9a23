package passage

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"hydra/internal/dist"
	"hydra/internal/dtmc"
	"hydra/internal/lt"
	"hydra/internal/smp"
)

func mustModel(t *testing.T, b *smp.Builder) *smp.Model {
	t.Helper()
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// twoCycle is 0 →exp(a) 1 →exp(b) 0.
func twoCycle(t *testing.T, a, b float64) *smp.Model {
	bd := smp.NewBuilder(2)
	bd.Add(0, 1, 1, dist.NewExponential(a))
	bd.Add(1, 0, 1, dist.NewExponential(b))
	return mustModel(t, bd)
}

// scalarLST reads the column driver's passage vector through one source
// weighting: the scalar L_i⃗j⃗(s) of Eq. (10), and the depth it took.
func scalarLST(sv *Solver, s complex128, src SourceWeights, targets []int) (complex128, int, error) {
	v, r, err := sv.VectorLST(s, targets)
	if err != nil {
		return 0, r, err
	}
	return src.Dot(v), r, nil
}

func TestSingleHopPassageIsSojournLST(t *testing.T) {
	m := twoCycle(t, 2, 3)
	sv := NewSolver(m, Options{})
	s := complex128(0.7 + 1.3i)
	got, r, err := scalarLST(sv, s, SingleSource(0), []int{1})
	if err != nil {
		t.Fatal(err)
	}
	want := dist.NewExponential(2).LST(s)
	if cmplx.Abs(got-want) > 1e-12 {
		t.Errorf("L_01 = %v, want %v", got, want)
	}
	if r > 2 {
		t.Errorf("single hop took r=%d transitions to converge", r)
	}
}

func TestChainPassageIsConvolution(t *testing.T) {
	// 0 →exp(2) 1 →uniform(1,3) 2 →exp(5) 0: L_02 = exp·uniform product.
	b := smp.NewBuilder(3)
	b.Add(0, 1, 1, dist.NewExponential(2))
	b.Add(1, 2, 1, dist.NewUniform(1, 3))
	b.Add(2, 0, 1, dist.NewExponential(5))
	m := mustModel(t, b)
	sv := NewSolver(m, Options{})
	s := complex128(0.4 + 0.9i)
	got, _, err := scalarLST(sv, s, SingleSource(0), []int{2})
	if err != nil {
		t.Fatal(err)
	}
	want := dist.NewExponential(2).LST(s) * dist.NewUniform(1, 3).LST(s)
	if cmplx.Abs(got-want) > 1e-12 {
		t.Errorf("L_02 = %v, want %v", got, want)
	}
}

func TestCycleTimeUsesInitialUTerm(t *testing.T) {
	// L_00 for the 2-cycle is the LST of the full cycle — it must not be
	// reported as 0 (the reason Eq. 9 keeps the leading U).
	m := twoCycle(t, 2, 3)
	sv := NewSolver(m, Options{})
	s := complex128(0.5 + 0.2i)
	got, _, err := scalarLST(sv, s, SingleSource(0), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	want := dist.NewExponential(2).LST(s) * dist.NewExponential(3).LST(s)
	if cmplx.Abs(got-want) > 1e-12 {
		t.Errorf("L_00 = %v, want %v", got, want)
	}
}

func TestProbabilisticBranchingPassage(t *testing.T) {
	// 0 →(0.4, exp(1)) 1, 0 →(0.6, exp(1)) 2 →exp(4) 1; 1 →exp(9) 0.
	// L_01 = 0.4·e₁ + 0.6·e₁·e₄ with e_λ the exp LSTs.
	b := smp.NewBuilder(3)
	b.Add(0, 1, 0.4, dist.NewExponential(1))
	b.Add(0, 2, 0.6, dist.NewExponential(1))
	b.Add(2, 1, 1, dist.NewExponential(4))
	b.Add(1, 0, 1, dist.NewExponential(9))
	m := mustModel(t, b)
	sv := NewSolver(m, Options{})
	s := complex128(1.1 - 0.3i)
	got, _, err := scalarLST(sv, s, SingleSource(0), []int{1})
	if err != nil {
		t.Fatal(err)
	}
	e1 := dist.NewExponential(1).LST(s)
	e4 := dist.NewExponential(4).LST(s)
	want := 0.4*e1 + 0.6*e1*e4
	if cmplx.Abs(got-want) > 1e-12 {
		t.Errorf("L_01 = %v, want %v", got, want)
	}
}

// randomSMP builds a random irreducible SMP with assorted distributions.
func randomSMP(r *rand.Rand, n int) *smp.Model {
	pool := []dist.Distribution{
		dist.NewExponential(0.5 + 3*r.Float64()),
		dist.NewErlang(1+2*r.Float64(), 1+r.Intn(3)),
		dist.NewUniform(0.1, 0.1+3*r.Float64()),
		dist.NewDeterministic(0.2 + r.Float64()),
	}
	b := smp.NewBuilder(n)
	for i := 0; i < n; i++ {
		// Ring edge guarantees irreducibility; split remaining mass over
		// up to two random extra successors.
		pRing := 0.3 + 0.4*r.Float64()
		b.Add(i, (i+1)%n, pRing, pool[r.Intn(len(pool))])
		rest := 1 - pRing
		j := r.Intn(n)
		split := rest * r.Float64()
		if split > 1e-9 {
			b.Add(i, j, split, pool[r.Intn(len(pool))])
		}
		if rem := rest - split; rem > 1e-9 {
			b.Add(i, r.Intn(n), rem, pool[r.Intn(len(pool))])
		}
	}
	m, err := b.Build()
	if err != nil {
		panic(err)
	}
	return m
}

func TestIterativeMatchesDirectSolvers(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		n := 3 + r.Intn(12)
		m := randomSMP(r, n)
		sv := NewSolver(m, Options{})
		src := SingleSource(r.Intn(n))
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
		it, _, err := scalarLST(sv, s, src, targets)
		if err != nil {
			t.Fatalf("trial %d: iterative: %v", trial, err)
		}
		gs, err := sv.DirectLST(s, src, targets)
		if err != nil {
			t.Fatalf("trial %d: GS: %v", trial, err)
		}
		dn, err := sv.DirectDenseLST(s, src, targets)
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		if cmplx.Abs(it-dn) > 1e-6 {
			t.Errorf("trial %d: iterative %v vs dense %v (diff %g)", trial, it, dn, cmplx.Abs(it-dn))
		}
		if cmplx.Abs(gs-dn) > 1e-8 {
			t.Errorf("trial %d: GS %v vs dense %v (diff %g)", trial, gs, dn, cmplx.Abs(gs-dn))
		}
	}
}

func TestMultiSourceWeightingIsLinear(t *testing.T) {
	// Eq. (4): L_i⃗j⃗ = Σ α_k L_kj⃗.
	r := rand.New(rand.NewSource(33))
	m := randomSMP(r, 8)
	sv := NewSolver(m, Options{})
	src := SourceWeights{States: []int{0, 3, 5}, Weights: []float64{0.2, 0.5, 0.3}}
	targets := []int{6}
	s := complex128(0.8 + 0.6i)
	combined, _, err := scalarLST(sv, s, src, targets)
	if err != nil {
		t.Fatal(err)
	}
	var want complex128
	for k, i := range src.States {
		li, err := sv.DirectDenseLST(s, SingleSource(i), targets)
		if err != nil {
			t.Fatal(err)
		}
		want += complex(src.Weights[k], 0) * li
	}
	if cmplx.Abs(combined-want) > 1e-9 {
		t.Errorf("multi-source %v, want Σα·L = %v", combined, want)
	}
}

func TestComputeSourceWeightsMatchesEmbeddedChain(t *testing.T) {
	m := twoCycle(t, 2, 3)
	// Single source short-circuits.
	sw, err := ComputeSourceWeights(m, []int{1})
	if err != nil || len(sw.States) != 1 || sw.Weights[0] != 1 {
		t.Fatalf("single source weights = %+v, err %v", sw, err)
	}
	// Multi source: embedded chain of the 2-cycle alternates, π = (½, ½),
	// so α = (½, ½).
	sw, err = ComputeSourceWeights(m, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sw.Weights[0]-0.5) > 1e-9 || math.Abs(sw.Weights[1]-0.5) > 1e-9 {
		t.Errorf("alpha = %v, want [0.5 0.5]", sw.Weights)
	}
	pi, err := dtmc.SteadyStateGS(m.EmbeddedDTMC(), dtmc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := dtmc.Alpha(pi, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Abs(a[i]-sw.Weights[i]) > 1e-9 {
			t.Errorf("alpha[%d] = %v, want %v", i, sw.Weights[i], a[i])
		}
	}
}

func TestEndToEndHypoexponentialDensity(t *testing.T) {
	// 0 →exp(2) 1 →exp(5) 2, passage 0→2 has the hypoexponential density
	// f(t) = λμ/(μ−λ)·(e^{−λt} − e^{−μt}); run the full pipeline: solver
	// at the inverter's s-points, then Euler inversion.
	b := smp.NewBuilder(3)
	b.Add(0, 1, 1, dist.NewExponential(2))
	b.Add(1, 2, 1, dist.NewExponential(5))
	b.Add(2, 0, 1, dist.NewExponential(1))
	m := mustModel(t, b)
	sv := NewSolver(m, Options{})
	inv := lt.DefaultEuler()
	ts := []float64{0.1, 0.3, 0.6, 1, 1.5, 2.5}
	pts := inv.Points(ts)
	vals := make([]complex128, len(pts))
	for i, s := range pts {
		v, _, err := scalarLST(sv, s, SingleSource(0), []int{2})
		if err != nil {
			t.Fatal(err)
		}
		vals[i] = v
	}
	f, err := inv.Invert(ts, vals)
	if err != nil {
		t.Fatal(err)
	}
	for i, tt := range ts {
		want := 2 * 5 / 3.0 * (math.Exp(-2*tt) - math.Exp(-5*tt))
		if math.Abs(f[i]-want) > 1e-6 {
			t.Errorf("f(%v) = %v, want %v", tt, f[i], want)
		}
	}
}

func TestTransientMatchesCTMCClosedForm(t *testing.T) {
	// For the exponential 2-cycle with rates a, b the transient is the
	// classical P(Z(t)=1 | Z(0)=0) = a/(a+b)·(1 − e^{−(a+b)t}).
	a, bb := 2.0, 3.0
	m := twoCycle(t, a, bb)
	sv := NewSolver(m, Options{})
	inv := lt.DefaultEuler()
	ts := []float64{0.05, 0.2, 0.5, 1, 2, 4}
	pts := inv.Points(ts)
	vals := make([]complex128, len(pts))
	for i, s := range pts {
		v, err := sv.TransientVectorLST(s, []int{1})
		if err != nil {
			t.Fatal(err)
		}
		vals[i] = v[0]
	}
	f, err := inv.Invert(ts, vals)
	if err != nil {
		t.Fatal(err)
	}
	for i, tt := range ts {
		want := a / (a + bb) * (1 - math.Exp(-(a+bb)*tt))
		if math.Abs(f[i]-want) > 1e-6 {
			t.Errorf("T_01(%v) = %v, want %v", tt, f[i], want)
		}
	}
}

func TestTransientMultiTargetAdditivity(t *testing.T) {
	// T*_i{j1,j2} = T*_i{j1} + T*_i{j2} for disjoint targets (Eq. 7).
	r := rand.New(rand.NewSource(55))
	m := randomSMP(r, 7)
	sv := NewSolver(m, Options{})
	s := complex128(0.9 + 1.2i)
	both, err := sv.TransientVectorLST(s, []int{4, 6})
	if err != nil {
		t.Fatal(err)
	}
	t4, err := sv.TransientVectorLST(s, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	t6, err := sv.TransientVectorLST(s, []int{6})
	if err != nil {
		t.Fatal(err)
	}
	for i := range both {
		if cmplx.Abs(both[i]-(t4[i]+t6[i])) > 1e-8 {
			t.Errorf("source %d: T(4,6) = %v, want T(4)+T(6) = %v", i, both[i], t4[i]+t6[i])
		}
	}
}

func TestTransientOfWholeStateSpaceIsOne(t *testing.T) {
	// P(Z(t) ∈ S) ≡ 1, so T*(s) = 1/s.
	r := rand.New(rand.NewSource(77))
	m := randomSMP(r, 6)
	sv := NewSolver(m, Options{})
	s := complex128(0.6 + 0.8i)
	all := []int{0, 1, 2, 3, 4, 5}
	got, err := sv.TransientVectorLST(s, all)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if cmplx.Abs(got[i]-1/s) > 1e-7 {
			t.Errorf("T*_%dS(s) = %v, want 1/s = %v", i, got[i], 1/s)
		}
	}
}

func TestIterativeNonConvergenceReported(t *testing.T) {
	// A sticky self-loop with tiny exit probability needs thousands of
	// transitions; MaxR=16 must fail loudly.
	b := smp.NewBuilder(2)
	b.Add(0, 0, 0.999, dist.NewExponential(1))
	b.Add(0, 1, 0.001, dist.NewExponential(1))
	b.Add(1, 0, 1, dist.NewExponential(1))
	m := mustModel(t, b)
	sv := NewSolver(m, Options{MaxR: 16})
	_, _, err := sv.VectorLST(0.01+0.01i, []int{1})
	if !errors.Is(err, ErrNoConvergence) {
		t.Errorf("err = %v, want ErrNoConvergence", err)
	}
}

func TestInputValidation(t *testing.T) {
	m := twoCycle(t, 1, 1)
	sv := NewSolver(m, Options{})
	if _, _, err := sv.VectorLST(1, nil); err == nil {
		t.Error("accepted empty target set")
	}
	if _, err := sv.DirectLST(1, SingleSource(9), []int{1}); err == nil {
		t.Error("accepted out-of-range source")
	}
	if _, _, err := sv.VectorLST(1, []int{7}); err == nil {
		t.Error("accepted out-of-range target")
	}
	bad := SourceWeights{States: []int{0, 1}, Weights: []float64{0.2, 0.2}}
	if _, err := sv.DirectLST(1, bad, []int{1}); err == nil {
		t.Error("accepted weights not summing to 1")
	}
	for _, s := range []complex128{0, -0.5 + 2i, complex(math.NaN(), 0)} {
		if _, err := sv.TransientVectorLST(s, []int{1}); err == nil {
			t.Errorf("accepted transient at s=%v outside Re s > 0", s)
		}
	}
	if _, err := ComputeSourceWeights(m, nil); err == nil {
		t.Error("accepted empty source set")
	}
}

func TestKernelMemoisationAcrossCalls(t *testing.T) {
	// Same s, different targets: second call must reuse the filled U and
	// still be correct (regression guard for the memo key).
	m := twoCycle(t, 2, 3)
	sv := NewSolver(m, Options{})
	s := complex128(0.4 + 0.1i)
	l01, _, err := scalarLST(sv, s, SingleSource(0), []int{1})
	if err != nil {
		t.Fatal(err)
	}
	l00, _, err := scalarLST(sv, s, SingleSource(0), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	e2 := dist.NewExponential(2).LST(s)
	e3 := dist.NewExponential(3).LST(s)
	if cmplx.Abs(l01-e2) > 1e-12 || cmplx.Abs(l00-e2*e3) > 1e-12 {
		t.Errorf("memoised kernel gave L01=%v (want %v), L00=%v (want %v)", l01, e2, l00, e2*e3)
	}
}

// paperIncrementLST is the paper's row form of Eq. (10),
//
//	L̃ = α̃U·e⃗ + α̃UU′·e⃗ + α̃UU′²·e⃗ + …,
//
// under its literal Eq. (11) stopping rule: stop at the first increment
// whose real and imaginary parts are both below eps. The solvers use the
// tail-bound rule instead (convGauge); this is the one reproduction of
// why. It returns the sum and the depth r it stopped at.
func paperIncrementLST(t *testing.T, sv *Solver, s complex128, src SourceWeights, targets []int, eps float64) (complex128, int) {
	t.Helper()
	if err := sv.prepare(s, passageQ, targets); err != nil {
		t.Fatal(err)
	}
	n := sv.m.N()
	x, acc := make([]complex128, n), make([]complex128, n)
	for k, i := range src.States {
		x[i] = complex(src.Weights[k], 0)
	}
	sv.u.VecMulSkipRows(x, acc, make([]bool, n)) // α̃U
	dot := func(v []complex128) complex128 {
		var sum complex128
		for _, j := range targets {
			sum += v[j]
		}
		return sum
	}
	total := dot(acc)
	for r := 1; r <= sv.opts.MaxR; r++ {
		sv.u.VecMulSkipRows(acc, x, sv.targets) // ·U′
		acc, x = x, acc
		inc := dot(acc)
		total += inc
		if math.Abs(real(inc)) < eps && math.Abs(imag(inc)) < eps {
			return total, r
		}
	}
	t.Fatalf("Eq. (11) rule did not stop within %d transitions", sv.opts.MaxR)
	return 0, 0
}

func TestPaperIncrementCriterionCanTruncateEarly(t *testing.T) {
	// Ablation evidence: on a passage whose first increments are zero
	// (target three hops away), the literal Eq. (11) rule stops at r=1
	// with L=0 while the tail-bound rule is exact. This motivates the
	// solvers' rule.
	b := smp.NewBuilder(4)
	b.Add(0, 1, 1, dist.NewExponential(1))
	b.Add(1, 2, 1, dist.NewExponential(1))
	b.Add(2, 3, 1, dist.NewExponential(1))
	b.Add(3, 0, 1, dist.NewExponential(1))
	m := mustModel(t, b)
	s := complex128(0.5)

	sv := NewSolver(m, Options{})
	lp, rp := paperIncrementLST(t, sv, s, SingleSource(0), []int{3}, sv.opts.Epsilon)
	lm, _, err := scalarLST(sv, s, SingleSource(0), []int{3})
	if err != nil {
		t.Fatal(err)
	}
	e := dist.NewExponential(1).LST(s)
	want := e * e * e
	if cmplx.Abs(lm-want) > 1e-12 {
		t.Errorf("tail-bound L = %v, want %v", lm, want)
	}
	if lp != 0 || rp != 1 {
		t.Errorf("expected the paper criterion to truncate at r=1 with 0, got L=%v at r=%d", lp, rp)
	}
}

// newTestEuler provides the default inverter without importing lt into
// the production code paths of this package's tests twice.
func newTestEuler() lt.Euler { return lt.DefaultEuler() }
