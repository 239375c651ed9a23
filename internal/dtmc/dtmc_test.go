package dtmc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hydra/internal/petri"
	"hydra/internal/sparse"
	"hydra/internal/voting"
)

// chain builds a sparse stochastic matrix from dense rows.
func chain(rows [][]float64) *sparse.Matrix {
	n := len(rows)
	b := sparse.NewBuilder(n, n)
	for i, row := range rows {
		for j, v := range row {
			if v != 0 {
				b.Add(i, j, v)
			}
		}
	}
	return b.Build()
}

func vecNear(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

// powerOptions configures the power-iteration oracle.
type powerOptions struct {
	Tol     float64 // successive-iterate ∞-norm tolerance (default 1e-12)
	MaxIter int     // default 100000
	// Damping mixes the identity into the iteration:
	// π ← (1−d)·πP + d·π. It leaves the fixed point unchanged but breaks
	// periodicity; 0 disables (default 0.05).
	Damping float64
}

// steadyStatePower is the test oracle for SteadyStateGS: damped power
// iteration, which shares no code with the accelerated Gauss–Seidel
// solver.
func steadyStatePower(p *sparse.Matrix, opts powerOptions) ([]float64, error) {
	if opts.Tol == 0 {
		opts.Tol = 1e-12
	}
	if opts.MaxIter == 0 {
		opts.MaxIter = 100000
	}
	if opts.Damping == 0 {
		opts.Damping = 0.05
	}
	if err := validateStochastic(p); err != nil {
		return nil, err
	}
	if !IsIrreducible(p) {
		return nil, ErrReducible
	}
	n, _ := p.Dims()
	pi := make([]float64, n)
	next := make([]float64, n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	d := opts.Damping
	for iter := 0; iter < opts.MaxIter; iter++ {
		p.VecMul(pi, next)
		var diff, sum float64
		for i := range next {
			next[i] = (1-d)*next[i] + d*pi[i]
			sum += next[i]
		}
		// Renormalise to counter drift.
		inv := 1 / sum
		for i := range next {
			next[i] *= inv
			if delta := math.Abs(next[i] - pi[i]); delta > diff {
				diff = delta
			}
		}
		pi, next = next, pi
		if diff < opts.Tol {
			return pi, nil
		}
	}
	return nil, ErrNotConverged
}

func TestSteadyStateTwoState(t *testing.T) {
	// π = (b, a)/(a+b) for P = [[1-a, a], [b, 1-b]].
	p := chain([][]float64{{0.7, 0.3}, {0.2, 0.8}})
	want := []float64{0.4, 0.6}
	for name, solve := range map[string]func() ([]float64, error){
		"power": func() ([]float64, error) { return steadyStatePower(p, powerOptions{}) },
		"GS":    func() ([]float64, error) { return SteadyStateGS(p, Options{}) },
	} {
		pi, err := solve()
		if err != nil {
			t.Fatal(name, err)
		}
		if !vecNear(pi, want, 1e-10) {
			t.Errorf("%s: pi = %v, want %v", name, pi, want)
		}
	}
}

func TestSteadyStatePeriodicChain(t *testing.T) {
	// A 3-cycle is periodic; plain power iteration would oscillate but
	// damping must still converge to the uniform distribution, and a
	// Gauss–Seidel sweep is not affected by periodicity at all.
	p := chain([][]float64{{0, 1, 0}, {0, 0, 1}, {1, 0, 0}})
	want := []float64{1. / 3, 1. / 3, 1. / 3}
	pw, err := steadyStatePower(p, powerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gs, err := SteadyStateGS(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !vecNear(pw, want, 1e-9) || !vecNear(gs, want, 1e-12) {
		t.Errorf("power %v, GS %v, want %v", pw, gs, want)
	}
}

// randomChain is an irreducible, aperiodic chain on n states: a ring
// (irreducibility), self-loops (aperiodicity) and three random extra
// edges per row.
func randomChain(r *rand.Rand, n int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, n)
		rows[i][(i+1)%n] = 0.2
		rest := 0.8
		for k := 0; k < 3; k++ {
			j := r.Intn(n)
			v := rest * r.Float64()
			rows[i][j] += v
			rest -= v
		}
		rows[i][i] += rest
	}
	return rows
}

// nearlyDecomposable joins two random chains of n states each by moving
// probability eps of every row into the other block.
func nearlyDecomposable(r *rand.Rand, n int, eps float64) [][]float64 {
	a, b := randomChain(r, n), randomChain(r, n)
	rows := make([][]float64, 2*n)
	for i := range rows {
		rows[i] = make([]float64, 2*n)
		src, off, other := a, 0, n
		if i >= n {
			src, off, other = b, n, 0
		}
		for j, v := range src[i-off] {
			rows[i][off+j] = (1 - eps) * v
		}
		rows[i][other+r.Intn(n)] += eps
	}
	return rows
}

func TestGaussSeidelMatchesPower(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		p := chain(randomChain(r, 2+r.Intn(60)))
		pw, err := steadyStatePower(p, powerOptions{Tol: 1e-15})
		if err != nil {
			t.Fatalf("power: %v", err)
		}
		gs, err := SteadyStateGS(p, Options{})
		if err != nil {
			t.Fatalf("gs: %v", err)
		}
		if !vecNear(pw, gs, 1e-10) {
			t.Fatalf("trial %d: power %v vs GS %v", trial, pw, gs)
		}
	}
}

func TestGaussSeidelMatchesPowerNearlyDecomposable(t *testing.T) {
	// Two blocks coupled with probability 1e-3: the power iteration's
	// subdominant eigenvalue is within ~1e-3 of 1, the regime of the
	// voting models' rare failures.
	p := chain(nearlyDecomposable(rand.New(rand.NewSource(11)), 40, 1e-3))
	pw, err := steadyStatePower(p, powerOptions{Tol: 1e-16, MaxIter: 1_000_000})
	if err != nil {
		t.Fatalf("power: %v", err)
	}
	gs, err := SteadyStateGS(p, Options{})
	if err != nil {
		t.Fatalf("gs: %v", err)
	}
	if !vecNear(pw, gs, 1e-10) {
		t.Fatalf("power %v vs GS %v", pw, gs)
	}
}

// plainGSSweeps counts the sweeps unaccelerated Gauss–Seidel takes to
// meet SteadyStateGS's stopping test.
func plainGSSweeps(p *sparse.Matrix, tol float64) int {
	n, _ := p.Dims()
	op := newIncoming(p)
	pi := make([]float64, n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	for iter := 1; ; iter++ {
		diff, sum, settled := op.sweep(pi)
		if diff < tol*sum && settled {
			return iter
		}
		for i := range pi {
			pi[i] /= sum
		}
	}
}

// transposeSweep is the Gauss–Seidel pass as a closure over each row of
// Pᵀ, skipping the diagonal, with p_ii looked up separately: the
// reference the incoming operator must reproduce bit for bit.
func transposeSweep(pt *sparse.Matrix, selfLoop, pi []float64) (diff, sum float64, settled bool) {
	settled = true
	for i := range pi {
		var in float64
		pt.Row(i, func(j int, v float64) {
			if j != i {
				in += v * pi[j]
			}
		})
		denom := 1 - selfLoop[i]
		if denom <= 0 {
			denom = 1
		}
		next := in / denom
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

// TestIncomingSweepMatchesTransposeSweep holds the incoming operator's
// sweep to the transpose-and-closure sweep, bit for bit, over 200
// normalised sweeps of voting system 0's embedded chain, and on a chain
// with self-loops.
func TestIncomingSweepMatchesTransposeSweep(t *testing.T) {
	ss, err := voting.BuildSystem(0, voting.DefaultDurations(), petri.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rows := nearlyDecomposable(rand.New(rand.NewSource(5)), 60, 1e-3)
	for name, p := range map[string]*sparse.Matrix{"voting 0": ss.Model.EmbeddedDTMC(), "self-loops": chain(rows)} {
		n, _ := p.Dims()
		pt := p.Transpose()
		selfLoop := make([]float64, n)
		for i := range selfLoop {
			selfLoop[i] = p.At(i, i)
		}
		op := newIncoming(p)
		got := make([]float64, n)
		want := make([]float64, n)
		for i := range got {
			got[i] = 1 / float64(n)
			want[i] = got[i]
		}
		for sweep := 0; sweep < 200; sweep++ {
			gd, gs, gOK := op.sweep(got)
			wd, ws, wOK := transposeSweep(pt, selfLoop, want)
			if gd != wd || gs != ws || gOK != wOK {
				t.Fatalf("%s sweep %d: (diff, sum, settled) = (%v, %v, %v), reference (%v, %v, %v)", name, sweep, gd, gs, gOK, wd, ws, wOK)
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s sweep %d: π[%d] = %v, reference %v", name, sweep, i, got[i], want[i])
				}
				got[i] /= gs
				want[i] /= ws
			}
		}
	}
}

func TestAndersonCutsSweeps(t *testing.T) {
	p := chain(nearlyDecomposable(rand.New(rand.NewSource(3)), 150, 1e-4))
	plain := plainGSSweeps(p, 1e-12)
	pi, accel, err := steadyStateGS(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("plain %d sweeps, accelerated %d, residual %.2g", plain, accel, Residual(p, pi))
	if float64(accel) > 0.35*float64(plain) {
		t.Errorf("accelerated solve took %d sweeps, plain %d: want ≤ 0.35x", accel, plain)
	}
	if r := Residual(p, pi); r > 1e-11 {
		t.Errorf("residual %g", r)
	}
}

// swept fills a.g with a positive vector of mass 1 within 1% of the
// current iterate, as a sweep near convergence would.
func swept(a *anderson, seed int64) (diff, sum float64) {
	r := rand.New(rand.NewSource(seed))
	for i := range a.g {
		a.g[i] = a.x[i] / a.xSum * (1 + 0.01*r.Float64())
		sum += a.g[i]
	}
	for i := range a.g {
		a.g[i] /= sum
		if d := math.Abs(a.g[i] - a.x[i]/a.xSum); d > diff {
			diff = d
		}
	}
	return diff, 1
}

func TestAndersonDropsHistoryWhenChangeGrows(t *testing.T) {
	a := newAnderson(50, 4)
	for k := int64(1); k <= 3; k++ {
		diff, sum := swept(a, k)
		a.mix(diff/float64(k*k), sum) // shrinking changes: history builds
	}
	if a.hist != 2 {
		t.Fatalf("history holds %d columns after three shrinking sweeps, want 2", a.hist)
	}
	diff, sum := swept(a, 4)
	want := append([]float64(nil), a.g...)
	a.mix(diff, sum) // a larger change than the last one
	if a.hist != 0 {
		t.Errorf("history holds %d columns after a growing change, want 0", a.hist)
	}
	for i := range want {
		if a.x[i] != want[i] || a.g[i] != want[i] {
			t.Fatalf("entry %d: next iterate %v/%v, want the plain sweep's %v", i, a.x[i], a.g[i], want[i])
		}
	}
}

func TestAndersonNonFiniteMixFallsBack(t *testing.T) {
	a := newAnderson(50, 4)
	for k := int64(1); k <= 3; k++ {
		diff, sum := swept(a, k)
		a.mix(diff/float64(k*k), sum)
	}
	a.dG[0][7] = math.NaN() // poisons ΔG·γ but not the Gram system
	diff, sum := swept(a, 4)
	want := append([]float64(nil), a.g...)
	a.mix(diff/100, sum)
	if a.hist != 0 || a.xSum != 1 {
		t.Errorf("after a non-finite mix: %d history columns, mass %v; want 0 and 1", a.hist, a.xSum)
	}
	for i := range want {
		if a.x[i] != want[i] || a.g[i] != want[i] {
			t.Fatalf("entry %d: next iterate %v/%v, want the plain sweep's %v", i, a.x[i], a.g[i], want[i])
		}
	}
}

func TestSteadyStateResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(15)
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, n)
			rows[i][(i+1)%n] = 0.3
			left := 0.7
			j := r.Intn(n)
			rows[i][j] += left * r.Float64()
			var sum float64
			for _, v := range rows[i] {
				sum += v
			}
			rows[i][i] += 1 - sum
		}
		p := chain(rows)
		pi, err := SteadyStateGS(p, Options{})
		if err != nil {
			return false
		}
		var total float64
		for _, v := range pi {
			total += v
			if v < -1e-15 {
				return false
			}
		}
		return math.Abs(total-1) < 1e-9 && Residual(p, pi) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestReducibleChainRejected(t *testing.T) {
	// Two absorbing halves.
	p := chain([][]float64{{1, 0}, {0, 1}})
	if _, err := SteadyStateGS(p, Options{}); err != ErrReducible {
		t.Errorf("GS err = %v, want ErrReducible", err)
	}
}

func TestNonStochasticRejected(t *testing.T) {
	p := chain([][]float64{{0.5, 0.2}, {0.5, 0.5}})
	if _, err := SteadyStateGS(p, Options{}); err == nil {
		t.Error("accepted non-stochastic matrix")
	}
}

func TestSCCKnownDigraph(t *testing.T) {
	// 0↔1 one component; 2 isolated-ish (only outgoing); 3↔4.
	b := sparse.NewBuilder(5, 5)
	b.Add(0, 1, 1)
	b.Add(1, 0, 1)
	b.Add(2, 0, 1)
	b.Add(3, 4, 1)
	b.Add(4, 3, 1)
	comp, count := StronglyConnectedComponents(b.Build())
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if comp[0] != comp[1] {
		t.Error("0 and 1 must share a component")
	}
	if comp[3] != comp[4] {
		t.Error("3 and 4 must share a component")
	}
	if comp[2] == comp[0] || comp[2] == comp[3] {
		t.Error("2 must be alone")
	}
}

func TestSCCRingIsSingleComponent(t *testing.T) {
	n := 1000
	b := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, (i+1)%n, 1)
	}
	if !IsIrreducible(b.Build()) {
		t.Error("ring must be irreducible")
	}
}

func TestSCCLargeChainIterativeSafety(t *testing.T) {
	// A long path (plus back edge) exercises the iterative Tarjan: a
	// recursive version would blow the stack at this depth.
	n := 200000
	b := sparse.NewBuilder(n, n)
	for i := 0; i < n-1; i++ {
		b.Add(i, i+1, 1)
	}
	b.Add(n-1, 0, 1)
	if !IsIrreducible(b.Build()) {
		t.Error("long cycle must be one component")
	}
}

func TestAlphaWeights(t *testing.T) {
	pi := []float64{0.1, 0.2, 0.3, 0.4}
	alpha, err := Alpha(pi, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !vecNear(alpha, []float64{1. / 3, 2. / 3}, 1e-12) {
		t.Errorf("alpha = %v, want [1/3 2/3]", alpha)
	}
	if _, err := Alpha(pi, []int{9}); err == nil {
		t.Error("accepted out-of-range source")
	}
	if _, err := Alpha([]float64{0, 1}, []int{0}); err == nil {
		t.Error("accepted zero-mass source set")
	}
}

func TestRareStatesKeepRelativeAccuracy(t *testing.T) {
	// A birth–death chain with up-probability a and down-probability b
	// has π_i ∝ (a/b)^i: here the last state's probability is ~1e-146.
	// The absolute stopping test is blind to such states; the solve must
	// still get each of them right relative to itself.
	const n, a, b = 50, 0.001, 0.9
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, n)
		if i+1 < n {
			rows[i][i+1] = a
		}
		if i > 0 {
			rows[i][i-1] = b
		}
		var out float64
		for _, v := range rows[i] {
			out += v
		}
		rows[i][i] = 1 - out
	}
	pi, err := SteadyStateGS(chain(rows), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, n)
	var total float64
	for i := range want {
		want[i] = math.Pow(a/b, float64(i))
		total += want[i]
	}
	for i := range want {
		want[i] /= total
		if rel := math.Abs(pi[i]-want[i]) / want[i]; !(rel < 1e-6) {
			t.Errorf("π[%d] = %.6g, want %.6g (relative error %.2g)", i, pi[i], want[i], rel)
		}
	}
}
