package passage

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hydra/internal/dist"
	"hydra/internal/petri"
	"hydra/internal/smp"
	"hydra/internal/voting"
)

func TestMomentsHypoexponential(t *testing.T) {
	// 0 →exp(2) 1 →exp(5) 2: E[T] = 1/2 + 1/5, Var = 1/4 + 1/25.
	b := smp.NewBuilder(3)
	b.Add(0, 1, 1, dist.NewExponential(2))
	b.Add(1, 2, 1, dist.NewExponential(5))
	b.Add(2, 0, 1, dist.NewExponential(1))
	m := mustModel(t, b)
	mo, err := PassageMoments(m, []int{2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mo.Mean[0]-0.7) > 1e-9 {
		t.Errorf("E[T_0] = %v, want 0.7", mo.Mean[0])
	}
	if math.Abs(mo.Variance(0)-0.29) > 1e-9 {
		t.Errorf("Var[T_0] = %v, want 0.29", mo.Variance(0))
	}
	// From state 1 only the exp(5) leg remains.
	if math.Abs(mo.Mean[1]-0.2) > 1e-9 || math.Abs(mo.Variance(1)-0.04) > 1e-9 {
		t.Errorf("state 1 moments = %v, %v", mo.Mean[1], mo.Variance(1))
	}
}

func TestMomentsGeometricRetries(t *testing.T) {
	// 0 retries with probability q (delay uniform(0,2), mean 1,
	// var 1/3), succeeds with probability p=1−q into 1.
	// N ~ Geometric: E[T] = E[N]·1 with E[N]=1/p; second moment via the
	// compound sum: E[T²] = E[N]·E[τ²] + E[N(N−1)]·E[τ]².
	q := 0.75
	p := 1 - q
	b := smp.NewBuilder(2)
	b.Add(0, 0, q, dist.NewUniform(0, 2))
	b.Add(0, 1, p, dist.NewUniform(0, 2))
	b.Add(1, 0, 1, dist.NewExponential(1))
	m := mustModel(t, b)
	mo, err := PassageMoments(m, []int{1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	en := 1 / p
	enn1 := 2 * q / (p * p) // E[N(N−1)] for geometric(N≥1)
	etau2 := 1.0/3 + 1      // E[τ²] = Var + mean²
	wantMean := en * 1
	wantSecond := en*etau2 + enn1*1
	if math.Abs(mo.Mean[0]-wantMean) > 1e-8 {
		t.Errorf("mean = %v, want %v", mo.Mean[0], wantMean)
	}
	if math.Abs(mo.Second[0]-wantSecond) > 1e-7 {
		t.Errorf("second = %v, want %v", mo.Second[0], wantSecond)
	}
}

func TestMomentsMatchSimulatedMoments(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	m := randomSMP(r, 9)
	mo, err := PassageMoments(m, []int{7}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Monte-Carlo oracle.
	const reps = 40000
	var sum, sum2 float64
	for rep := 0; rep < reps; rep++ {
		state := 2
		var elapsed float64
		for hop := 0; ; hop++ {
			if hop > 1<<20 {
				t.Fatal("walk did not terminate")
			}
			// Sample next term.
			u := r.Float64()
			var acc float64
			var chosen smp.Term
			m.Terms(state, func(tm smp.Term) {
				if u >= acc && u < acc+tm.Prob {
					chosen = tm
				}
				acc += tm.Prob
			})
			if chosen.Dist == nil {
				// rounding tail: take last
				m.Terms(state, func(tm smp.Term) { chosen = tm })
			}
			elapsed += chosen.Dist.Sample(r)
			state = chosen.To
			if state == 7 {
				break
			}
		}
		sum += elapsed
		sum2 += elapsed * elapsed
	}
	simMean := sum / reps
	simVar := sum2/reps - simMean*simMean
	if math.Abs(mo.Mean[2]-simMean) > 0.05*simMean {
		t.Errorf("mean %v vs simulated %v", mo.Mean[2], simMean)
	}
	if math.Abs(mo.Variance(2)-simVar) > 0.1*simVar {
		t.Errorf("variance %v vs simulated %v", mo.Variance(2), simVar)
	}
}

func TestMomentsCycleTime(t *testing.T) {
	// Cycle 0→1→0, exp(a) and exp(b): cycle time mean 1/a+1/b even with
	// source == target (leading-U convention).
	m := twoCycle(t, 2, 4)
	mo, err := PassageMoments(m, []int{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mo.Mean[0]-0.75) > 1e-9 {
		t.Errorf("cycle mean = %v, want 0.75", mo.Mean[0])
	}
	if math.Abs(mo.Variance(0)-(0.25+1.0/16)) > 1e-9 {
		t.Errorf("cycle var = %v, want %v", mo.Variance(0), 0.25+1.0/16)
	}
}

func TestMomentsConsistentWithDensityIntegration(t *testing.T) {
	// Integrate t·f(t) from the transform pipeline and compare with the
	// exact mean — ties the two independent paths together.
	b := smp.NewBuilder(3)
	b.Add(0, 1, 0.5, dist.NewUniform(0.5, 1.5))
	b.Add(0, 2, 0.5, dist.NewErlang(2, 2))
	b.Add(1, 2, 1, dist.NewExponential(3))
	b.Add(2, 0, 1, dist.NewExponential(1))
	m := mustModel(t, b)
	mo, err := PassageMoments(m, []int{2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// E[T_0] = 0.5·(1 + 1/3) + 0.5·1 = 2/3 + 1/2? compute directly:
	want := 0.5*(1.0+1.0/3) + 0.5*1.0
	if math.Abs(mo.Mean[0]-want) > 1e-9 {
		t.Fatalf("exact mean = %v, want %v", mo.Mean[0], want)
	}
	sv := NewSolver(m, Options{})
	var mean float64
	// Trapezoid over a fine grid far into the tail.
	const nGrid = 300
	dt := 8.0 / nGrid
	for i := 1; i <= nGrid; i++ {
		tt := float64(i) * dt
		// Use the derivative-free route: invert density pointwise.
		_ = tt
	}
	// Numerically integrate using the inversion in one batch.
	ts := make([]float64, nGrid)
	for i := range ts {
		ts[i] = dt * float64(i+1)
	}
	inv := newTestEuler()
	pts := inv.Points(ts)
	vals := make([]complex128, len(pts))
	for i, s := range pts {
		v, err := sv.DirectDenseLST(s, SingleSource(0), []int{2})
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
		mean += tt * f[i] * dt
	}
	if math.Abs(mean-mo.Mean[0]) > 0.01 {
		t.Errorf("integrated mean %v vs exact %v", mean, mo.Mean[0])
	}
}

func TestMomentsRejectsUnknownVariance(t *testing.T) {
	b := smp.NewBuilder(2)
	b.Add(0, 1, 1, dist.NewShifted(1, dist.NewExponential(1))) // Shifted has no Varer
	b.Add(1, 0, 1, dist.NewExponential(1))
	m := mustModel(t, b)
	if _, err := PassageMoments(m, []int{1}, Options{}); err == nil {
		t.Error("accepted distribution without second moment")
	}
}

func TestWeightedMoments(t *testing.T) {
	m := twoCycle(t, 2, 4)
	mo, err := PassageMoments(m, []int{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := SourceWeights{States: []int{0, 1}, Weights: []float64{0.5, 0.5}}
	mean, variance := mo.WeightedMoments(src)
	wantMean := 0.5*mo.Mean[0] + 0.5*mo.Mean[1]
	if math.Abs(mean-wantMean) > 1e-12 {
		t.Errorf("weighted mean %v, want %v", mean, wantMean)
	}
	if variance < 0 {
		t.Errorf("negative mixture variance %v", variance)
	}
}

// twoPassMoments is the moment solve as two Gauss–Seidel iterations, the
// first moments to convergence and then the second moments over them:
// the reference the joint sweep of PassageMoments must reproduce.
func twoPassMoments(m *smp.Model, targets []int, opts Options) (*Moments, error) {
	opts = opts.withDefaults()
	n := m.N()
	inTarget := make([]bool, n)
	for _, t := range targets {
		inTarget[t] = true
	}
	m1, m2 := make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		m.Terms(i, func(t smp.Term) {
			mean := t.Dist.Mean()
			m1[i] += t.Prob * mean
			m2[i] += t.Prob * (t.Dist.(dist.Varer).Variance() + mean*mean)
		})
	}
	solve := func(update func(i int) float64, x []float64) error {
		for iter := 0; iter < opts.GSMaxIter; iter++ {
			var worst, l1 float64
			for i := 0; i < n; i++ {
				next := update(i)
				worst = math.Max(worst, math.Abs(next-x[i]))
				x[i] = next
			}
			for _, v := range x {
				l1 += math.Abs(v)
			}
			if worst < opts.GSEpsilon*(1+l1/float64(n)) {
				return nil
			}
		}
		return ErrNoConvergence
	}
	mean, second := make([]float64, n), make([]float64, n)
	if err := solve(func(i int) float64 {
		sum := m1[i]
		m.Terms(i, func(t smp.Term) {
			if !inTarget[t.To] {
				sum += t.Prob * mean[t.To]
			}
		})
		return sum
	}, mean); err != nil {
		return nil, err
	}
	if err := solve(func(i int) float64 {
		sum := m2[i]
		m.Terms(i, func(t smp.Term) {
			if !inTarget[t.To] {
				sum += 2*t.Prob*t.Dist.Mean()*mean[t.To] + t.Prob*second[t.To]
			}
		})
		return sum
	}, second); err != nil {
		return nil, err
	}
	return &Moments{Mean: mean, Second: second}, nil
}

// checkJointMatchesTwoPass compares PassageMoments with twoPassMoments
// and returns the largest relative differences of the two moments.
func checkJointMatchesTwoPass(t *testing.T, name string, m *smp.Model, targets []int) (worstM, worstS float64) {
	t.Helper()
	got, err := PassageMoments(m, targets, Options{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := twoPassMoments(m, targets, Options{})
	if err != nil {
		t.Fatalf("%s: two-pass: %v", name, err)
	}
	for i := range want.Mean {
		worstM = math.Max(worstM, math.Abs(got.Mean[i]-want.Mean[i])/math.Abs(want.Mean[i]))
		worstS = math.Max(worstS, math.Abs(got.Second[i]-want.Second[i])/math.Abs(want.Second[i]))
	}
	if !(worstM <= 1e-9 && worstS <= 1e-9) {
		t.Errorf("%s: joint sweep differs from two-pass by %.2g (mean), %.2g (second moment) relative; want ≤ 1e-9", name, worstM, worstS)
	}
	return worstM, worstS
}

func TestJointMomentsMatchTwoPassRandom(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		m := randomSMP(r, 3+r.Intn(40))
		targets := []int{r.Intn(m.N())}
		if r.Intn(2) == 0 {
			targets = append(targets, r.Intn(m.N()))
		}
		checkJointMatchesTwoPass(t, fmt.Sprintf("trial %d", trial), m, targets)
	}
}

func TestJointMomentsMatchTwoPassVoting(t *testing.T) {
	systems := []int{0, 1}
	if testing.Short() {
		systems = systems[:1]
	}
	for _, sys := range systems {
		ss, err := voting.BuildSystem(sys, voting.DefaultDurations(), petri.ExploreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := voting.Table1[sys].Config
		worstM, worstS := checkJointMatchesTwoPass(t, fmt.Sprintf("system %d", sys), ss.Model, voting.VotedAtLeast(ss, cfg.CC))
		t.Logf("system %d: joint − two-pass: %.2g (mean), %.2g (second moment) relative", sys, worstM, worstS)
	}
}
