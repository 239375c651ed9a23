package passage

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"hydra/internal/dist"
	"hydra/internal/lt"
	"hydra/internal/petri"
	"hydra/internal/smp"
	"hydra/internal/voting"
)

// ctmcRates returns each state's exit rate when m is a continuous-time
// Markov chain: every term out of a state carries an exponential sojourn
// of one shared rate. Otherwise the test fails: uniformization cannot
// express a general sojourn, which is the paper's §3 point about it.
func ctmcRates(t *testing.T, m *smp.Model) []float64 {
	t.Helper()
	rates := make([]float64, m.N())
	dists := m.Distributions()
	for i := range rates {
		_, _, did := m.TermSlices(i)
		for k, id := range did {
			e, ok := dists[id].(dist.Exponential)
			if !ok {
				t.Fatalf("state %d has sojourn %s; uniformization needs exponentials", i, dists[id])
			}
			if k > 0 && math.Abs(e.Rate-rates[i]) > 1e-12*rates[i] {
				t.Fatalf("state %d mixes rates %v and %v", i, rates[i], e.Rate)
			}
			rates[i] = e.Rate
		}
	}
	return rates
}

// uniformizedTransientLST is the uniformization oracle for
// TransientVectorLST ([Muppala–Trivedi 92], [Melamed–Yadin 84]). With
// Λ ≥ every exit rate and the uniformized chain P = I − D + D·P_emb,
// D = diag(λ_i/Λ),
//
//	P(Z(t) ∈ j⃗ | Z(0) = i) = Σ_n e^{−Λt}(Λt)ⁿ/n! · (Pⁿ·1_j⃗)_i
//
// and its transform term by term is
//
//	T*_ij⃗(s) = Σ_n Λⁿ/(s+Λ)^{n+1} · (Pⁿ·1_j⃗)_i.
//
// Each (Pⁿ·1_j⃗)_i lies in [0, 1], so the sum stops once the geometric
// tail of the coefficients is below 1e-17: far tighter than the solver
// contract it checks. It shares no code with the column driver: no
// kernel fill, no LST of any distribution, no sweep.
func uniformizedTransientLST(t *testing.T, m *smp.Model, targets []int, s complex128) []complex128 {
	t.Helper()
	rates := ctmcRates(t, m)
	var lambda float64
	for _, r := range rates {
		lambda = math.Max(lambda, r)
	}
	lambda *= 1.02 // keeps every uniformized self-loop positive
	n := m.N()
	v, next := make([]float64, n), make([]float64, n)
	for _, j := range targets {
		v[j] = 1
	}
	out := make([]complex128, n)
	q := complex(lambda, 0) / (s + complex(lambda, 0))
	c := 1 / (s + complex(lambda, 0)) // Λⁿ/(s+Λ)^{n+1}
	for iter := 0; cmplx.Abs(c)/(1-cmplx.Abs(q)) > 1e-17; iter++ {
		if iter > 1_000_000 {
			t.Fatalf("uniformization series at s=%v did not reach its tail", s)
		}
		for i, vi := range v {
			out[i] += c * complex(vi, 0)
		}
		for i := range next {
			to, prob, _ := m.TermSlices(i)
			var sum float64
			for k, j := range to {
				sum += prob[k] * v[j]
			}
			d := rates[i] / lambda
			next[i] = (1-d)*v[i] + d*sum
		}
		v, next = next, v
		c *= q
	}
	return out
}

// TestUniformizationOracleClosedForm checks the oracle itself on the
// two-state chain 0 ⇄ 1 with rates a and b, where
// P(Z(t) = 1 | Z(0) = 0) = a/(a+b)·(1 − e^{−(a+b)t}) transforms to
// a/(a+b)·(1/s − 1/(s+a+b)).
func TestUniformizationOracleClosedForm(t *testing.T) {
	a, b := 2.0, 3.0
	bd := smp.NewBuilder(2)
	bd.Add(0, 1, 1, dist.NewExponential(a))
	bd.Add(1, 0, 1, dist.NewExponential(b))
	m, err := bd.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []complex128{0.05, 1, 0.3 + 7i, 4 - 20i} {
		got := uniformizedTransientLST(t, m, []int{1}, s)[0]
		want := complex(a/(a+b), 0) * (1/s - 1/(s+complex(a+b, 0)))
		if d := cmplx.Abs(got - want); d > 1e-12*cmplx.Abs(want) {
			t.Errorf("s=%v: oracle %v, closed form %v (|Δ| %.2g)", s, got, want, d)
		}
	}
}

// TestTransientMatchesUniformization holds TransientVectorLST to the
// GSEpsilon contract against uniformization, on every state and at
// every Euler point of a few t: on an exponential-only voting net
// (system 0's 2,061 states, every transition Exp(1)) and on random
// chains whose states have different exit rates. The bound is absolute,
// as the stopping rule's is. That rule stops once its geometric estimate
// of the remaining tail is below GSEpsilon, and the observed errors sit
// just under it (up to 0.9995·GSEpsilon here), so the test allows 2x for
// the estimate's decay ratio drifting. A relative error of 1e-9 in the
// right-hand side g fails it on every model here (5–12x GSEpsilon).
func TestTransientMatchesUniformization(t *testing.T) {
	exp1 := dist.NewExponential(1)
	net, err := voting.BuildSystem(0, voting.Durations{
		Vote: exp1, Register: exp1, Think: exp1, FailPoll: exp1, FailCentre: exp1,
		RecoverPoll: exp1, RecoverCtr: exp1, RepairPoll: exp1, RepairCtr: exp1,
		WVote: 20, WRegister: 20, WThink: 2, WFailPoll: 0.6, WFailCentre: 0.42,
		WRecoverPoll: 0.3, WRecoverCtr: 0.3, WRepairPoll: 1, WRepairCtr: 1,
	}, petri.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	type model struct {
		name    string
		m       *smp.Model
		targets []int
	}
	models := []model{{"exponential voting net", net.Model, voting.VotedAtLeast(net, 5)}}
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 4; trial++ {
		n := 3 + r.Intn(20)
		b := smp.NewBuilder(n)
		for i := 0; i < n; i++ {
			d := dist.NewExponential(0.5 + 3*r.Float64())
			pRing := 0.3 + 0.4*r.Float64()
			b.Add(i, (i+1)%n, pRing, d)
			b.Add(i, r.Intn(n), 1-pRing, d)
		}
		m, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, model{"random chain", m, []int{r.Intn(n), r.Intn(n)}})
	}

	points := lt.DefaultEuler().Points([]float64{0.5, 3, 12})
	for _, c := range models {
		sv := NewSolver(c.m, Options{})
		eps := sv.opts.GSEpsilon
		var worst float64
		for _, s := range points {
			got, err := sv.TransientVectorLST(s, c.targets)
			if err != nil {
				t.Fatalf("%s at s=%v: %v", c.name, s, err)
			}
			want := uniformizedTransientLST(t, c.m, c.targets, s)
			for i := range want {
				worst = math.Max(worst, cmplx.Abs(got[i]-want[i]))
			}
		}
		t.Logf("%s (%d states): worst |TransientVectorLST − uniformization| = %.4g over %d s-points", c.name, c.m.N(), worst, len(points))
		if !(worst <= 2*eps) {
			t.Errorf("%s: TransientVectorLST is %.2g from uniformization at some state; want ≤ 2·GSEpsilon = %g", c.name, worst, 2*eps)
		}
	}
}
