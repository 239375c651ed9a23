package unif

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"hydra/internal/dist"
	"hydra/internal/lt"
	"hydra/internal/passage"
	"hydra/internal/smp"
)

func mustCTMC(t *testing.T, m *smp.Model) *CTMC {
	t.Helper()
	c, err := FromSMP(m)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func twoStateCTMC(t *testing.T, a, b float64) *smp.Model {
	bd := smp.NewBuilder(2)
	bd.Add(0, 1, 1, dist.NewExponential(a))
	bd.Add(1, 0, 1, dist.NewExponential(b))
	m, err := bd.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFromSMPRejectsNonExponential(t *testing.T) {
	b := smp.NewBuilder(2)
	b.Add(0, 1, 1, dist.NewUniform(0, 1))
	b.Add(1, 0, 1, dist.NewExponential(1))
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromSMP(m); !errors.Is(err, ErrNotMarkovian) {
		t.Errorf("err = %v, want ErrNotMarkovian", err)
	}
}

func TestFromSMPRejectsMixedRates(t *testing.T) {
	b := smp.NewBuilder(3)
	b.Add(0, 1, 0.5, dist.NewExponential(1))
	b.Add(0, 2, 0.5, dist.NewExponential(2)) // different rate, same state
	b.Add(1, 0, 1, dist.NewExponential(1))
	b.Add(2, 0, 1, dist.NewExponential(1))
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromSMP(m); !errors.Is(err, ErrNotMarkovian) {
		t.Errorf("err = %v, want ErrNotMarkovian", err)
	}
}

func TestTransientClosedForm(t *testing.T) {
	a, b := 2.0, 3.0
	c := mustCTMC(t, twoStateCTMC(t, a, b))
	ts := []float64{0.05, 0.2, 0.5, 1, 2, 5}
	got, err := c.Transient([]int{0}, []float64{1}, []int{1}, ts)
	if err != nil {
		t.Fatal(err)
	}
	for i, tt := range ts {
		want := a / (a + b) * (1 - math.Exp(-(a+b)*tt))
		if math.Abs(got[i]-want) > 1e-10 {
			t.Errorf("T(%v) = %v, want %v", tt, got[i], want)
		}
	}
}

func TestPassageDensityClosedForm(t *testing.T) {
	// 0 →exp(2) 1 →exp(5) 2 (then return): passage 0→2 is
	// hypoexponential.
	b := smp.NewBuilder(3)
	b.Add(0, 1, 1, dist.NewExponential(2))
	b.Add(1, 2, 1, dist.NewExponential(5))
	b.Add(2, 0, 1, dist.NewExponential(1))
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := mustCTMC(t, m)
	ts := []float64{0.1, 0.4, 1, 2}
	f, err := c.PassageDensity([]int{0}, []float64{1}, []int{2}, ts)
	if err != nil {
		t.Fatal(err)
	}
	cdf, err := c.PassageCDF([]int{0}, []float64{1}, []int{2}, ts)
	if err != nil {
		t.Fatal(err)
	}
	for i, tt := range ts {
		wantF := 2 * 5 / 3.0 * (math.Exp(-2*tt) - math.Exp(-5*tt))
		wantC := 1 - (5*math.Exp(-2*tt)-2*math.Exp(-5*tt))/3
		if math.Abs(f[i]-wantF) > 1e-9 {
			t.Errorf("f(%v) = %v, want %v", tt, f[i], wantF)
		}
		if math.Abs(cdf[i]-wantC) > 1e-9 {
			t.Errorf("F(%v) = %v, want %v", tt, cdf[i], wantC)
		}
	}
}

func TestCycleTimePassageRejected(t *testing.T) {
	c := mustCTMC(t, twoStateCTMC(t, 1, 1))
	if _, err := c.PassageDensity([]int{0}, []float64{1}, []int{0}, []float64{1}); err == nil {
		t.Error("accepted source ∈ targets")
	}
}

// TestCrossValidatesLaplacePipeline is the headline integration check:
// on a random all-exponential SMP the uniformization baseline and the
// Laplace pipeline (dense solves for passage, the column driver for
// transient) must produce the same passage density and transient curve.
func TestCrossValidatesLaplacePipeline(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	n := 6
	b := smp.NewBuilder(n)
	for i := 0; i < n; i++ {
		rate := 0.5 + 2*r.Float64()
		d := dist.NewExponential(rate)
		pRing := 0.4 + 0.3*r.Float64()
		b.Add(i, (i+1)%n, pRing, d)
		b.Add(i, r.Intn(n), 1-pRing, d)
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := mustCTMC(t, m)
	sv := passage.NewSolver(m, passage.Options{})
	inv := lt.DefaultEuler()
	ts := []float64{0.3, 1, 2.5, 5}
	targets := []int{n - 1}

	// Laplace pipeline passage density.
	pts := inv.Points(ts)
	vals := make([]complex128, len(pts))
	for i, s := range pts {
		v, err := sv.DirectDenseLST(s, passage.SingleSource(0), targets)
		if err != nil {
			t.Fatal(err)
		}
		vals[i] = v
	}
	fLap, err := inv.Invert(ts, vals)
	if err != nil {
		t.Fatal(err)
	}
	fUni, err := c.PassageDensity([]int{0}, []float64{1}, targets, ts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ts {
		if math.Abs(fLap[i]-fUni[i]) > 5e-6 {
			t.Errorf("passage density at t=%v: laplace %v vs unif %v", ts[i], fLap[i], fUni[i])
		}
	}

	// Transient cross-check.
	for i, s := range pts {
		v, err := sv.TransientVectorLST(s, targets)
		if err != nil {
			t.Fatal(err)
		}
		vals[i] = v[0]
	}
	trLap, err := inv.Invert(ts, vals)
	if err != nil {
		t.Fatal(err)
	}
	trUni, err := c.Transient([]int{0}, []float64{1}, targets, ts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ts {
		if math.Abs(trLap[i]-trUni[i]) > 5e-6 {
			t.Errorf("transient at t=%v: laplace %v vs unif %v", ts[i], trLap[i], trUni[i])
		}
	}
}

func TestPoissonWeightsNormalised(t *testing.T) {
	for _, mu := range []float64{0.1, 1, 10, 200, 5000} {
		w := poissonWeights(mu)
		var sum float64
		for _, v := range w {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("mu=%v: Poisson weights sum to %v", mu, sum)
		}
	}
}

func TestInputValidation(t *testing.T) {
	c := mustCTMC(t, twoStateCTMC(t, 1, 2))
	if _, err := c.Transient(nil, nil, []int{0}, []float64{1}); err == nil {
		t.Error("accepted empty sources")
	}
	if _, err := c.Transient([]int{0}, []float64{0.5}, []int{1}, []float64{1}); err == nil {
		t.Error("accepted weights not summing to 1")
	}
	if _, err := c.Transient([]int{0}, []float64{1}, nil, []float64{1}); err == nil {
		t.Error("accepted empty targets")
	}
	if _, err := c.PassageDensity([]int{0}, []float64{1}, []int{5}, []float64{1}); err == nil {
		t.Error("accepted out-of-range target")
	}
}
