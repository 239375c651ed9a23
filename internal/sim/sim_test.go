package sim

import (
	"math"
	"testing"

	"hydra/internal/dist"
	"hydra/internal/lt"
	"hydra/internal/passage"
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

func hypoChain(t *testing.T) *smp.Model {
	// 0 →exp(2) 1 →exp(5) 2 →exp(1) 0.
	b := smp.NewBuilder(3)
	b.Add(0, 1, 1, dist.NewExponential(2))
	b.Add(1, 2, 1, dist.NewExponential(5))
	b.Add(2, 0, 1, dist.NewExponential(1))
	return mustModel(t, b)
}

func TestPassageSampleMomentsMatchClosedForm(t *testing.T) {
	s := New(hypoChain(t))
	samples, err := s.PassageSamples([]int{0}, []float64{1}, []int{2},
		Options{Replications: 60000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Hypoexponential(2,5): mean 0.7, var 1/4+1/25 = 0.29.
	if m := Mean(samples); math.Abs(m-0.7) > 0.01 {
		t.Errorf("sample mean %v, want 0.7", m)
	}
	if sd := StdDev(samples); math.Abs(sd-math.Sqrt(0.29)) > 0.01 {
		t.Errorf("sample sd %v, want %v", sd, math.Sqrt(0.29))
	}
}

func TestPassageSamplesKSAgainstClosedFormCDF(t *testing.T) {
	s := New(hypoChain(t))
	samples, err := s.PassageSamples([]int{0}, []float64{1}, []int{2},
		Options{Replications: 20000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	cdf := func(tt float64) float64 {
		return 1 - (5*math.Exp(-2*tt)-2*math.Exp(-5*tt))/3
	}
	if ks := KSDistance(samples, cdf); ks > 1.95/math.Sqrt(20000) {
		t.Errorf("KS distance %v exceeds the 0.1%% critical value", ks)
	}
}

func TestCycleTimeSimulation(t *testing.T) {
	// Cycle 0→1→0 with both exp(2): cycle time from 0 back to 0 has mean
	// 1 — validates the leading-U (first transition always taken)
	// convention.
	b := smp.NewBuilder(2)
	b.Add(0, 1, 1, dist.NewExponential(2))
	b.Add(1, 0, 1, dist.NewExponential(2))
	s := New(mustModel(t, b))
	samples, err := s.PassageSamples([]int{0}, []float64{1}, []int{0},
		Options{Replications: 40000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m := Mean(samples); math.Abs(m-1) > 0.02 {
		t.Errorf("cycle mean %v, want 1", m)
	}
}

func TestTransientMatchesClosedForm(t *testing.T) {
	b := smp.NewBuilder(2)
	b.Add(0, 1, 1, dist.NewExponential(2))
	b.Add(1, 0, 1, dist.NewExponential(3))
	s := New(mustModel(t, b))
	ts := []float64{0.1, 0.3, 0.7, 1.5, 3}
	got, err := s.Transient([]int{0}, []float64{1}, []int{1}, ts,
		Options{Replications: 120000, Seed: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, tt := range ts {
		want := 2.0 / 5 * (1 - math.Exp(-5*tt))
		if math.Abs(got[i]-want) > 0.01 {
			t.Errorf("T(%v) = %v, want %v", tt, got[i], want)
		}
	}
}

func TestSimulationValidatesAnalyticPipeline(t *testing.T) {
	// The §5.3 validation loop in miniature: a mixed-distribution SMP,
	// analytic CDF by Laplace inversion vs simulated KS check.
	b := smp.NewBuilder(4)
	b.Add(0, 1, 0.6, dist.NewUniform(0.5, 1.5))
	b.Add(0, 2, 0.4, dist.NewErlang(3, 2))
	b.Add(1, 3, 1, dist.NewExponential(1.5))
	b.Add(2, 3, 1, dist.NewDeterministic(0.75))
	b.Add(3, 0, 1, dist.NewExponential(2))
	m := mustModel(t, b)

	s := New(m)
	samples, err := s.PassageSamples([]int{0}, []float64{1}, []int{3},
		Options{Replications: 30000, Seed: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	sv := passage.NewSolver(m, passage.Options{})
	inv := lt.DefaultEuler()
	ts := []float64{0.5, 1, 1.5, 2, 2.5, 3, 4}
	pts := inv.Points(ts)
	vals := make([]complex128, len(pts))
	for i, sp := range pts {
		v, err := sv.DirectDenseLST(sp, passage.SingleSource(0), []int{3})
		if err != nil {
			t.Fatal(err)
		}
		vals[i] = v / sp // CDF transform
	}
	cdf, err := inv.Invert(ts, vals)
	if err != nil {
		t.Fatal(err)
	}
	ecdf := ECDF(samples, ts)
	for i := range ts {
		if math.Abs(cdf[i]-ecdf[i]) > 0.015 {
			t.Errorf("t=%v: analytic CDF %v vs simulated %v", ts[i], cdf[i], ecdf[i])
		}
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	s := New(hypoChain(t))
	a, err := s.PassageSamples([]int{0}, []float64{1}, []int{2}, Options{Replications: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.PassageSamples([]int{0}, []float64{1}, []int{2}, Options{Replications: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs across identical seeds", i)
		}
	}
}

func TestUnreachableTargetErrors(t *testing.T) {
	// Target 2 unreachable from 0 (0 and 1 form a closed cycle).
	b := smp.NewBuilder(3)
	b.Add(0, 1, 1, dist.NewExponential(1))
	b.Add(1, 0, 1, dist.NewExponential(1))
	b.Add(2, 0, 1, dist.NewExponential(1))
	s := New(mustModel(t, b))
	_, err := s.PassageSamples([]int{0}, []float64{1}, []int{2},
		Options{Replications: 4, Seed: 1, MaxTransitions: 1000})
	if err == nil {
		t.Error("walk to unreachable target did not error")
	}
}

func TestHistogramAndQuantiles(t *testing.T) {
	// Two samples at each bin centre: 0.1, 0.3, 0.5, 0.7, 0.9 (away from
	// edges, where float rounding decides membership).
	samples := []float64{0.1, 0.1, 0.3, 0.3, 0.5, 0.5, 0.7, 0.7, 0.9, 0.9}
	h, err := NewHistogram(samples, 5, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Each bin holds 2 of 10 samples over width 0.2: density 1.0.
	for i, d := range h.Density {
		if math.Abs(d-1) > 1e-12 {
			t.Errorf("bin %d density %v, want 1", i, d)
		}
	}
	centers := h.BinCenters()
	if math.Abs(centers[0]-0.1) > 1e-12 || math.Abs(centers[4]-0.9) > 1e-12 {
		t.Errorf("bin centers %v", centers)
	}
	if q := Quantile(samples, 0.5); q != 0.5 {
		t.Errorf("median-ish quantile %v", q)
	}
	if _, err := NewHistogram(samples, 0, 0, 1); err == nil {
		t.Error("accepted zero bins")
	}
}

func TestTransientInputValidation(t *testing.T) {
	s := New(hypoChain(t))
	if _, err := s.Transient([]int{0}, []float64{1}, []int{1}, []float64{2, 1}, Options{Replications: 10}); err == nil {
		t.Error("accepted unsorted times")
	}
	if _, err := s.Transient([]int{0}, []float64{1}, []int{1}, nil, Options{Replications: 10}); err == nil {
		t.Error("accepted empty times")
	}
	if _, err := s.PassageSamples([]int{0}, []float64{0.5}, []int{1}, Options{Replications: 10}); err == nil {
		t.Error("accepted weights not summing to 1")
	}
}
