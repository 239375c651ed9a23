package dist

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// lstMean estimates E[T] = −L′(0) by central difference — an oracle
// tying each LST implementation to its closed-form mean.
func lstMean(d Distribution) float64 {
	const h = 1e-5
	lp := d.LST(complex(h, 0))
	lm := d.LST(complex(-h, 0))
	return real((lm - lp) / complex(2*h, 0))
}

func TestLSTMatchesMean(t *testing.T) {
	cases := []Distribution{
		NewExponential(2),
		NewDeterministic(1.5),
		NewUniform(0.5, 3),
		NewErlang(4, 2),
		NewGamma(2.5, 1.2),
		NewWeibull(1.7, 0.8),
		NewPareto(2.5, 1),
		NewLogNormal(-0.5, 0.6),
		NewMixture([]float64{0.3, 0.7}, []Distribution{NewExponential(1), NewErlang(2, 3)}),
		NewConvolution(NewExponential(2), NewDeterministic(1)),
		NewShifted(2, NewExponential(1)),
	}
	for _, d := range cases {
		if got, want := lstMean(d), d.Mean(); math.Abs(got-want) > 1e-3*math.Max(1, want) {
			t.Errorf("%s: −L′(0) = %v, Mean() = %v", d, got, want)
		}
		if got := d.LST(0); cmplx.Abs(got-1) > 1e-9 {
			t.Errorf("%s: L(0) = %v, want 1", d, got)
		}
	}
}

// TestHeavyTailLSTAgainstMonteCarlo checks the quadrature transforms of
// the families without closed forms against E[e^{−sT}] estimated by
// simulation, at complex s on an Euler-like contour.
func TestHeavyTailLSTAgainstMonteCarlo(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	points := []complex128{0.5, 2, complex(1, 3), complex(0.25, -1.5)}
	for _, d := range []Distribution{
		NewPareto(2.2, 0.05),
		NewPareto(0.8, 0.5), // infinite mean: the v^{α−1} substitution is singular at 0
		NewLogNormal(-1.2, 0.6),
		NewWeibull(2.1, 1.3),
	} {
		const n = 400000
		est := make([]complex128, len(points))
		for i := 0; i < n; i++ {
			x := d.Sample(r)
			for k, s := range points {
				est[k] += cmplx.Exp(-s * complex(x, 0))
			}
		}
		for k, s := range points {
			mc := est[k] / complex(n, 0)
			got := d.LST(s)
			if cmplx.Abs(got-mc) > 0.01 {
				t.Errorf("%s at s=%v: LST %v vs Monte Carlo %v", d, s, got, mc)
			}
		}
	}
}

func TestSampleMoments(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, d := range []Distribution{
		NewGamma(0.7, 2), // exercises the shape<1 boost
		NewErlang(3, 4),
		NewUniform(1, 2),
		NewMixture([]float64{0.8, 0.2}, []Distribution{NewUniform(1.5, 10), NewErlang(0.001, 5)}),
	} {
		const n = 200000
		var sum, sq float64
		for i := 0; i < n; i++ {
			x := d.Sample(r)
			sum += x
			sq += x * x
		}
		mean := sum / n
		if want := d.Mean(); math.Abs(mean-want) > 0.02*math.Max(1, want) {
			t.Errorf("%s: sample mean %v, want %v", d, mean, want)
		}
		if v, ok := d.(Varer); ok {
			varGot := sq/n - mean*mean
			if want := v.Variance(); math.Abs(varGot-want) > 0.05*math.Max(1, want) {
				t.Errorf("%s: sample variance %v, want %v", d, varGot, want)
			}
		}
	}
}

// TestShiftedHasNoVariance pins the deliberate contract hole the moment
// pipeline relies on (see passage.PassageMoments).
func TestShiftedHasNoVariance(t *testing.T) {
	var d Distribution = NewShifted(1, NewExponential(1))
	if _, ok := d.(Varer); ok {
		t.Error("Shifted implements Varer; PassageMoments' rejection test depends on it not doing so")
	}
}

func TestConstructorValidation(t *testing.T) {
	cases := map[string]func(){
		"exp rate 0":         func() { NewExponential(0) },
		"negative det":       func() { NewDeterministic(-1) },
		"inverted uniform":   func() { NewUniform(3, 2) },
		"erlang zero phases": func() { NewErlang(1, 0) },
		"pareto index 0":     func() { NewPareto(0, 1) },
		"lognormal sigma 0":  func() { NewLogNormal(0, 0) },
		"weibull shape 0":    func() { NewWeibull(0, 1) },
		"gamma rate NaN":     func() { NewGamma(1, math.NaN()) },
		"mixture bad sum":    func() { NewMixture([]float64{0.5, 0.2}, []Distribution{NewExponential(1), NewExponential(2)}) },
		"empty convolution":  func() { NewConvolution() },
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", name)
				}
			}()
			build()
		})
	}
}

// TestCanonicalStrings pins the interning keys: the SMP builder dedupes
// kernel distributions by String(), so equal parameters must collide
// and different parameters must not.
func TestCanonicalStrings(t *testing.T) {
	if NewExponential(5).String() != NewExponential(5).String() {
		t.Error("equal exponentials stringify differently")
	}
	if NewExponential(5).String() == NewExponential(7).String() {
		t.Error("different exponentials collide")
	}
	mix := NewMixture([]float64{0.8, 0.2}, []Distribution{NewUniform(1.5, 10), NewErlang(0.001, 5)})
	if got, want := mix.String(), "mix(0.8*uniform(1.5,10)+0.2*erlang(0.001,5))"; got != want {
		t.Errorf("mixture canonical form %q, want %q", got, want)
	}
}

func TestErlangManyPhases(t *testing.T) {
	// Past the phase-by-phase loop the LST is binary powering: it must
	// agree with the closed form and stay cheap at 10¹² phases.
	for _, k := range []int{65, 1000, 123457} {
		e := NewErlang(3, k)
		s := complex(0.7, 1.3)
		want := cmplx.Pow(3/(3+s), complex(float64(k), 0))
		if got := e.LST(s); cmplx.Abs(got-want) > 1e-12*math.Max(1, cmplx.Abs(want)) {
			t.Errorf("k=%d: LST = %v, want %v", k, got, want)
		}
	}
	huge := NewErlang(1, 1_000_000_000_000)
	if v := huge.LST(1e-12); !(real(v) > 0 && real(v) < 1) {
		t.Errorf("LST at s = 1e-12 = %v, want e^{-1}-ish", v)
	}
	r := rand.New(rand.NewSource(3))
	if x := huge.Sample(r); math.Abs(x/1e12-1) > 1e-3 {
		t.Errorf("sample %g, want ≈ 1e12 (mean, relative spread 1e-6)", x)
	}
}
