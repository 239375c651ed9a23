package lt

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"hydra/internal/dist"
)

// invertDist runs an inverter end-to-end on a distribution's LST.
func invertDist(t *testing.T, inv Inverter, d dist.Distribution, ts []float64) []float64 {
	t.Helper()
	pts := inv.Points(ts)
	vals := make([]complex128, len(pts))
	for i, s := range pts {
		vals[i] = d.LST(s)
	}
	f, err := inv.Invert(ts, vals)
	if err != nil {
		t.Fatalf("%s: %v", inv.Name(), err)
	}
	return f
}

func TestEulerPointCountMatchesPaperFormula(t *testing.T) {
	// n = k·m with k = M+E+1; the paper's Table 2 run: 5 t-points, 165
	// s-point evaluations => k = 33.
	e := DefaultEuler()
	ts := []float64{1, 2, 3, 4, 5}
	pts := e.Points(ts)
	if len(pts) != 165 {
		t.Fatalf("default Euler demands %d points for 5 t-points, want 165", len(pts))
	}
	if e.PointsPerT() != 33 {
		t.Fatalf("PointsPerT = %d, want 33", e.PointsPerT())
	}
}

func TestLaguerrePointCountIndependentOfM(t *testing.T) {
	l := DefaultLaguerre()
	p1 := l.Points([]float64{1})
	p2 := l.Points([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if len(p1) != 400 || len(p2) != 400 {
		t.Fatalf("Laguerre point counts %d, %d; want 400, 400", len(p1), len(p2))
	}
}

func TestEulerInvertsExponentialDensity(t *testing.T) {
	d := dist.NewExponential(1.5)
	ts := []float64{0.1, 0.5, 1, 2, 4}
	f := invertDist(t, DefaultEuler(), d, ts)
	for i, tt := range ts {
		want := 1.5 * math.Exp(-1.5*tt)
		if math.Abs(f[i]-want) > 1e-6 {
			t.Errorf("f(%v) = %v, want %v", tt, f[i], want)
		}
	}
}

func TestLaguerreInvertsExponentialDensity(t *testing.T) {
	d := dist.NewExponential(1.5)
	ts := []float64{0.1, 0.5, 1, 2, 4}
	f := invertDist(t, DefaultLaguerre(), d, ts)
	for i, tt := range ts {
		want := 1.5 * math.Exp(-1.5*tt)
		if math.Abs(f[i]-want) > 1e-6 {
			t.Errorf("f(%v) = %v, want %v", tt, f[i], want)
		}
	}
}

func TestBothInvertErlangDensity(t *testing.T) {
	d := dist.NewErlang(2, 3) // density 4t²e^{−2t}
	ts := []float64{0.25, 0.75, 1.5, 3}
	want := func(tt float64) float64 { return 4 * tt * tt * math.Exp(-2*tt) }
	for _, inv := range []Inverter{DefaultEuler(), DefaultLaguerre()} {
		f := invertDist(t, inv, d, ts)
		for i, tt := range ts {
			if math.Abs(f[i]-want(tt)) > 1e-6 {
				t.Errorf("%s: f(%v) = %v, want %v", inv.Name(), tt, f[i], want(tt))
			}
		}
	}
}

func TestEulerInvertsUniformDensityAwayFromJumps(t *testing.T) {
	// The uniform density has jumps at 1.5 and 10 — exactly the paper's
	// "Euler must be employed" case. Near a jump the Euler error decays
	// only like O(1/M) (Gibbs), so plot-level accuracy is the right
	// expectation there; far from jumps it reaches the e^{−A} floor.
	d := dist.NewUniform(1.5, 10)
	ts := []float64{0.7, 3, 6, 9, 11}
	f := invertDist(t, DefaultEuler(), d, ts)
	wants := []float64{0, 1 / 8.5, 1 / 8.5, 1 / 8.5, 0}
	for i := range ts {
		if math.Abs(f[i]-wants[i]) > 5e-3 {
			t.Errorf("f(%v) = %v, want %v", ts[i], f[i], wants[i])
		}
	}
	// A higher-order configuration must tighten the worst-case error.
	fine := invertDist(t, Euler{A: 18.4, M: 120, E: 25}, d, ts)
	var worstDefault, worstFine float64
	for i := range ts {
		worstDefault = math.Max(worstDefault, math.Abs(f[i]-wants[i]))
		worstFine = math.Max(worstFine, math.Abs(fine[i]-wants[i]))
	}
	if worstFine > worstDefault {
		t.Errorf("M=120 worst error %v exceeds default's %v", worstFine, worstDefault)
	}
}

func TestLaguerreDegradesOnDiscontinuousDensity(t *testing.T) {
	// Confirm the paper's guidance: Laguerre's coefficient decay
	// diagnostic flags a discontinuous density, while a smooth one decays.
	l := DefaultLaguerre()
	ts := []float64{5}
	smoothPts := l.Points(ts)
	smoothVals := make([]complex128, len(smoothPts))
	jumpVals := make([]complex128, len(smoothPts))
	smooth := dist.NewErlang(1, 4)
	jump := dist.NewUniform(1.5, 10)
	for i, s := range smoothPts {
		smoothVals[i] = smooth.LST(s)
		jumpVals[i] = jump.LST(s)
	}
	ds, err := l.CoefficientDecay(ts, smoothVals)
	if err != nil {
		t.Fatal(err)
	}
	dj, err := l.CoefficientDecay(ts, jumpVals)
	if err != nil {
		t.Fatal(err)
	}
	if ds >= dj {
		t.Errorf("decay diagnostic: smooth %v should be below discontinuous %v", ds, dj)
	}
	if dj < 1e-6 {
		t.Errorf("discontinuous density decay %v suspiciously small", dj)
	}
}

func TestCDFInversionViaDivideByS(t *testing.T) {
	// Inverting L(s)/s gives the CDF — the Fig. 5 path.
	d := dist.NewExponential(0.8)
	inv := DefaultEuler()
	ts := []float64{0.5, 1, 2, 5}
	pts := inv.Points(ts)
	sampled := SampleFunc(pts, d.LST).DivideByS()
	f, err := inv.Invert(ts, sampled.Values)
	if err != nil {
		t.Fatal(err)
	}
	for i, tt := range ts {
		want := 1 - math.Exp(-0.8*tt)
		if math.Abs(f[i]-want) > 1e-6 {
			t.Errorf("CDF(%v) = %v, want %v", tt, f[i], want)
		}
	}
}

func TestEulerInvertsShiftedDensity(t *testing.T) {
	// Deterministic(2) + exp(1): density e^{−(t−2)} for t>2, 0 before —
	// a derivative discontinuity Euler should still handle.
	d := dist.NewShifted(2, dist.NewExponential(1))
	ts := []float64{1, 1.9, 2.5, 4, 8}
	f := invertDist(t, DefaultEuler(), d, ts)
	want := func(tt float64) float64 {
		if tt < 2 {
			return 0
		}
		return math.Exp(-(tt - 2))
	}
	// Tolerances widen within one time unit of the jump at t=2 (O(1/M)
	// Gibbs error) and tighten away from it.
	tols := []float64{1e-6, 5e-2, 5e-2, 5e-3, 1e-3}
	for i, tt := range ts {
		if math.Abs(f[i]-want(tt)) > tols[i] {
			t.Errorf("f(%v) = %v, want %v ± %v", tt, f[i], want(tt), tols[i])
		}
	}
}

func TestPaperT5MixtureInversionIntegratesToOne(t *testing.T) {
	// Integrate the inverted density of the paper's t5 firing distribution
	// over its (bimodal, long-tailed) support using the CDF at large t.
	d := dist.NewMixture([]float64{0.8, 0.2},
		[]dist.Distribution{dist.NewUniform(1.5, 10), dist.NewErlang(0.001, 5)})
	inv := DefaultEuler()
	ts := []float64{50000}
	pts := inv.Points(ts)
	cdf := SampleFunc(pts, d.LST).DivideByS()
	f, err := inv.Invert(ts, cdf.Values)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f[0]-1) > 1e-4 {
		t.Errorf("CDF(50000) = %v, want ≈ 1", f[0])
	}
}

func TestInvertValueCountValidation(t *testing.T) {
	e := DefaultEuler()
	if _, err := e.Invert([]float64{1}, make([]complex128, 7)); err == nil {
		t.Error("Euler.Invert accepted wrong value count")
	}
	l := DefaultLaguerre()
	if _, err := l.Invert([]float64{1}, make([]complex128, 7)); err == nil {
		t.Error("Laguerre.Invert accepted wrong value count")
	}
}

func TestPointsPanicOnNonPositiveT(t *testing.T) {
	for _, inv := range []Inverter{DefaultEuler(), DefaultLaguerre()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Points accepted t=0", inv.Name())
				}
			}()
			inv.Points([]float64{0})
		}()
	}
}

func TestSampledMixtureMatchesDistMixture(t *testing.T) {
	// Pointwise AddScaled over sampled transforms == sampling the mixture.
	u := dist.NewUniform(1.5, 10)
	er := dist.NewErlang(0.001, 5)
	mix := dist.NewMixture([]float64{0.8, 0.2}, []dist.Distribution{u, er})
	pts := DefaultEuler().Points([]float64{1, 10, 100})
	su := SampleFunc(pts, u.LST)
	se := SampleFunc(pts, er.LST)
	composed := NewSampled(pts).AddScaled(0.8, su).AddScaled(0.2, se)
	direct := SampleFunc(pts, mix.LST)
	for i := range pts {
		if diff := composed.Values[i] - direct.Values[i]; math.Hypot(real(diff), imag(diff)) > 1e-12 {
			t.Fatalf("point %d: composed %v != direct %v", i, composed.Values[i], direct.Values[i])
		}
	}
}

func TestSampledConvolutionMatchesDistConvolution(t *testing.T) {
	a := dist.NewExponential(1)
	b := dist.NewUniform(0, 2)
	conv := dist.NewConvolution(a, b)
	pts := DefaultEuler().Points([]float64{0.5, 2})
	composed := SampleFunc(pts, a.LST).Mul(SampleFunc(pts, b.LST))
	direct := SampleFunc(pts, conv.LST)
	for i := range pts {
		if diff := composed.Values[i] - direct.Values[i]; math.Hypot(real(diff), imag(diff)) > 1e-12 {
			t.Fatalf("point %d: composed %v != direct %v", i, composed.Values[i], direct.Values[i])
		}
	}
}

func TestSampledConstantSpaceUnderComposition(t *testing.T) {
	// The §4 claim: storage is identical before and after arbitrary
	// composition depth.
	pts := DefaultEuler().Points([]float64{1})
	s := SampleFunc(pts, dist.NewExponential(1).LST)
	size := len(s.Values)
	for i := 0; i < 50; i++ {
		s.Mul(SampleFunc(pts, dist.NewUniform(0, 1).LST))
		s.AddScaled(0.5, SampleFunc(pts, dist.NewErlang(2, 2).LST))
		s.Scale(0.5)
	}
	if len(s.Values) != size || len(s.Points) != len(pts) {
		t.Fatalf("representation grew: %d values (was %d)", len(s.Values), size)
	}
}

func TestQuickSampledAlgebra(t *testing.T) {
	// (a+b)·c == a·c + b·c pointwise, for random sampled vectors.
	pts := DefaultEuler().Points([]float64{1})
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ra := SampleFunc(pts, func(complex128) complex128 {
			return complex(r.NormFloat64(), r.NormFloat64())
		})
		rb := SampleFunc(pts, func(complex128) complex128 {
			return complex(r.NormFloat64(), r.NormFloat64())
		})
		rc := SampleFunc(pts, func(complex128) complex128 {
			return complex(r.NormFloat64(), r.NormFloat64())
		})
		left := ra.Clone().AddScaled(1, rb).Mul(rc)
		right := ra.Clone().Mul(rc).AddScaled(1, rb.Clone().Mul(rc))
		for i := range left.Values {
			if d := left.Values[i] - right.Values[i]; math.Hypot(real(d), imag(d)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestEulerAccuracyImprovesWithLargerM(t *testing.T) {
	d := dist.NewErlang(3, 2)
	tt := []float64{1.2}
	want := 9 * 1.2 * math.Exp(-3*1.2)
	coarse := Euler{A: 18.4, M: 8, E: 5}
	fine := Euler{A: 18.4, M: 40, E: 11}
	fc := invertDist(t, coarse, d, tt)
	ff := invertDist(t, fine, d, tt)
	errC := math.Abs(fc[0] - want)
	errF := math.Abs(ff[0] - want)
	if errF > errC {
		t.Errorf("finer Euler worse: coarse err %v, fine err %v", errC, errF)
	}
	if errF > 1e-8 {
		t.Errorf("fine Euler err %v, want < 1e-8", errF)
	}
}

func TestLaguerreAutoScaleHandlesLargeTimes(t *testing.T) {
	// Times around 300–450 (the Fig. 4 range) need the automatic time
	// scaling; without it the expansion would be useless there.
	d := dist.NewGamma(80, 0.25) // mean 320, sd ≈ 36 — Fig. 4-like shape
	ts := []float64{250, 320, 400}
	f := invertDist(t, DefaultLaguerre(), d, ts)
	// Compare against Euler, which is scale-free.
	g := invertDist(t, DefaultEuler(), d, ts)
	for i := range ts {
		if math.Abs(f[i]-g[i]) > 1e-5 {
			t.Errorf("t=%v: laguerre %v vs euler %v", ts[i], f[i], g[i])
		}
		if f[i] < 0 || f[i] > 0.02 {
			t.Errorf("t=%v: density %v outside plausible range", ts[i], f[i])
		}
	}
}

// eulerInvertPerT is Euler.Invert as it stood with a partial-sum slice
// allocated per t-point: the reference for the one-buffer version.
func eulerInvertPerT(e Euler, ts []float64, values []complex128) []float64 {
	per := e.PointsPerT()
	out := make([]float64, len(ts))
	binom := binomials(e.E)
	for i, t := range ts {
		vals := values[i*per : (i+1)*per]
		scale := math.Exp(e.A/2) / (2 * t)
		partial := scale * real(vals[0])
		sums := make([]float64, e.M+e.E+1)
		sums[0] = partial
		sign := -1.0
		for k := 1; k <= e.M+e.E; k++ {
			partial += 2 * scale * sign * real(vals[k])
			sums[k] = partial
			sign = -sign
		}
		var acc float64
		for j := 0; j <= e.E; j++ {
			acc += binom[j] * sums[e.M+j]
		}
		out[i] = acc / math.Exp2(float64(e.E))
	}
	return out
}

// laguerreInvertExp is Laguerre.Invert with one cmplx.Exp per DFT term:
// the reference for the tabulated twiddle factors.
func laguerreInvertExp(l Laguerre, ts []float64, values []complex128) []float64 {
	r := l.radius()
	c := l.scale(ts)
	qz := make([]complex128, l.N)
	for j := 0; j < l.N; j++ {
		theta := 2 * math.Pi * float64(j) / float64(l.N)
		z := complex(r*math.Cos(theta), r*math.Sin(theta))
		qz[j] = values[j] / complex(c, 0) / (1 - z)
	}
	q := make([]float64, l.Coeffs)
	for n := 0; n < l.Coeffs; n++ {
		var acc complex128
		for j := 0; j < l.N; j++ {
			theta := -2 * math.Pi * float64(j) * float64(n) / float64(l.N)
			acc += qz[j] * cmplx.Exp(complex(0, theta))
		}
		q[n] = real(acc) / (float64(l.N) * math.Pow(r, float64(n)))
	}
	out := make([]float64, len(ts))
	for i, t := range ts {
		u := t / c
		l0 := math.Exp(-u / 2)
		l1 := (1 - u) * l0
		sum := q[0]*l0 + q[1]*l1
		prev2, prev1 := l0, l1
		for n := 2; n < l.Coeffs; n++ {
			ln := ((2*float64(n)-1-u)*prev1 - (float64(n)-1)*prev2) / float64(n)
			sum += q[n] * ln
			prev2, prev1 = prev1, ln
		}
		out[i] = math.Exp(l.Sigma*u) * sum
	}
	return out
}

// TestInvertMatchesReferenceFormulas holds both inverters to their
// direct formulas. Euler's one partial-sum buffer must reproduce the
// per-t slices bit for bit. Laguerre's tabulated twiddle factors differ
// from one cmplx.Exp per DFT term by that formula's own rounding: its
// angle −2πjn/N reaches ~1,250 rad, so the rounded argument is off by
// ~1e-13, and the 1/Rⁿ factor (1e5 at n = 200) carries that into f at
// ~1e-10. So Laguerre must agree with the reference to 1e-9 of the
// largest value and be no farther from the closed form than it is.
func TestInvertMatchesReferenceFormulas(t *testing.T) {
	d := dist.NewErlang(3, 2)
	ts := []float64{0.1, 0.4, 1, 1.7, 3, 5}
	density := func(t float64) float64 { return 9 * t * math.Exp(-3*t) }
	cdf := func(t float64) float64 { return 1 - math.Exp(-3*t)*(1+3*t) }
	cdfLST := func(s complex128) complex128 { return d.LST(s) / s }
	eulerCDF := Euler{A: 20, M: 30, E: 14}
	damped := Laguerre{N: 400, Coeffs: 200, Sigma: 0.5, TimeScale: 1}
	cases := []struct {
		name  string
		inv   Inverter
		lst   func(complex128) complex128
		exact func(float64) float64
	}{
		{"euler density", DefaultEuler(), d.LST, density},
		{"euler cdf", eulerCDF, cdfLST, cdf},
		{"laguerre density", DefaultLaguerre(), d.LST, density},
		{"laguerre damped cdf", damped, cdfLST, cdf},
	}
	for _, tc := range cases {
		pts := tc.inv.Points(ts)
		vals := make([]complex128, len(pts))
		for i, s := range pts {
			vals[i] = tc.lst(s)
		}
		got, err := tc.inv.Invert(ts, vals)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		switch inv := tc.inv.(type) {
		case Euler:
			want := eulerInvertPerT(inv, ts, vals)
			for i := range ts {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Errorf("%s: f(%v) = %.17g, reference %.17g", tc.name, ts[i], got[i], want[i])
				}
			}
		case Laguerre:
			want := laguerreInvertExp(inv, ts, vals)
			var scale, errGot, errWant float64
			for i, tt := range ts {
				scale = math.Max(scale, math.Abs(want[i]))
				errGot = math.Max(errGot, math.Abs(got[i]-tc.exact(tt)))
				errWant = math.Max(errWant, math.Abs(want[i]-tc.exact(tt)))
			}
			for i := range ts {
				if d := math.Abs(got[i] - want[i]); d > 1e-9*scale {
					t.Errorf("%s: f(%v) = %.17g, reference %.17g (|Δ|/max %.2g)", tc.name, ts[i], got[i], want[i], d/scale)
				}
			}
			t.Logf("%s: max error against the closed form %.2g, reference formula %.2g", tc.name, errGot, errWant)
			if errGot > errWant {
				t.Errorf("%s: tabulated twiddles are farther from the closed form (%.2g) than cmplx.Exp (%.2g)", tc.name, errGot, errWant)
			}
		}
	}
}
