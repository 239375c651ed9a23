package lt

import (
	"fmt"
	"math"
)

// Laguerre is the Abate–Choudhury–Whitt (1996) Laguerre-series inversion
// algorithm with the fixed-contour modification used by the paper: the
// transform is sampled at N points on a circle once, independent of how
// many t-points are requested.
//
// The method expands f(t) = Σ_n q_n·l_n(t) with Laguerre functions
// l_n(t) = e^{−t/2}·L_n(t). The coefficient generating function is
//
//	Q(z) = Σ q_n zⁿ = (1−z)^{-1}·F((1+z)/(2(1−z)))
//
// and the q_n are recovered by an N-point trapezoidal Cauchy integral on
// the circle |z| = R < 1.
//
// Because the Laguerre functions decay like e^{−t/2} only for moderate t,
// a time-scale c and damping σ are applied: g(u) = e^{−σu}·f(cu) is
// inverted instead, using G(s) = F((s+σ)/c)/c, and f recovered as
// f(t) = e^{σt/c}·g(t/c). TimeScale is chosen automatically from the
// largest requested t when zero.
type Laguerre struct {
	// N is the number of contour points (the paper's fixed 400).
	N int
	// Coeffs is the number of Laguerre coefficients used (≤ N/2).
	Coeffs int
	// R is the contour radius; 0 selects 10^(−10/N) giving ≈1e−10
	// aliasing error.
	R float64
	// Sigma is the damping applied before inversion (usually 0; positive
	// values help transforms with singularities close to the imaginary
	// axis).
	Sigma float64
	// TimeScale is the constant c above; 0 means auto: max(t)/45, at
	// least 1, so the scaled times stay within the well-conditioned range
	// of a 200-term Laguerre expansion.
	TimeScale float64
}

// DefaultLaguerre returns the paper's configuration: a 400-point contour,
// 200 coefficients, automatic radius and scaling.
func DefaultLaguerre() Laguerre { return Laguerre{N: 400, Coeffs: 200} }

// Name implements Inverter.
func (l Laguerre) Name() string {
	return fmt.Sprintf("laguerre(N=%d,C=%d)", l.N, l.Coeffs)
}

func (l Laguerre) radius() float64 {
	if l.R > 0 {
		return l.R
	}
	return math.Pow(10, -10/float64(l.N))
}

func (l Laguerre) scale(ts []float64) float64 {
	if l.TimeScale > 0 {
		return l.TimeScale
	}
	var tmax float64
	for _, t := range ts {
		if t > tmax {
			tmax = t
		}
	}
	c := tmax / 45
	if c < 1 {
		c = 1
	}
	return c
}

// Validate reports whether the parameters describe a usable inverter:
// N ≥ 4, 1 ≤ Coeffs ≤ N/2, a radius in [0, 1) (0 is automatic) and a
// finite damping σ ≥ 0.
func (l Laguerre) Validate() error {
	if l.N < 4 || l.Coeffs < 1 || l.Coeffs > l.N/2 {
		return fmt.Errorf("lt: invalid Laguerre parameters %+v: need N ≥ 4 and 1 ≤ Coeffs ≤ N/2", l)
	}
	if !(l.R >= 0 && l.R < 1) {
		return fmt.Errorf("lt: Laguerre contour radius %v outside [0, 1)", l.R)
	}
	if !(l.Sigma >= 0) || math.IsInf(l.Sigma, 1) {
		return fmt.Errorf("lt: Laguerre damping %v must be finite and non-negative", l.Sigma)
	}
	return nil
}

func (l Laguerre) check() {
	if err := l.Validate(); err != nil {
		panic(err.Error())
	}
}

// Points implements Inverter. The s-points are s_j = (σ + (1+z_j)/(2(1−z_j)))/c
// for the N contour points z_j = R·e^{2πij/N}; their number does not
// depend on len(ts) — the property Table 2's workload accounting relies
// on ("in the modified Laguerre case n = 400 and, crucially, is
// independent of m").
func (l Laguerre) Points(ts []float64) []complex128 {
	l.check()
	for _, t := range ts {
		if !(t > 0) {
			panic(fmt.Sprintf("lt: Laguerre inversion requires t > 0, got %v", t))
		}
	}
	r := l.radius()
	c := l.scale(ts)
	pts := make([]complex128, l.N)
	for j := 0; j < l.N; j++ {
		theta := 2 * math.Pi * float64(j) / float64(l.N)
		z := complex(r*math.Cos(theta), r*math.Sin(theta))
		su := (1 + z) / (2 * (1 - z)) // transform argument for g
		pts[j] = (su + complex(l.Sigma, 0)) / complex(c, 0)
	}
	return pts
}

// Invert implements Inverter.
func (l Laguerre) Invert(ts []float64, values []complex128) ([]float64, error) {
	l.check()
	if len(values) != l.N {
		return nil, fmt.Errorf("lt: Laguerre.Invert: %d values, want %d", len(values), l.N)
	}
	c := l.scale(ts)
	q := l.coefficients(c, values)
	out := make([]float64, len(ts))
	for i, t := range ts {
		u := t / c
		// Laguerre functions by the stable recurrence
		// l_n(u) = ((2n−1−u)·l_{n−1}(u) − (n−1)·l_{n−2}(u))/n,
		// l_0 = e^{−u/2}, l_1 = (1−u)e^{−u/2}.
		l0 := math.Exp(-u / 2)
		var sum float64
		switch {
		case l.Coeffs == 1:
			sum = q[0] * l0
		default:
			l1 := (1 - u) * l0
			sum = q[0]*l0 + q[1]*l1
			prev2, prev1 := l0, l1
			for n := 2; n < l.Coeffs; n++ {
				ln := ((2*float64(n)-1-u)*prev1 - (float64(n)-1)*prev2) / float64(n)
				sum += q[n] * ln
				prev2, prev1 = prev1, ln
			}
		}
		// Undo damping and time scaling: f(t) = e^{σu}·g(u)/c×c — the
		// 1/c was already folded into Q, so only the damping remains.
		out[i] = math.Exp(l.Sigma*u) * sum
	}
	return out, nil
}

// coefficients returns the Laguerre coefficients q_0..q_{Coeffs−1} of
// the time-scaled original from the transform values at Points:
//
//	q_n = (1/(N·Rⁿ))·Re Σ_j Q(z_j)·e^{−2πijn/N},  Q(z_j) = F_g(s(z_j))/(1 − z_j),
//
// a direct DFT (N=400, Coeffs=200 is ~80k multiplies — no FFT needed)
// whose twiddle factors e^{−2πik/N} are tabulated once and indexed by
// k = j·n mod N. Only the real part of each sum is kept.
func (l Laguerre) coefficients(c float64, values []complex128) []float64 {
	r := l.radius()
	// F_g(s) = F((s+σ)/c)/c; the caller supplied F at exactly (s+σ)/c,
	// so F_g's 1/c factor is applied here.
	qz := make([]complex128, l.N)
	twiddle := make([]complex128, l.N)
	for j := 0; j < l.N; j++ {
		theta := 2 * math.Pi * float64(j) / float64(l.N)
		cos, sin := math.Cos(theta), math.Sin(theta)
		qz[j] = values[j] / complex(c, 0) / (1 - complex(r*cos, r*sin))
		twiddle[j] = complex(cos, -sin)
	}
	q := make([]float64, l.Coeffs)
	for n := range q {
		var acc float64
		k := 0
		for j := 0; j < l.N; j++ {
			w := twiddle[k]
			acc += real(qz[j])*real(w) - imag(qz[j])*imag(w)
			if k += n; k >= l.N {
				k -= l.N
			}
		}
		q[n] = acc / (float64(l.N) * math.Pow(r, float64(n)))
	}
	return q
}

// CoefficientDecay reports max |q_n| over the last quarter of the
// coefficient range relative to the overall max — a cheap smoothness
// diagnostic. Values near 1 indicate the expansion is not converging and
// the Euler method should be used instead (the paper's guidance for
// densities with discontinuities).
func (l Laguerre) CoefficientDecay(ts []float64, values []complex128) (float64, error) {
	l.check()
	if len(values) != l.N {
		return 0, fmt.Errorf("lt: CoefficientDecay: %d values, want %d", len(values), l.N)
	}
	var maxAll, maxTail float64
	for n, qn := range l.coefficients(l.scale(ts), values) {
		qn = math.Abs(qn)
		if qn > maxAll {
			maxAll = qn
		}
		if n >= 3*l.Coeffs/4 && qn > maxTail {
			maxTail = qn
		}
	}
	if maxAll == 0 {
		return 0, nil
	}
	return maxTail / maxAll, nil
}
