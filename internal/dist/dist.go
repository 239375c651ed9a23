// Package dist provides the sojourn-time distributions of the
// semi-Markov kernel: each carries its Laplace–Stieltjes transform (the
// representation the analytic pipeline consumes), its mean, and a
// sampler (the representation the simulator consumes). Distributions
// are immutable values; their String form is the canonical key the SMP
// builder interns on, so two distributions with equal parameters always
// share one kernel slot.
//
// Closed-form transforms are used wherever they exist (exponential,
// Erlang, gamma, deterministic, uniform and their mixtures, convolutions
// and shifts); the heavy-tailed families of §5 — Pareto, log-normal and
// Weibull — evaluate their transforms by deterministic quadrature on a
// substitution that makes the integrand smooth.
package dist

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
)

// Distribution is a non-negative sojourn-time distribution.
type Distribution interface {
	// LST returns the Laplace–Stieltjes transform E[e^{−sT}].
	LST(s complex128) complex128
	// Mean returns E[T].
	Mean() float64
	// Sample draws one variate using the supplied source.
	Sample(r *rand.Rand) float64
	// String is the canonical parameterisation, used for interning.
	String() string
}

// Varer is implemented by distributions with a known variance; the
// moment pipeline requires it for second moments.
type Varer interface {
	Variance() float64
}

func check(ok bool, format string, args ...any) {
	if !ok {
		panic("dist: " + fmt.Sprintf(format, args...))
	}
}

// Exponential is the rate-λ exponential distribution.
type Exponential struct {
	Rate float64
}

// NewExponential returns an exponential distribution with rate > 0.
func NewExponential(rate float64) Exponential {
	check(rate > 0 && !math.IsInf(rate, 1), "exponential rate %v must be positive and finite", rate)
	return Exponential{Rate: rate}
}

// LST implements Distribution: λ/(λ+s).
func (e Exponential) LST(s complex128) complex128 {
	return complex(e.Rate, 0) / (complex(e.Rate, 0) + s)
}

// Mean implements Distribution.
func (e Exponential) Mean() float64 { return 1 / e.Rate }

// Variance implements Varer.
func (e Exponential) Variance() float64 { return 1 / (e.Rate * e.Rate) }

// Sample implements Distribution.
func (e Exponential) Sample(r *rand.Rand) float64 { return r.ExpFloat64() / e.Rate }

// String implements Distribution.
func (e Exponential) String() string { return fmt.Sprintf("exp(%g)", e.Rate) }

// Deterministic is the unit mass at D (D = 0 is the immediate
// distribution).
type Deterministic struct {
	D float64
}

// NewDeterministic returns the point mass at d ≥ 0.
func NewDeterministic(d float64) Deterministic {
	check(d >= 0 && !math.IsNaN(d) && !math.IsInf(d, 1), "deterministic delay %v must be finite and non-negative", d)
	return Deterministic{D: d}
}

// LST implements Distribution: e^{−sd}.
func (d Deterministic) LST(s complex128) complex128 {
	if d.D == 0 {
		return 1
	}
	return cmplx.Exp(-s * complex(d.D, 0))
}

// Mean implements Distribution.
func (d Deterministic) Mean() float64 { return d.D }

// Variance implements Varer.
func (d Deterministic) Variance() float64 { return 0 }

// Sample implements Distribution.
func (d Deterministic) Sample(*rand.Rand) float64 { return d.D }

// String implements Distribution.
func (d Deterministic) String() string { return fmt.Sprintf("det(%g)", d.D) }

// Uniform is the continuous uniform distribution on [A, B].
type Uniform struct {
	A, B float64
}

// NewUniform returns the uniform distribution on [a, b], 0 ≤ a < b.
func NewUniform(a, b float64) Uniform {
	check(a >= 0 && b > a && !math.IsInf(b, 1), "uniform support [%v,%v] must satisfy 0 ≤ a < b < ∞", a, b)
	return Uniform{A: a, B: b}
}

// expm1Ratio returns (1 − e^{−z})/z, stable near z = 0.
func expm1Ratio(z complex128) complex128 {
	if cmplx.Abs(z) < 1e-6 {
		// Series: 1 − z/2 + z²/6 − z³/24.
		return 1 + z*(-1.0/2+z*(1.0/6+z*(-1.0/24)))
	}
	return (1 - cmplx.Exp(-z)) / z
}

// LST implements Distribution: (e^{−as} − e^{−bs})/((b−a)s).
func (u Uniform) LST(s complex128) complex128 {
	w := complex(u.B-u.A, 0)
	return cmplx.Exp(-s*complex(u.A, 0)) * expm1Ratio(s*w)
}

// Mean implements Distribution.
func (u Uniform) Mean() float64 { return (u.A + u.B) / 2 }

// Variance implements Varer.
func (u Uniform) Variance() float64 { return (u.B - u.A) * (u.B - u.A) / 12 }

// Sample implements Distribution.
func (u Uniform) Sample(r *rand.Rand) float64 { return u.A + (u.B-u.A)*r.Float64() }

// String implements Distribution.
func (u Uniform) String() string { return fmt.Sprintf("uniform(%g,%g)", u.A, u.B) }

// Erlang is the k-phase Erlang distribution with rate λ per phase
// (density λ^k t^{k−1} e^{−λt}/(k−1)!).
type Erlang struct {
	Rate float64
	K    int
}

// NewErlang returns the Erlang distribution with rate > 0 and k ≥ 1
// phases.
func NewErlang(rate float64, k int) Erlang {
	check(rate > 0 && !math.IsInf(rate, 1), "erlang rate %v must be positive and finite", rate)
	check(k >= 1, "erlang phase count %d must be at least 1", k)
	return Erlang{Rate: rate, K: k}
}

// erlangPhaseLoop is the phase count up to which Erlang works phase by
// phase: its LST multiplies the phase transform K times and its Sample
// adds K exponentials. Beyond it the LST is taken by binary powering and
// the sample from the equal gamma distribution, so a model with, say,
// 10¹² phases costs O(log K) rather than hours.
const erlangPhaseLoop = 64

// LST implements Distribution: (λ/(λ+s))^k.
func (e Erlang) LST(s complex128) complex128 {
	phase := complex(e.Rate, 0) / (complex(e.Rate, 0) + s)
	v := complex128(1)
	if e.K > erlangPhaseLoop {
		for k := e.K; k > 0; k >>= 1 {
			if k&1 == 1 {
				v *= phase
			}
			phase *= phase
		}
		return v
	}
	for i := 0; i < e.K; i++ {
		v *= phase
	}
	return v
}

// Mean implements Distribution.
func (e Erlang) Mean() float64 { return float64(e.K) / e.Rate }

// Variance implements Varer.
func (e Erlang) Variance() float64 { return float64(e.K) / (e.Rate * e.Rate) }

// Sample implements Distribution.
func (e Erlang) Sample(r *rand.Rand) float64 {
	if e.K > erlangPhaseLoop {
		return NewGamma(float64(e.K), e.Rate).Sample(r)
	}
	var t float64
	for i := 0; i < e.K; i++ {
		t += r.ExpFloat64()
	}
	return t / e.Rate
}

// String implements Distribution.
func (e Erlang) String() string { return fmt.Sprintf("erlang(%g,%d)", e.Rate, e.K) }

// Gamma is the gamma distribution with shape α and rate λ (mean α/λ).
type Gamma struct {
	Shape, Rate float64
}

// NewGamma returns the gamma distribution with shape > 0 and rate > 0.
func NewGamma(shape, rate float64) Gamma {
	check(shape > 0 && !math.IsInf(shape, 1), "gamma shape %v must be positive and finite", shape)
	check(rate > 0 && !math.IsInf(rate, 1), "gamma rate %v must be positive and finite", rate)
	return Gamma{Shape: shape, Rate: rate}
}

// LST implements Distribution: (1 + s/λ)^{−α} on the principal branch.
func (g Gamma) LST(s complex128) complex128 {
	return cmplx.Pow(1+s/complex(g.Rate, 0), complex(-g.Shape, 0))
}

// Mean implements Distribution.
func (g Gamma) Mean() float64 { return g.Shape / g.Rate }

// Variance implements Varer.
func (g Gamma) Variance() float64 { return g.Shape / (g.Rate * g.Rate) }

// Sample implements Distribution (Marsaglia–Tsang, with the shape < 1
// boost).
func (g Gamma) Sample(r *rand.Rand) float64 {
	shape := g.Shape
	boost := 1.0
	if shape < 1 {
		boost = math.Pow(r.Float64(), 1/shape)
		shape++
	}
	d := shape - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x || math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return boost * d * v / g.Rate
		}
	}
}

// String implements Distribution.
func (g Gamma) String() string { return fmt.Sprintf("gamma(%g,%g)", g.Shape, g.Rate) }

// Weibull is the Weibull distribution with shape k and scale λ
// (CDF 1 − e^{−(t/λ)^k}).
type Weibull struct {
	Shape, Scale float64
}

// NewWeibull returns the Weibull distribution with shape > 0 and
// scale > 0.
func NewWeibull(shape, scale float64) Weibull {
	check(shape > 0 && !math.IsInf(shape, 1), "weibull shape %v must be positive and finite", shape)
	check(scale > 0 && !math.IsInf(scale, 1), "weibull scale %v must be positive and finite", scale)
	return Weibull{Shape: shape, Scale: scale}
}

// LST implements Distribution. Substituting u = (t/λ)^k gives
// ∫₀^∞ e^{−u} e^{−sλu^{1/k}} du, integrated by composite quadrature
// (the e^{−u} factor truncates the domain).
func (w Weibull) LST(s complex128) complex128 {
	sl := s * complex(w.Scale, 0)
	inv := 1 / w.Shape
	return quadrature(0, 42, 40, func(u float64) complex128 {
		return cmplx.Exp(complex(-u, 0) - sl*complex(math.Pow(u, inv), 0))
	})
}

// Mean implements Distribution: λ·Γ(1+1/k).
func (w Weibull) Mean() float64 { return w.Scale * math.Gamma(1+1/w.Shape) }

// Variance implements Varer.
func (w Weibull) Variance() float64 {
	g1 := math.Gamma(1 + 1/w.Shape)
	g2 := math.Gamma(1 + 2/w.Shape)
	return w.Scale * w.Scale * (g2 - g1*g1)
}

// Sample implements Distribution.
func (w Weibull) Sample(r *rand.Rand) float64 {
	return w.Scale * math.Pow(r.ExpFloat64(), 1/w.Shape)
}

// String implements Distribution.
func (w Weibull) String() string { return fmt.Sprintf("weibull(%g,%g)", w.Shape, w.Scale) }

// Pareto is the (type I) Pareto distribution with tail index α and
// minimum Xm (density α·Xm^α/t^{α+1} for t ≥ Xm).
type Pareto struct {
	Alpha, Xm float64
}

// NewPareto returns the Pareto distribution with α > 0 and xm > 0.
func NewPareto(alpha, xm float64) Pareto {
	check(alpha > 0 && !math.IsInf(alpha, 1), "pareto index %v must be positive and finite", alpha)
	check(xm > 0 && !math.IsInf(xm, 1), "pareto minimum %v must be positive and finite", xm)
	return Pareto{Alpha: alpha, Xm: xm}
}

// LST implements Distribution. Substituting t = Xm/v maps the infinite
// tail onto (0,1]: α·∫₀¹ v^{α−1} e^{−s·Xm/v} dv.
func (p Pareto) LST(s complex128) complex128 {
	sx := s * complex(p.Xm, 0)
	a := p.Alpha
	return complex(a, 0) * quadrature(0, 1, 40, func(v float64) complex128 {
		if v == 0 {
			return 0
		}
		return complex(math.Pow(v, a-1), 0) * cmplx.Exp(-sx/complex(v, 0))
	})
}

// Mean implements Distribution (infinite when α ≤ 1).
func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return math.Inf(1)
	}
	return p.Alpha * p.Xm / (p.Alpha - 1)
}

// Variance implements Varer (infinite when α ≤ 2).
func (p Pareto) Variance() float64 {
	if p.Alpha <= 2 {
		return math.Inf(1)
	}
	return p.Xm * p.Xm * p.Alpha / ((p.Alpha - 1) * (p.Alpha - 1) * (p.Alpha - 2))
}

// Sample implements Distribution.
func (p Pareto) Sample(r *rand.Rand) float64 {
	return p.Xm * math.Pow(1-r.Float64(), -1/p.Alpha)
}

// String implements Distribution.
func (p Pareto) String() string { return fmt.Sprintf("pareto(%g,%g)", p.Alpha, p.Xm) }

// LogNormal is the log-normal distribution: ln T ~ N(Mu, Sigma²).
type LogNormal struct {
	Mu, Sigma float64
}

// NewLogNormal returns the log-normal distribution with σ > 0.
func NewLogNormal(mu, sigma float64) LogNormal {
	check(!math.IsNaN(mu) && !math.IsInf(mu, 0), "log-normal location %v must be finite", mu)
	check(sigma > 0 && !math.IsInf(sigma, 1), "log-normal shape %v must be positive and finite", sigma)
	return LogNormal{Mu: mu, Sigma: sigma}
}

// LST implements Distribution. Substituting t = e^{μ+σz} against the
// standard normal density confines the integral to |z| ≤ 8.
func (l LogNormal) LST(s complex128) complex128 {
	const norm = 0.3989422804014327 // 1/√(2π)
	return quadrature(-8, 8, 40, func(z float64) complex128 {
		t := math.Exp(l.Mu + l.Sigma*z)
		return complex(norm*math.Exp(-z*z/2), 0) * cmplx.Exp(-s*complex(t, 0))
	})
}

// Mean implements Distribution: e^{μ+σ²/2}.
func (l LogNormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// Variance implements Varer.
func (l LogNormal) Variance() float64 {
	s2 := l.Sigma * l.Sigma
	return (math.Exp(s2) - 1) * math.Exp(2*l.Mu+s2)
}

// Sample implements Distribution.
func (l LogNormal) Sample(r *rand.Rand) float64 {
	return math.Exp(l.Mu + l.Sigma*r.NormFloat64())
}

// String implements Distribution.
func (l LogNormal) String() string { return fmt.Sprintf("lognormal(%g,%g)", l.Mu, l.Sigma) }

// Mixture is a finite probabilistic mixture: with probability Weights[i]
// the sojourn is drawn from Parts[i].
type Mixture struct {
	Weights []float64
	Parts   []Distribution
}

// NewMixture returns the mixture of parts with the given weights, which
// must be positive and sum to 1.
func NewMixture(weights []float64, parts []Distribution) Mixture {
	check(len(weights) == len(parts) && len(parts) > 0,
		"mixture has %d weights for %d parts", len(weights), len(parts))
	var sum float64
	for _, w := range weights {
		check(w > 0, "mixture weight %v must be positive", w)
		sum += w
	}
	check(math.Abs(sum-1) < 1e-9, "mixture weights sum to %v, not 1", sum)
	return Mixture{Weights: append([]float64(nil), weights...), Parts: append([]Distribution(nil), parts...)}
}

// LST implements Distribution: Σ wᵢ·Lᵢ(s).
func (m Mixture) LST(s complex128) complex128 {
	var v complex128
	for i, d := range m.Parts {
		v += complex(m.Weights[i], 0) * d.LST(s)
	}
	return v
}

// Mean implements Distribution.
func (m Mixture) Mean() float64 {
	var v float64
	for i, d := range m.Parts {
		v += m.Weights[i] * d.Mean()
	}
	return v
}

// Variance implements Varer; every part must itself implement Varer.
func (m Mixture) Variance() float64 {
	mean := m.Mean()
	var second float64
	for i, d := range m.Parts {
		pm := d.Mean()
		second += m.Weights[i] * (mustVariance(d) + pm*pm)
	}
	return second - mean*mean
}

// Sample implements Distribution.
func (m Mixture) Sample(r *rand.Rand) float64 {
	u := r.Float64()
	var cum float64
	for i, w := range m.Weights {
		cum += w
		if u < cum {
			return m.Parts[i].Sample(r)
		}
	}
	return m.Parts[len(m.Parts)-1].Sample(r)
}

// String implements Distribution.
func (m Mixture) String() string {
	parts := make([]string, len(m.Parts))
	for i, d := range m.Parts {
		parts[i] = fmt.Sprintf("%g*%s", m.Weights[i], d)
	}
	return "mix(" + strings.Join(parts, "+") + ")"
}

// Convolution is the sum of independent sojourns (transform product).
type Convolution struct {
	Parts []Distribution
}

// NewConvolution returns the distribution of the sum of independent
// draws from each part.
func NewConvolution(parts ...Distribution) Convolution {
	check(len(parts) > 0, "empty convolution")
	return Convolution{Parts: append([]Distribution(nil), parts...)}
}

// LST implements Distribution: Π Lᵢ(s).
func (c Convolution) LST(s complex128) complex128 {
	v := complex128(1)
	for _, d := range c.Parts {
		v *= d.LST(s)
	}
	return v
}

// Mean implements Distribution.
func (c Convolution) Mean() float64 {
	var v float64
	for _, d := range c.Parts {
		v += d.Mean()
	}
	return v
}

// Variance implements Varer; every part must itself implement Varer.
func (c Convolution) Variance() float64 {
	var v float64
	for _, d := range c.Parts {
		v += mustVariance(d)
	}
	return v
}

// Sample implements Distribution.
func (c Convolution) Sample(r *rand.Rand) float64 {
	var t float64
	for _, d := range c.Parts {
		t += d.Sample(r)
	}
	return t
}

// String implements Distribution.
func (c Convolution) String() string {
	parts := make([]string, len(c.Parts))
	for i, d := range c.Parts {
		parts[i] = d.String()
	}
	return "conv(" + strings.Join(parts, "*") + ")"
}

// Shifted delays a base distribution by a deterministic offset. It
// deliberately does not implement Varer: the moment pipeline treats a
// shift as an unknown-variance composition (see passage.PassageMoments).
type Shifted struct {
	Shift float64
	D     Distribution
}

// NewShifted returns base delayed by shift ≥ 0.
func NewShifted(shift float64, base Distribution) Shifted {
	check(shift >= 0 && !math.IsInf(shift, 1), "shift %v must be finite and non-negative", shift)
	check(base != nil, "nil base distribution")
	return Shifted{Shift: shift, D: base}
}

// LST implements Distribution: e^{−s·shift}·L(s).
func (sh Shifted) LST(s complex128) complex128 {
	return cmplx.Exp(-s*complex(sh.Shift, 0)) * sh.D.LST(s)
}

// Mean implements Distribution.
func (sh Shifted) Mean() float64 { return sh.Shift + sh.D.Mean() }

// Sample implements Distribution.
func (sh Shifted) Sample(r *rand.Rand) float64 { return sh.Shift + sh.D.Sample(r) }

// String implements Distribution.
func (sh Shifted) String() string { return fmt.Sprintf("shift(%g,%s)", sh.Shift, sh.D) }

func mustVariance(d Distribution) float64 {
	v, ok := d.(Varer)
	if !ok {
		panic(fmt.Sprintf("dist: %s has no second moment", d))
	}
	return v.Variance()
}

// gl20 holds the 20-point Gauss–Legendre nodes and weights on [-1, 1]
// (positive half; the rule is symmetric).
var gl20Nodes = [10]float64{
	0.0765265211334973, 0.2277858511416451, 0.3737060887154195,
	0.5108670019508271, 0.6360536807265150, 0.7463319064601508,
	0.8391169718222188, 0.9122344282513259, 0.9639719272779138,
	0.9931285991850949,
}

var gl20Weights = [10]float64{
	0.1527533871307258, 0.1491729864726037, 0.1420961093183820,
	0.1316886384491766, 0.1181945319615184, 0.1019301198172404,
	0.0832767415767048, 0.0626720483341091, 0.0406014298003869,
	0.0176140071391521,
}

// quadrature integrates f over [a, b] with a composite 20-point
// Gauss–Legendre rule whose panel widths shrink quadratically toward a,
// where the substituted heavy-tail integrands vary fastest (the Pareto
// substitution is even singular at v = 0 when Alpha < 1).
func quadrature(a, b float64, panels int, f func(float64) complex128) complex128 {
	var total complex128
	lo := a
	for p := 0; p < panels; p++ {
		frac := float64(p+1) / float64(panels)
		hi := a + (b-a)*frac*frac
		half := (hi - lo) / 2
		mid := (lo + hi) / 2
		var sum complex128
		for i := 0; i < 10; i++ {
			dx := half * gl20Nodes[i]
			sum += complex(gl20Weights[i], 0) * (f(mid-dx) + f(mid+dx))
		}
		total += sum * complex(half, 0)
		lo = hi
	}
	return total
}
