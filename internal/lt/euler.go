package lt

import (
	"fmt"
	"math"
)

// Inverter is a numerical Laplace-transform inversion algorithm that
// declares in advance every s-point at which it needs the transform.
// This is the contract that makes the distributed pipeline possible: the
// master computes Points, farms the transform evaluations out to workers,
// and runs Invert on the gathered values.
type Inverter interface {
	// Points returns the s-points required to recover f at the given
	// (strictly positive) t-points. The order is fixed and must be
	// preserved by the caller when presenting values to Invert.
	Points(ts []float64) []complex128
	// Invert recovers f(t) for every t in ts from the transform values at
	// the points returned by Points(ts).
	Invert(ts []float64, values []complex128) ([]float64, error)
	// Name identifies the algorithm in logs and checkpoints.
	Name() string
}

// Euler is the Abate–Whitt (1995) Euler-summation inversion algorithm.
//
// For a time t it approximates
//
//	f(t) ≈ e^{A/2}/(2t)·Re F(A/2t) + e^{A/2}/t·Σ_{k≥1} (−1)^k Re F((A+2kπi)/2t)
//
// truncating the alternating series with Euler (binomial) summation of
// the partial sums s_M..s_{M+E}. It therefore needs M+E+1 transform
// evaluations per t-point — the paper's "n = km with k typically between
// 15 and 50".
//
// Accuracy: for smooth densities the error reaches the e^{−A}
// discretisation floor (≈1e−8 at the default A). Within roughly one time
// unit of a jump discontinuity the error decays only like O(1/M)
// (Gibbs-type), so raise M for sharp resolution near deterministic or
// uniform delay edges; at the jump itself the method converges to the
// midpoint of the two one-sided limits.
type Euler struct {
	// A controls the discretisation error, which is ≈ e^{−A} for |f| ≤ 1.
	// Abate and Whitt recommend A = 18.4 for ~1e−8 accuracy.
	A float64
	// M is the index of the first partial sum used by Euler summation.
	M int
	// E is the order of the binomial average (number of extra terms).
	E int
}

// DefaultEuler returns the paper's configuration: A=18.4, M=21, E=11,
// i.e. k = 33 transform evaluations per t-point (165 for 5 t-points, the
// workload of Table 2).
func DefaultEuler() Euler { return Euler{A: 18.4, M: 21, E: 11} }

// Name implements Inverter.
func (e Euler) Name() string { return fmt.Sprintf("euler(A=%g,M=%d,E=%d)", e.A, e.M, e.E) }

// PointsPerT returns the number of s-points demanded per t-point.
func (e Euler) PointsPerT() int { return e.M + e.E + 1 }

// Points implements Inverter. For each t the points are
// (A + 2kπi)/(2t), k = 0..M+E.
func (e Euler) Points(ts []float64) []complex128 {
	e.check()
	pts := make([]complex128, 0, len(ts)*e.PointsPerT())
	for _, t := range ts {
		if !(t > 0) {
			panic(fmt.Sprintf("lt: Euler inversion requires t > 0, got %v", t))
		}
		for k := 0; k <= e.M+e.E; k++ {
			pts = append(pts, complex(e.A/(2*t), float64(k)*math.Pi/t))
		}
	}
	return pts
}

// Invert implements Inverter.
func (e Euler) Invert(ts []float64, values []complex128) ([]float64, error) {
	e.check()
	per := e.PointsPerT()
	if len(values) != len(ts)*per {
		return nil, fmt.Errorf("lt: Euler.Invert: %d values for %d t-points, want %d", len(values), len(ts), len(ts)*per)
	}
	out := make([]float64, len(ts))
	binom := binomials(e.E)
	for i, t := range ts {
		vals := values[i*per : (i+1)*per]
		scale := math.Exp(e.A/2) / (2 * t)
		// Partial sums s_0..s_{M+E}; s_n includes terms k=1..n.
		head := scale * real(vals[0])
		partial := head
		sums := make([]float64, e.M+e.E+1)
		sums[0] = partial
		sign := -1.0
		for k := 1; k <= e.M+e.E; k++ {
			partial += 2 * scale * sign * real(vals[k])
			sums[k] = partial
			sign = -sign
		}
		// Euler summation: binomial average of s_M..s_{M+E}.
		var acc float64
		for j := 0; j <= e.E; j++ {
			acc += binom[j] * sums[e.M+j]
		}
		out[i] = acc / math.Exp2(float64(e.E))
	}
	return out, nil
}

// Validate reports whether the parameters describe a usable inverter:
// a finite A > 0, M ≥ 1 and E ≥ 0.
func (e Euler) Validate() error {
	if !(e.A > 0) || math.IsInf(e.A, 1) || e.M < 1 || e.E < 0 {
		return fmt.Errorf("lt: invalid Euler parameters %+v: need finite A > 0, M ≥ 1, E ≥ 0", e)
	}
	return nil
}

func (e Euler) check() {
	if err := e.Validate(); err != nil {
		panic(err.Error())
	}
}

// binomials returns C(E, 0..E).
func binomials(e int) []float64 {
	b := make([]float64, e+1)
	b[0] = 1
	for j := 1; j <= e; j++ {
		b[j] = b[j-1] * float64(e-j+1) / float64(j)
	}
	return b
}
