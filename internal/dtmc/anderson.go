package dtmc

import "math"

// andersonDepth is the number of past sweeps the accelerator combines.
// On the embedded chain of voting system 2 (249,760 states, 2,122 plain
// sweeps) depths 4 to 8 all met the absolute stopping test within
// 230–360 sweeps, the count moving by a quarter on rounding alone, while
// each column costs two vector passes per iteration and 2n floats of
// memory; 6 sits in the middle of that plateau.
const andersonDepth = 6

// mixChunk is the row block the accelerator's fused passes work in, so
// the block of new differences stays in L1 while every history column
// streams past it once.
const mixChunk = 512

// unsettled is the relative sweep change above which an entry is left
// out of the mix and takes its plain sweep value. Rare states sit on
// long chains whose values a forward sweep corrects one link per
// iteration; mixing them before they settle (or clamping their
// overshoots to zero) left system 2's rarest probabilities wrong by
// factors up to 1e74. Of 1e-3, 1e-2 and 1e-1 on systems 1 and 2, 1e-1
// took the fewest sweeps.
const unsettled = 0.1

// anderson is Anderson acceleration (type II) of the Gauss–Seidel map
// G(x) = sweep(x)/Σ sweep(x). With f_k = G(x_k) − x_k and the columns of
// ΔF, ΔG the differences of the last m consecutive f and G values, the
// next iterate is
//
//	x_{k+1} = G(x_k) − ΔG·γ,  γ = argmin ‖f_k − ΔF·γ‖₂,
//
// with γ from the m×m normal equations, whose Gram matrix gains one row
// per iteration. Entries whose mix is negative or which have not
// settled take G(x_k) instead (see unsettled). The sweep is homogeneous,
// so the iterate is not renormalised in a pass of its own: x and g carry
// it with mass xSum, and the next pass divides by it.
//
// All 2m + 4 vectors are allocated once, in one slab.
type anderson struct {
	m    int
	x    []float64 // the iterate x_k, mass xSum
	g    []float64 // x_k again, which the sweep overwrites with G(x_k)·mass
	xSum float64

	fPrev, gPrev []float64   // f_{k−1} and G(x_{k−1}), normalised
	dF, dG       [][]float64 // ring of the last m differences
	hist, head   int         // live columns; the slot the next one takes
	havePrev     bool        // fPrev, gPrev hold the previous sweep
	prevRel      float64     // the previous sweep's change over its mass

	gram  []float64 // m×m, ΔFᵀΔF over the live columns
	elim  []float64 // scratch for the elimination
	gamma []float64 // ΔFᵀf_k, then γ
	dots  []float64 // the new column against every live one
}

func newAnderson(n, m int) *anderson {
	slab := make([]float64, (2*m+4)*n)
	take := func() []float64 {
		v := slab[:n:n]
		slab = slab[n:]
		return v
	}
	a := &anderson{
		m: m, x: take(), g: take(), fPrev: take(), gPrev: take(),
		dF: make([][]float64, m), dG: make([][]float64, m),
		xSum: 1, prevRel: math.Inf(1),
		gram: make([]float64, m*m), elim: make([]float64, m*m),
		gamma: make([]float64, m), dots: make([]float64, m),
	}
	for k := range a.dF {
		a.dF[k], a.dG[k] = take(), take()
	}
	for i := range a.x {
		a.x[i] = 1 / float64(n)
		a.g[i] = a.x[i]
	}
	return a
}

// reset drops the difference columns: the next step is a plain sweep's.
func (a *anderson) reset() {
	a.hist, a.head = 0, 0
}

// mix takes the sweep a.g now holds — largest change diff, mass sum —
// and leaves the next iterate in a.x and a.g.
func (a *anderson) mix(diff, sum float64) {
	rel := diff / sum
	if !(rel < a.prevRel) {
		// No difference column spans a sweep that failed to shrink.
		a.reset()
		a.havePrev = false
	}
	a.prevRel = rel
	gInv, xInv := 1/sum, 1/a.xSum

	// One pass: f_k = G(x_k) − x_k, the new difference columns and
	// their inner products with the live history, then f_k and G(x_k)
	// become the previous ones.
	add := a.havePrev
	col := a.head
	if add {
		a.head = (a.head + 1) % a.m
		a.hist = min(a.hist+1, a.m)
	}
	for l := range a.dots {
		a.dots[l], a.gamma[l] = 0, 0
	}
	var fBuf, dBuf [mixChunk]float64
	for lo := 0; lo < len(a.x); lo += mixChunk {
		hi := min(lo+mixChunk, len(a.x))
		f, d := fBuf[:hi-lo], dBuf[:hi-lo]
		x, g := a.x[lo:hi], a.g[lo:hi]
		fPrev, gPrev := a.fPrev[lo:hi], a.gPrev[lo:hi]
		for k := range f {
			gk := g[k] * gInv
			f[k] = gk - x[k]*xInv
			if add {
				d[k] = f[k] - fPrev[k]
				a.dG[col][lo+k] = gk - gPrev[k]
			}
			fPrev[k], gPrev[k] = f[k], gk
		}
		if !add {
			continue
		}
		copy(a.dF[col][lo:hi], d)
		for l := 0; l < a.hist; l++ {
			dd, df := dot2(a.dF[l][lo:hi], d, f)
			a.dots[l] += dd
			a.gamma[l] += df
		}
	}
	a.havePrev = true
	if add {
		for l := 0; l < a.hist; l++ {
			a.gram[col*a.m+l] = a.dots[l]
			a.gram[l*a.m+col] = a.dots[l]
		}
	}
	if a.hist == 0 || !a.solve() {
		a.reset()
		a.plain(a.g, gInv)
		return
	}

	// x_{k+1} = G(x_k) − ΔG·γ, written to both x and g, except where
	// the mix is negative or the entry has not settled.
	var mass float64
	for lo := 0; lo < len(a.x); lo += mixChunk {
		hi := min(lo+mixChunk, len(a.x))
		x, g := a.x[lo:hi], a.g[lo:hi]
		f := a.fPrev[lo:hi] // f_k
		for k := range x {
			x[k] = g[k] * gInv
		}
		for l, gl := range a.gamma[:a.hist] {
			for k, v := range a.dG[l][lo:hi] {
				x[k] -= gl * v
			}
		}
		for k, v := range x {
			if gk := g[k] * gInv; v < 0 || math.Abs(f[k]) > unsettled*gk {
				x[k], v = gk, gk
			}
			g[k] = v
			mass += v
		}
	}
	if !(mass > 0) || math.IsInf(mass, 0) {
		// A non-finite or massless mix: fall back on G(x_k), which the
		// pass above kept in gPrev.
		a.reset()
		a.plain(a.gPrev, 1)
		return
	}
	a.xSum = mass
}

// plain makes src·scale, a normalised G(x_k), the next iterate.
func (a *anderson) plain(src []float64, scale float64) {
	for i, v := range src {
		v *= scale
		a.x[i], a.g[i] = v, v
	}
	a.xSum = 1
}

// dot2 returns v·a and v·b. Four partial sums per product break the
// floating-point add chain, which otherwise bounds the loop by the add
// latency rather than by memory.
func dot2(v, a, b []float64) (va, vb float64) {
	a, b = a[:len(v)], b[:len(v)]
	var a0, a1, a2, a3, b0, b1, b2, b3 float64
	k := 0
	for ; k+4 <= len(v); k += 4 {
		a0 += v[k] * a[k]
		a1 += v[k+1] * a[k+1]
		a2 += v[k+2] * a[k+2]
		a3 += v[k+3] * a[k+3]
		b0 += v[k] * b[k]
		b1 += v[k+1] * b[k+1]
		b2 += v[k+2] * b[k+2]
		b3 += v[k+3] * b[k+3]
	}
	for ; k < len(v); k++ {
		a0 += v[k] * a[k]
		b0 += v[k] * b[k]
	}
	return (a0 + a1) + (a2 + a3), (b0 + b1) + (b2 + b3)
}

// solve overwrites a.gamma (holding ΔFᵀf_k) with γ, solving the live
// Gram system by Gaussian elimination with partial pivoting. It reports
// false for a singular or non-finite system.
func (a *anderson) solve() bool {
	k, m := a.hist, a.m
	A, b := a.elim[:k*k], a.gamma[:k]
	for r := 0; r < k; r++ {
		copy(A[r*k:(r+1)*k], a.gram[r*m:r*m+k])
	}
	for c := 0; c < k; c++ {
		piv := c
		for r := c + 1; r < k; r++ {
			if math.Abs(A[r*k+c]) > math.Abs(A[piv*k+c]) {
				piv = r
			}
		}
		if A[piv*k+c] == 0 {
			return false
		}
		if piv != c {
			for j := 0; j < k; j++ {
				A[c*k+j], A[piv*k+j] = A[piv*k+j], A[c*k+j]
			}
			b[c], b[piv] = b[piv], b[c]
		}
		for r := c + 1; r < k; r++ {
			f := A[r*k+c] / A[c*k+c]
			for j := c; j < k; j++ {
				A[r*k+j] -= f * A[c*k+j]
			}
			b[r] -= f * b[c]
		}
	}
	for r := k - 1; r >= 0; r-- {
		v := b[r]
		for j := r + 1; j < k; j++ {
			v -= A[r*k+j] * b[j]
		}
		b[r] = v / A[r*k+r]
		if math.IsNaN(b[r]) || math.IsInf(b[r], 0) {
			return false
		}
	}
	return true
}
