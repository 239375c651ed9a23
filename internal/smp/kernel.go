package smp

import (
	"hydra/internal/dist"
	"hydra/internal/sparse"
)

// NewKernelMatrix allocates a matrix over the model's kernel pattern for
// use with FillKernel. One matrix can be reused across all s-points.
func (m *Model) NewKernelMatrix() *sparse.CMatrix {
	return m.pattern.NewCMatrix()
}

// distLSTs evaluates every interned distribution's transform at s,
// exactly once each — the shared front half of FillKernel and
// SojournLSTs.
func (m *Model) distLSTs(s complex128) []complex128 {
	return m.DistLSTsInto(s, nil)
}

// DistLSTsInto evaluates every interned distribution's transform at s
// into buf (grown as needed), so a resident solver can sample the whole
// distribution table once per s-point without allocating. The returned
// slice indexes by interned distribution id, matching FillKernelSampled.
func (m *Model) DistLSTsInto(s complex128, buf []complex128) []complex128 {
	if cap(buf) < len(m.dists) {
		buf = make([]complex128, len(m.dists))
	}
	buf = buf[:len(m.dists)]
	for id, d := range m.dists {
		buf[id] = d.LST(s)
	}
	return buf
}

// FillKernel assembles U(s) with u_pq = r*_pq(s) = Σ_t p_t·h*_t(s) into
// dst, which must come from NewKernelMatrix. Each interned distribution's
// transform is evaluated exactly once.
func (m *Model) FillKernel(s complex128, dst *sparse.CMatrix) {
	m.fillKernelWith(m.distLSTs(s), dst)
}

// FillKernelSampled assembles U(s_i) from pre-sampled distribution
// transforms: lsts[id] is the transform value of interned distribution id
// at the current s-point. Used by workers that batch-evaluate
// distributions across s-points.
func (m *Model) FillKernelSampled(lsts []complex128, dst *sparse.CMatrix) {
	if len(lsts) != len(m.dists) {
		panic("smp: FillKernelSampled with wrong transform count")
	}
	m.fillKernelWith(lsts, dst)
}

func (m *Model) fillKernelWith(lsts []complex128, dst *sparse.CMatrix) {
	vals := dst.Values()
	for i := range vals {
		vals[i] = 0
	}
	for k := range m.termTo {
		vals[m.termSlot[k]] += complex(m.termProb[k], 0) * lsts[m.termDist[k]]
	}
}

// NewKernelRowBlock allocates a matrix over rows [lo, hi) of the kernel
// pattern for use with FillKernelRowBlockSampled. The block is addressed
// by the full column space (global state numbers) but stores only its
// own rows' values — the unit of distribution for a sharded solve, where
// each worker holds 1/W of the kernel.
func (m *Model) NewKernelRowBlock(lo, hi int) *sparse.CMatrix {
	return m.pattern.NewRowBlock(lo, hi)
}

// FillKernelRowBlockSampled assembles rows [lo, hi) of U(s_i) from
// pre-sampled distribution transforms into dst, which must come from
// NewKernelRowBlock(lo, hi). It visits only the block's transition
// terms, so a sharded worker pays 1/W of the monolithic fill per
// s-point; the per-entry accumulation order matches FillKernelSampled
// exactly, making block fills bitwise identical to the corresponding
// rows of a monolithic fill.
func (m *Model) FillKernelRowBlockSampled(lsts []complex128, lo, hi int, dst *sparse.CMatrix) {
	if len(lsts) != len(m.dists) {
		panic("smp: FillKernelRowBlockSampled with wrong transform count")
	}
	base, end := m.pattern.RowRange(lo, hi)
	vals := dst.Values()
	if len(vals) != end-base {
		panic("smp: FillKernelRowBlockSampled destination does not match block")
	}
	for i := range vals {
		vals[i] = 0
	}
	for k := m.termPtr[lo]; k < m.termPtr[hi]; k++ {
		vals[int(m.termSlot[k])-base] += complex(m.termProb[k], 0) * lsts[m.termDist[k]]
	}
}

// SojournLSTs returns h*_i(s) = Σ_j r*_ij(s) for every state — the LST of
// the unconditional sojourn-time distribution in state i, needed by the
// transient computation of Eq. (6)–(7).
func (m *Model) SojournLSTs(s complex128) []complex128 {
	return m.SojournLSTsSampled(m.distLSTs(s), nil)
}

// SojournLSTsSampled computes the sojourn transforms from an already
// sampled distribution table (see DistLSTsInto) into buf, letting a
// resident solver share one table sample per s-point between the kernel
// fill and the transient computation.
func (m *Model) SojournLSTsSampled(lsts, buf []complex128) []complex128 {
	if len(lsts) != len(m.dists) {
		panic("smp: SojournLSTsSampled with wrong transform count")
	}
	if cap(buf) < m.n {
		buf = make([]complex128, m.n)
	}
	buf = buf[:m.n]
	for i := 0; i < m.n; i++ {
		var h complex128
		for k := m.termPtr[i]; k < m.termPtr[i+1]; k++ {
			h += complex(m.termProb[k], 0) * lsts[m.termDist[k]]
		}
		buf[i] = h
	}
	return buf
}

// Distributions returns the interned distribution table; index positions
// match the ids used by FillKernelSampled.
func (m *Model) Distributions() []dist.Distribution {
	return m.dists
}

// EmbeddedDTMC returns the one-step transition probability matrix
// P = [p_ij] of the embedded discrete-time chain (Eq. 5's P). It shares
// the kernel pattern's structure, so only its values are allocated.
func (m *Model) EmbeddedDTMC() *sparse.Matrix {
	vals := make([]float64, m.pattern.NNZ())
	for k, slot := range m.termSlot {
		vals[slot] += m.termProb[k]
	}
	return m.pattern.NewMatrix(vals)
}

// MeanSojourns returns E[sojourn in state i] = Σ_t p_t·E[dist_t] for
// every state. Together with the embedded chain's stationary vector this
// yields the SMP's time-average steady state.
func (m *Model) MeanSojourns() []float64 {
	means := make([]float64, len(m.dists))
	for id, d := range m.dists {
		means[id] = d.Mean()
	}
	out := make([]float64, m.n)
	for i := 0; i < m.n; i++ {
		for k := m.termPtr[i]; k < m.termPtr[i+1]; k++ {
			out[i] += m.termProb[k] * means[m.termDist[k]]
		}
	}
	return out
}

// SteadyState converts the embedded chain's stationary vector pi into the
// SMP's time-average state distribution: π^SMP_i ∝ π_i·m_i with m_i the
// mean sojourn in state i. This is the t→∞ limit the Fig. 7 transient
// converges to.
func (m *Model) SteadyState(pi []float64) []float64 {
	if len(pi) != m.n {
		panic("smp: SteadyState with wrong vector length")
	}
	means := m.MeanSojourns()
	out := make([]float64, m.n)
	var total float64
	for i := range out {
		out[i] = pi[i] * means[i]
		total += out[i]
	}
	inv := 1 / total
	for i := range out {
		out[i] *= inv
	}
	return out
}
