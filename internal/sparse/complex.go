package sparse

import (
	"fmt"
	"sort"
)

// CMatrix is a complex-valued CSR matrix whose sparsity pattern is fixed
// at construction but whose values may be overwritten in place. The
// passage-time solver re-fills the same pattern for every Laplace-space
// point s, so the structure arrays are shared between all evaluations.
type CMatrix struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	val        []complex128
}

// Dims returns the number of rows and columns.
func (m *CMatrix) Dims() (rows, cols int) { return m.rows, m.cols }

// NNZ returns the number of stored entries.
func (m *CMatrix) NNZ() int { return len(m.val) }

// At returns the value at (i, j) (zero outside the pattern). For tests and
// small matrices only.
func (m *CMatrix) At(i, j int) complex128 {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	k := lo + sort.SearchInts(m.colIdx[lo:hi], j)
	if k < hi && m.colIdx[k] == j {
		return m.val[k]
	}
	return 0
}

// Row calls fn for every stored entry (j, v) of row i in column order.
func (m *CMatrix) Row(i int, fn func(j int, v complex128)) {
	for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
		fn(m.colIdx[k], m.val[k])
	}
}

// Values returns the value slice backing the matrix, ordered row-major to
// match the pattern handed to NewCMatrix. Overwriting it refreshes the
// matrix without reallocation.
func (m *CMatrix) Values() []complex128 { return m.val }

// SetRowZero zeroes every stored entry of row i. Used to make target
// states absorbing when forming U′ from U.
func (m *CMatrix) SetRowZero(i int) {
	for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
		m.val[k] = 0
	}
}

// MulVec computes y = M·x.
func (m *CMatrix) MulVec(x, y []complex128) {
	if len(x) != m.cols || len(y) != m.rows {
		panic(fmt.Sprintf("sparse: CMatrix.MulVec dims %dx%d with |x|=%d |y|=%d", m.rows, m.cols, len(x), len(y)))
	}
	for i := 0; i < m.rows; i++ {
		var sum complex128
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			sum += m.val[k] * x[m.colIdx[k]]
		}
		y[i] = sum
	}
}

// MulVecSkipRows computes y = M′·x where M′ is M with every flagged row
// zeroed: y_i = 0 for skipped rows, the ordinary row product otherwise.
// This is the kernel of the column-form Eq. (10) iteration, which
// propagates a target-indicator column backwards through U′.
func (m *CMatrix) MulVecSkipRows(x, y []complex128, skip []bool) {
	if len(x) != m.cols || len(y) != m.rows || len(skip) != m.rows {
		panic("sparse: CMatrix.MulVecSkipRows dimension mismatch")
	}
	for i := 0; i < m.rows; i++ {
		if skip[i] {
			y[i] = 0
			continue
		}
		var sum complex128
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			sum += m.val[k] * x[m.colIdx[k]]
		}
		y[i] = sum
	}
}

// SweepDescSkipRows runs one in-place Gauss–Seidel sweep of z = b + M′·z,
// M′ being M with every flagged row zeroed, in descending row order: for
// i = n−1 … 0, z_i ← b_i, plus Σ_k m_ik·z_k unless row i is skipped, so
// each row reads the values already updated above it. It returns the
// largest squared change max_i |Δz_i|², NaN if any change is NaN. This
// is the warm-start sweep of the column-form Eq. (10) iteration.
func (m *CMatrix) SweepDescSkipRows(z, b []complex128, skip []bool) float64 {
	if m.rows != m.cols || len(z) != m.rows || len(b) != m.rows || len(skip) != m.rows {
		panic("sparse: CMatrix.SweepDescSkipRows dimension mismatch")
	}
	rowPtr, colIdx, val := m.rowPtr, m.colIdx, m.val
	var worst float64
	for i := m.rows - 1; i >= 0; i-- {
		next := b[i]
		if !skip[i] {
			lo, hi := rowPtr[i], rowPtr[i+1]
			vals := val[lo:hi]
			for e, k := range colIdx[lo:hi] {
				next += vals[e] * z[k]
			}
		}
		d := next - z[i]
		z[i] = next
		// d2 != d2 keeps a NaN, which a bare d2 > worst would drop.
		if d2 := real(d)*real(d) + imag(d)*imag(d); d2 > worst || d2 != d2 {
			worst = d2
		}
	}
	return worst
}

// RowSlices returns the column-index and value slices of row i, sharing
// the matrix's backing arrays. It exists for tight per-row loops (the
// Gauss–Seidel sweep, single-row products) that would otherwise pay a
// closure call per stored entry.
func (m *CMatrix) RowSlices(i int) (cols []int, vals []complex128) {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	return m.colIdx[lo:hi], m.val[lo:hi]
}

// VecMulSkipRows computes y = x·M′, the row-vector product with M′ = M
// with every flagged row zeroed: the paper's row form of the Eq. (10)
// iteration, which carries a source row forwards through U′. No solver
// uses it; the benchmark's layer table times it against MulVecSkipRows.
func (m *CMatrix) VecMulSkipRows(x, y []complex128, skip []bool) {
	if len(x) != m.rows || len(y) != m.cols || len(skip) != m.rows {
		panic("sparse: CMatrix.VecMulSkipRows dimension mismatch")
	}
	for j := range y {
		y[j] = 0
	}
	for i := 0; i < m.rows; i++ {
		xi := x[i]
		if xi == 0 || skip[i] {
			continue
		}
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			y[m.colIdx[k]] += xi * m.val[k]
		}
	}
}

// Pattern describes the sparsity structure of a CMatrix independent of its
// values. The same Pattern is shared across all s-point evaluations.
type Pattern struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
}

// NewPattern assembles a pattern from coordinate entries. Duplicate
// positions are merged. The returned index slice idx maps every input
// entry k to the value-slot it occupies, so a caller can scatter values
// with vals[idx[k]] += v.
func NewPattern(rows, cols int, is, js []int) (p *Pattern, idx []int) {
	if len(is) != len(js) {
		panic("sparse: NewPattern coordinate slices of unequal length")
	}
	for k := range is {
		if is[k] < 0 || is[k] >= rows || js[k] < 0 || js[k] >= cols {
			panic(fmt.Sprintf("sparse: NewPattern entry (%d,%d) outside %dx%d", is[k], js[k], rows, cols))
		}
	}
	p = &Pattern{rows: rows, cols: cols, rowPtr: make([]int, rows+1)}
	order := sortCOO(is, js)
	idx = make([]int, len(is))
	prevI, prevJ := -1, -1
	for _, k := range order {
		i, j := is[k], js[k]
		if i != prevI || j != prevJ {
			p.rowPtr[i+1]++
			p.colIdx = append(p.colIdx, j)
			prevI, prevJ = i, j
		}
		idx[k] = len(p.colIdx) - 1
	}
	for i := 0; i < rows; i++ {
		p.rowPtr[i+1] += p.rowPtr[i]
	}
	return p, idx
}

// NewPatternCSR wraps pre-assembled CSR structure arrays as a pattern,
// for a caller that has merged and sorted each row itself; ownership of
// rowPtr and colIdx transfers to the pattern. Every row's columns must
// be strictly ascending and lie in [0, cols).
func NewPatternCSR(rows, cols int, rowPtr, colIdx []int) *Pattern {
	if rows < 0 || cols < 0 {
		panic("sparse: negative dimension")
	}
	if len(rowPtr) != rows+1 || rowPtr[0] != 0 || rowPtr[rows] != len(colIdx) {
		panic("sparse: NewPatternCSR malformed row structure")
	}
	for i := 0; i < rows; i++ {
		if rowPtr[i] > rowPtr[i+1] {
			panic(fmt.Sprintf("sparse: NewPatternCSR row %d has negative extent", i))
		}
		prev := -1
		for _, j := range colIdx[rowPtr[i]:rowPtr[i+1]] {
			if j <= prev || j >= cols {
				panic(fmt.Sprintf("sparse: NewPatternCSR row %d: column %d out of order or outside %d columns", i, j, cols))
			}
			prev = j
		}
	}
	return &Pattern{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx}
}

// NNZ returns the number of positions in the pattern.
func (p *Pattern) NNZ() int { return len(p.colIdx) }

// Row calls fn for every column j of pattern row i, in column order —
// the adjacency view a partition planner consumes (distinct
// destinations, no values needed).
func (p *Pattern) Row(i int, fn func(j int)) {
	for k := p.rowPtr[i]; k < p.rowPtr[i+1]; k++ {
		fn(p.colIdx[k])
	}
}

// RowNNZ returns the number of positions in pattern row i.
func (p *Pattern) RowNNZ(i int) int { return p.rowPtr[i+1] - p.rowPtr[i] }

// Dims returns the pattern dimensions.
func (p *Pattern) Dims() (rows, cols int) { return p.rows, p.cols }

// NewCMatrix returns a zero-valued matrix over the pattern. The structure
// arrays are shared with the pattern (and any sibling matrices); only the
// value slice is freshly allocated.
func (p *Pattern) NewCMatrix() *CMatrix {
	return &CMatrix{
		rows:   p.rows,
		cols:   p.cols,
		rowPtr: p.rowPtr,
		colIdx: p.colIdx,
		val:    make([]complex128, len(p.colIdx)),
	}
}

// NewMatrix returns the real matrix over the pattern with values val,
// one per position in pattern order; the matrix takes ownership of val
// and shares the structure arrays with the pattern.
func (p *Pattern) NewMatrix(val []float64) *Matrix {
	if len(val) != len(p.colIdx) {
		panic(fmt.Sprintf("sparse: NewMatrix with %d values for %d positions", len(val), len(p.colIdx)))
	}
	return &Matrix{rows: p.rows, cols: p.cols, rowPtr: p.rowPtr, colIdx: p.colIdx, val: val}
}

// RowRange returns the half-open interval [start, end) of value slots
// occupied by rows [lo, hi) of the pattern — the offsets a caller needs
// to scatter into a row-block matrix (see NewRowBlock) from indices
// computed against the full pattern.
func (p *Pattern) RowRange(lo, hi int) (start, end int) {
	if lo < 0 || hi > p.rows || lo > hi {
		panic(fmt.Sprintf("sparse: row range [%d,%d) outside %d rows", lo, hi, p.rows))
	}
	return p.rowPtr[lo], p.rowPtr[hi]
}

// NewRowBlock returns a zero-valued matrix holding only rows [lo, hi) of
// the pattern, still addressed by the full column space: the block is a
// (hi-lo)×cols CSR matrix whose column indices are shared with the
// pattern (global state numbers), so MulVec and friends take full-length
// x vectors and produce block-length y vectors. Row i of the pattern is
// row i-lo of the block. Only the value slice is freshly allocated, and
// it covers just the block's entries — this is what lets a distributed
// worker hold 1/W of the kernel values for an n-state model.
func (p *Pattern) NewRowBlock(lo, hi int) *CMatrix {
	start, end := p.RowRange(lo, hi)
	rowPtr := make([]int, hi-lo+1)
	for i := lo; i <= hi; i++ {
		rowPtr[i-lo] = p.rowPtr[i] - start
	}
	return &CMatrix{
		rows:   hi - lo,
		cols:   p.cols,
		rowPtr: rowPtr,
		colIdx: p.colIdx[start:end],
		val:    make([]complex128, end-start),
	}
}

// NewCSRMatrix wraps pre-assembled CSR structure arrays in a
// zero-valued matrix; ownership of rowPtr and colIdx transfers to the
// matrix. It exists for callers that compute a custom structure directly
// (e.g. a permuted kernel row block) instead of going through a
// Pattern. Column indices must lie in [0, cols); per-row column order is
// the caller's responsibility (At requires ascending order).
func NewCSRMatrix(rows, cols int, rowPtr, colIdx []int) *CMatrix {
	if rows < 0 || cols < 0 {
		panic("sparse: negative dimension")
	}
	if len(rowPtr) != rows+1 || rowPtr[0] != 0 || rowPtr[rows] != len(colIdx) {
		panic("sparse: NewCSRMatrix malformed row structure")
	}
	for i := 0; i < rows; i++ {
		if rowPtr[i] > rowPtr[i+1] {
			panic(fmt.Sprintf("sparse: NewCSRMatrix row %d has negative extent", i))
		}
	}
	for _, j := range colIdx {
		if j < 0 || j >= cols {
			panic(fmt.Sprintf("sparse: NewCSRMatrix column %d outside %d columns", j, cols))
		}
	}
	return &CMatrix{
		rows:   rows,
		cols:   cols,
		rowPtr: rowPtr,
		colIdx: colIdx,
		val:    make([]complex128, len(colIdx)),
	}
}

// CBuilder accumulates coordinate entries for a complex CSR matrix,
// summing duplicates, mirroring Builder.
type CBuilder struct {
	rows, cols int
	is, js     []int
	vs         []complex128
}

// NewCBuilder returns a builder for a rows×cols complex matrix.
func NewCBuilder(rows, cols int) *CBuilder {
	if rows < 0 || cols < 0 {
		panic("sparse: negative dimension")
	}
	return &CBuilder{rows: rows, cols: cols}
}

// Add records the entry (i, j) = v.
func (b *CBuilder) Add(i, j int, v complex128) {
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		panic(fmt.Sprintf("sparse: Add(%d,%d) outside %dx%d", i, j, b.rows, b.cols))
	}
	b.is = append(b.is, i)
	b.js = append(b.js, j)
	b.vs = append(b.vs, v)
}

// Build assembles the CSR matrix, summing duplicates.
func (b *CBuilder) Build() *CMatrix {
	p, idx := NewPattern(b.rows, b.cols, b.is, b.js)
	m := p.NewCMatrix()
	for k, slot := range idx {
		m.val[slot] += b.vs[k]
	}
	return m
}

// RowNNZ returns the number of stored entries in row i.
func (m *CMatrix) RowNNZ(i int) int { return m.rowPtr[i+1] - m.rowPtr[i] }
