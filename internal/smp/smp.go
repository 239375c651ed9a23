// Package smp defines the in-memory representation of a finite
// semi-Markov process: the kernel R(i,j,t) = p_ij·H_ij(t) of §2.1,
// factored into one-step transition probabilities and sojourn-time
// distributions held by reference.
//
// The representation is tuned for the iterative passage-time algorithm:
// the sparsity pattern of the kernel matrix U (u_pq = r*_pq(s)) is fixed
// across all Laplace points s, and every distinct distribution is
// interned so that each is evaluated exactly once per s no matter how
// many transitions share it. On the voting models of §5 a handful of
// distribution shapes cover hundreds of thousands of transitions, which
// is what makes per-s assembly cheap.
package smp

import (
	"fmt"
	"reflect"
	"slices"

	"hydra/internal/dist"
	"hydra/internal/sparse"
)

// Term is one transition of the SMP: with probability Prob (conditioned
// on being in the source state) the process jumps to state To after a
// delay drawn from Dist.
type Term struct {
	To   int
	Prob float64
	Dist dist.Distribution
}

// Model is an immutable semi-Markov process over states 0..N-1.
type Model struct {
	n int
	// Interned distributions and their canonical strings.
	dists []dist.Distribution
	// Per-state transition terms, flattened: terms[termPtr[i]:termPtr[i+1]].
	termPtr  []int
	termTo   []int32
	termProb []float64
	termDist []int32
	// Kernel matrix structure: one slot per distinct (from,to) pair.
	pattern  *sparse.Pattern
	termSlot []int32 // pattern slot of each term
	// Optional state labels (e.g. net markings) for diagnostics.
	labels []string
}

// N returns the number of states.
func (m *Model) N() int { return m.n }

// NumTerms returns the total number of transition terms.
func (m *Model) NumTerms() int { return len(m.termTo) }

// NumDistributions returns the number of distinct (interned)
// distributions.
func (m *Model) NumDistributions() int { return len(m.dists) }

// KernelNNZ returns the number of distinct (from, to) kernel entries.
func (m *Model) KernelNNZ() int { return m.pattern.NNZ() }

// Label returns the state label, or a numeric fallback.
func (m *Model) Label(i int) string {
	if m.labels != nil && m.labels[i] != "" {
		return m.labels[i]
	}
	return fmt.Sprintf("state-%d", i)
}

// Terms calls fn for every transition term of state i.
func (m *Model) Terms(i int, fn func(t Term)) {
	for k := m.termPtr[i]; k < m.termPtr[i+1]; k++ {
		fn(Term{To: int(m.termTo[k]), Prob: m.termProb[k], Dist: m.dists[m.termDist[k]]})
	}
}

// TermSlices returns state i's transition terms as three parallel
// slices of the model's flattened term arrays: the destination, the
// probability and the interned distribution id (an index into
// Distributions) of each. They alias the model and must not be
// modified. It is the allocation-free form of Terms for inner loops.
func (m *Model) TermSlices(i int) (to []int32, prob []float64, dist []int32) {
	lo, hi := m.termPtr[i], m.termPtr[i+1]
	return m.termTo[lo:hi], m.termProb[lo:hi], m.termDist[lo:hi]
}

// Builder accumulates transitions and assembles a Model.
type Builder struct {
	n      int
	from   []int32
	to     []int32
	prob   []float64
	distID []int32
	dists  []dist.Distribution
	labels []string

	// Distributions are interned by canonical string; byValue maps
	// every comparable value already seen to its id, so String runs
	// once per distinct value rather than once per transition.
	byString map[string]int32
	byValue  map[dist.Distribution]int32
}

// NewBuilder returns a builder for an n-state SMP.
func NewBuilder(n int) *Builder {
	if n <= 0 {
		panic(fmt.Sprintf("smp: non-positive state count %d", n))
	}
	return &Builder{n: n, byString: make(map[string]int32), byValue: make(map[dist.Distribution]int32)}
}

// EnsureStates raises the state count to at least n, for a generator
// that adds a state's transitions while it is still discovering states.
func (b *Builder) EnsureStates(n int) {
	if n <= b.n {
		return
	}
	b.n = n
	if b.labels != nil {
		b.labels = append(b.labels, make([]string, n-len(b.labels))...)
	}
}

// SetLabel attaches a diagnostic label to a state.
func (b *Builder) SetLabel(i int, label string) {
	if b.labels == nil {
		b.labels = make([]string, b.n)
	}
	b.labels[i] = label
}

// intern returns d's distribution id. Two distributions are the same
// when their canonical strings are; a comparable value seen before is
// found without formatting it. (Equal values have equal strings, save
// parameters of ±0, which this merges.)
func (b *Builder) intern(d dist.Distribution) int32 {
	// Comparable is false for values holding slices, such as a Mixture,
	// which would panic as map keys; a NaN parameter makes a value
	// unequal to itself, and it would add a key per transition.
	keyed := reflect.ValueOf(d).Comparable() && selfEqual(d)
	if keyed {
		if id, ok := b.byValue[d]; ok {
			return id
		}
	}
	key := d.String()
	id, ok := b.byString[key]
	if !ok {
		id = int32(len(b.dists))
		b.dists = append(b.dists, d)
		b.byString[key] = id
	}
	if keyed {
		b.byValue[d] = id
	}
	return id
}

// selfEqual reports d == d, false when a parameter is NaN. d must be
// comparable.
func selfEqual(d dist.Distribution) bool {
	e := d
	return d == e
}

// Add records a transition from→to with conditional probability prob and
// sojourn distribution d. Distributions are interned (see intern).
func (b *Builder) Add(from, to int, prob float64, d dist.Distribution) {
	if from < 0 || from >= b.n || to < 0 || to >= b.n {
		panic(fmt.Sprintf("smp: transition (%d→%d) outside %d states", from, to, b.n))
	}
	if !(prob > 0) {
		panic(fmt.Sprintf("smp: transition (%d→%d) with non-positive probability %v", from, to, prob))
	}
	if d == nil {
		panic("smp: nil distribution")
	}
	b.from = append(b.from, int32(from))
	b.to = append(b.to, int32(to))
	b.prob = append(b.prob, prob)
	b.distID = append(b.distID, b.intern(d))
}

// Build validates and assembles the model. Every state must have
// outgoing probability summing to 1 (within 1e-9); the builder remains
// usable afterwards.
func (b *Builder) Build() (*Model, error) {
	m := &Model{n: b.n, dists: b.dists, labels: b.labels}

	// Group terms by source state, keeping each state's terms in the
	// order they were added.
	m.termPtr = make([]int, b.n+1)
	for _, f := range b.from {
		m.termPtr[f+1]++
	}
	for i := 0; i < b.n; i++ {
		m.termPtr[i+1] += m.termPtr[i]
	}
	nT := len(b.from)
	m.termTo = make([]int32, nT)
	m.termProb = make([]float64, nT)
	m.termDist = make([]int32, nT)
	pos := make([]int, b.n)
	copy(pos, m.termPtr[:b.n])
	for k, f := range b.from {
		p := pos[f]
		pos[f]++
		m.termTo[p] = b.to[k]
		m.termProb[p] = b.prob[k]
		m.termDist[p] = b.distID[k]
	}
	for i := 0; i < b.n; i++ {
		lo, hi := m.termPtr[i], m.termPtr[i+1]
		if lo == hi {
			return nil, fmt.Errorf("smp: state %d has no outgoing transitions (SMP must not have absorbing states)", i)
		}
		var s float64
		for _, p := range m.termProb[lo:hi] {
			s += p
		}
		if s < 1-1e-9 || s > 1+1e-9 {
			return nil, fmt.Errorf("smp: state %d outgoing probability sums to %v, want 1", i, s)
		}
	}

	// Kernel pattern over the distinct (from,to) pairs, row by row: a
	// row's few destinations are sorted in place and merged, and each
	// term finds its slot among them.
	rowPtr := make([]int, b.n+1)
	colIdx := make([]int, 0, nT)
	m.termSlot = make([]int32, nT)
	for i := 0; i < b.n; i++ {
		lo, hi := m.termPtr[i], m.termPtr[i+1]
		start := len(colIdx)
		for _, j := range m.termTo[lo:hi] {
			colIdx = insertSorted(colIdx, start, int(j))
		}
		row := colIdx[start:]
		for k := lo; k < hi; k++ {
			m.termSlot[k] = int32(start + slices.Index(row, int(m.termTo[k])))
		}
		rowPtr[i+1] = len(colIdx)
	}
	m.pattern = sparse.NewPatternCSR(b.n, b.n, rowPtr, colIdx)
	return m, nil
}

// insertSorted adds j to the ascending run cols[start:] unless it is
// already there.
func insertSorted(cols []int, start, j int) []int {
	k := len(cols)
	for k > start && cols[k-1] > j {
		k--
	}
	if k > start && cols[k-1] == j {
		return cols
	}
	cols = append(cols, 0)
	copy(cols[k+1:], cols[k:])
	cols[k] = j
	return cols
}
