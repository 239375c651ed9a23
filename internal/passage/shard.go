package passage

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"hydra/internal/partition"
	"hydra/internal/smp"
	"hydra/internal/sparse"
)

// This file implements the sharded form of the Eq. (10) vector solve:
// the kernel U(s) is split into contiguous row blocks, each held by one
// member (an in-process ShardSolver or a remote worker behind the fleet
// wire), and the conductor drives lock-step sweeps in which members
// exchange only boundary sub-vector entries. The arithmetic is arranged
// so a cold sharded solve is bitwise identical to the monolithic cold
// series in vector.go: every row product traverses the same CSR entries
// in the same order, the global increment norm is the max over block
// norms, and the shared convGauge makes the stopping decision at the
// same sweep. Warm points refine by Jacobi sweeps from an extrapolated
// seed, which agree with the monolithic Gauss–Seidel refinement to
// solver tolerance.

// ShardMember is one row block's side of the distributed sweep
// protocol. The conductor calls, in order: HaloColumns and SetBoundary
// once at session setup, then per s-point BeginPoint (or BeginPointFP),
// zero or more SweepNs, and Finish. All value slices are ordered to
// match the column and row lists exchanged at setup: halo values follow
// HaloColumns, boundary values follow the rows passed to SetBoundary.
type ShardMember interface {
	// Range returns the member's half-open row block [lo, hi).
	Range() (lo, hi int)
	// HaloColumns returns the sorted global columns outside [lo, hi)
	// referenced by the block's rows — the entries this member must
	// receive before every sweep.
	HaloColumns() []int
	// SetBoundary fixes the sorted rows of this block whose values other
	// members need; BeginPoint and SweepN return values for exactly these
	// rows, in order.
	SetBoundary(rows []int) error
	// BeginPoint prepares the block for a new s-point (filling the block
	// kernel if s changed) and seeds the iterate: the target-indicator
	// column for a cold point, the warm-start extrapolation for a warm
	// one. It returns the seed's boundary values.
	BeginPoint(s complex128, warm bool) ([]complex128, error)
	// BeginPointFP prepares a new s-point for the fixed-point iteration
	// z = e⃗ + U′·z, which converges from any start — what multi-sweep
	// batching with stale halos relies on: warm seeds the extrapolated
	// iterate exactly like BeginPoint, cold seeds the target-indicator
	// column e⃗. Subsequent sweeps run the pinned fixed-point update in
	// either case.
	BeginPointFP(s complex128, warm bool) ([]complex128, error)
	// SweepN runs inner (≥ 1) local sweeps against one halo exchange —
	// the other blocks' current halo values — and returns the boundary
	// values of the final sweep and the block's contribution to the
	// global increment max-norm. inner == 1 is the lock-step iteration;
	// inner > 1 requires a fixed-point begin. When early is non-nil it is
	// invoked once with the final sweep's boundary values before interior
	// rows are computed, and the returned boundary slice is nil.
	SweepN(halo []complex128, inner int, early func(boundary []complex128)) (boundary []complex128, norm float64, err error)
	// Finish closes a converged point given the final halo values and
	// returns the block's slice of the answer vector (length hi-lo).
	Finish(halo []complex128) ([]complex128, error)
}

// ShardComputeReporter is optionally implemented by members that can
// attribute pure compute time for their last BeginPoint/Sweep/Finish
// call — remote members report the worker-side figure so the conductor's
// critical-path accounting excludes wire latency.
type ShardComputeReporter interface {
	LastComputeNS() int64
}

// ShardSolver is the in-process ShardMember: one row block of one
// model's kernel, with its own fill memoisation and per-block warm-start
// history. It is the exact object a fleet worker hosts for its assigned
// block; the differential test harness runs several of them in one
// process to prove the sharded arithmetic against the monolithic
// solver.
type ShardSolver struct {
	m      *smp.Model
	opts   Options
	lo, hi int
	blk    *sparse.CMatrix
	// pblk is set when the block lives in a permuted coordinate space
	// (boundary-minimizing plans reorder states so blocks stay
	// contiguous); it owns blk's values and fills them per s-point. All
	// of lo/hi/halo/bound/x are then permuted positions, and the
	// conductor maps the assembled answer back through the plan's order.
	pblk  *smp.PermutedRowBlock
	halo  []int  // sorted global columns outside the block its rows read
	bound []int  // rows whose values the conductor collects
	bIdx  []int  // block-local boundary row indices (bound - lo)
	iIdx  []int  // block-local interior row indices (the complement)
	skip  []bool // block-local target flags

	lsts    []complex128
	filledS complex128
	filled  bool

	// x is a full-length column workspace: entries [lo, hi) hold the
	// block's own iterate, halo positions hold the last received
	// exchange, and nothing else is ever read — the block's rows
	// reference exactly own∪halo columns. O(n) workspace per member, but
	// the kernel values (the memory that matters at 10⁷ states) are 1/W.
	x    []complex128
	yOwn []complex128
	// Cold-series accumulators: z over own rows and over halo columns.
	// The halo part sums the received acc values sweep by sweep — the
	// same additions, in the same order, as the owning block performs on
	// its own z — so the closing U·z product is bitwise faithful.
	zOwn  []complex128
	zHalo []complex128
	zx    []complex128

	mode shardMode // iteration style of the current point

	// Block-local warm-start history: the last three converged fixed
	// points, extrapolated pointwise into the next seed.
	dirZ, dirZPrev, dirZPrev2 []complex128
	zWarm, zPrev, zPrev2      bool

	lastComputeNS int64
}

// shardMode is the iteration style of the current s-point.
type shardMode int8

const (
	// modeSeries is the cold accumulator series: acc sweeps through U′
	// while z accumulates, closed by a full U·z product.
	modeSeries shardMode = iota
	// modeWarm is the warm-seeded fixed-point iteration with target
	// rows pinned to 1, closed by the warm Finish.
	modeWarm
	// modeFPCold is the fixed-point iteration seeded from e⃗ instead of
	// a warm extrapolation — the batched path's cold start, converging
	// to the same z as the series. Finish resets the warm history (a
	// cold restart orphans the extrapolation) instead of rotating it.
	modeFPCold
)

// NewShardSolver builds the member for rows [lo, hi) of the model with
// the given target set. The target list is fixed per session: a sharded
// run serves one spec.
func NewShardSolver(m *smp.Model, opts Options, lo, hi int, targets []int) (*ShardSolver, error) {
	return newShardSolver(m, opts, nil, lo, hi, targets)
}

// NewShardSolverPermuted builds the member for positions [lo, hi) of a
// permuted state ordering (position → original state, the plan's
// order). Targets are original state numbers; halo columns, boundary
// rows and the answer block all live in permuted coordinates.
func NewShardSolverPermuted(m *smp.Model, opts Options, order []int, lo, hi int, targets []int) (*ShardSolver, error) {
	if order == nil {
		return nil, fmt.Errorf("passage: permuted shard solver with nil order")
	}
	return newShardSolver(m, opts, order, lo, hi, targets)
}

func newShardSolver(m *smp.Model, opts Options, order []int, lo, hi int, targets []int) (*ShardSolver, error) {
	n := m.N()
	if lo < 0 || hi > n || lo >= hi {
		return nil, fmt.Errorf("passage: shard block [%d,%d) outside model of %d states", lo, hi, n)
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("passage: empty target set")
	}
	for _, t := range targets {
		if t < 0 || t >= n {
			return nil, fmt.Errorf("passage: target state %d outside model of %d states", t, n)
		}
	}
	sv := &ShardSolver{
		m:    m,
		opts: opts.withDefaults(),
		lo:   lo,
		hi:   hi,
		skip: make([]bool, hi-lo),
		x:    make([]complex128, n),
		yOwn: make([]complex128, hi-lo),
		zOwn: make([]complex128, hi-lo),
	}
	if order == nil {
		sv.blk = m.NewKernelRowBlock(lo, hi)
		for _, t := range targets {
			if t >= lo && t < hi {
				sv.skip[t-lo] = true
			}
		}
	} else {
		if len(order) != n {
			return nil, fmt.Errorf("passage: shard order covers %d of %d states", len(order), n)
		}
		inv := make([]int, n)
		seenPos := make([]bool, n)
		for pos, row := range order {
			if row < 0 || row >= n || seenPos[row] {
				return nil, fmt.Errorf("passage: shard order is not a permutation at position %d", pos)
			}
			seenPos[row] = true
			inv[row] = pos
		}
		sv.pblk = m.NewPermutedRowBlock(order, lo, hi)
		sv.blk = sv.pblk.Matrix()
		for _, t := range targets {
			if p := inv[t]; p >= lo && p < hi {
				sv.skip[p-lo] = true
			}
		}
	}
	seen := make(map[int]bool)
	for i := 0; i < hi-lo; i++ {
		cols, _ := sv.blk.RowSlices(i)
		for _, c := range cols {
			if (c < lo || c >= hi) && !seen[c] {
				seen[c] = true
				sv.halo = append(sv.halo, c)
			}
		}
	}
	sort.Ints(sv.halo)
	sv.zHalo = make([]complex128, len(sv.halo))
	return sv, nil
}

// Range returns the block interval [lo, hi).
func (sv *ShardSolver) Range() (int, int) { return sv.lo, sv.hi }

// HaloColumns returns the block's sorted out-of-block column set.
func (sv *ShardSolver) HaloColumns() []int { return sv.halo }

// SetBoundary records which of the block's rows the conductor collects
// after every sweep.
func (sv *ShardSolver) SetBoundary(rows []int) error {
	for _, r := range rows {
		if r < sv.lo || r >= sv.hi {
			return fmt.Errorf("passage: boundary row %d outside block [%d,%d)", r, sv.lo, sv.hi)
		}
	}
	sv.bound = append(sv.bound[:0], rows...)
	// Precompute the block-local boundary/interior split so an
	// overlapped sweep can compute (and ship) boundary rows first.
	isB := make([]bool, sv.hi-sv.lo)
	sv.bIdx = sv.bIdx[:0]
	for _, r := range rows {
		sv.bIdx = append(sv.bIdx, r-sv.lo)
		isB[r-sv.lo] = true
	}
	sv.iIdx = sv.iIdx[:0]
	for i := range isB {
		if !isB[i] {
			sv.iIdx = append(sv.iIdx, i)
		}
	}
	return nil
}

// LastComputeNS reports the pure compute time of the last member call.
func (sv *ShardSolver) LastComputeNS() int64 { return sv.lastComputeNS }

func (sv *ShardSolver) boundaryVals() []complex128 {
	out := make([]complex128, len(sv.bound))
	for k, r := range sv.bound {
		out[k] = sv.x[r]
	}
	return out
}

func (sv *ShardSolver) scatterHalo(halo []complex128) error {
	if len(halo) != len(sv.halo) {
		return fmt.Errorf("passage: got %d halo values for %d halo columns", len(halo), len(sv.halo))
	}
	for k, c := range sv.halo {
		sv.x[c] = halo[k]
	}
	return nil
}

func (sv *ShardSolver) fill(s complex128) {
	if sv.filled && sv.filledS == s {
		return
	}
	sv.lsts = sv.m.DistLSTsInto(s, sv.lsts)
	if sv.pblk != nil {
		sv.pblk.FillSampled(sv.lsts)
	} else {
		sv.m.FillKernelRowBlockSampled(sv.lsts, sv.lo, sv.hi, sv.blk)
	}
	sv.filledS = s
	sv.filled = true
}

// BeginPoint implements ShardMember.
func (sv *ShardSolver) BeginPoint(s complex128, warm bool) ([]complex128, error) {
	start := time.Now()
	defer func() { sv.lastComputeNS = time.Since(start).Nanoseconds() }()
	sv.fill(s)
	if warm {
		if !sv.zWarm || len(sv.dirZ) != sv.hi-sv.lo {
			return nil, fmt.Errorf("passage: warm shard point requested with no converged seed")
		}
		own := sv.x[sv.lo:sv.hi]
		switch {
		case sv.zPrev2 && len(sv.dirZPrev2) == sv.hi-sv.lo:
			for i := range own {
				own[i] = 3*(sv.dirZ[i]-sv.dirZPrev[i]) + sv.dirZPrev2[i]
			}
		case sv.zPrev && len(sv.dirZPrev) == sv.hi-sv.lo:
			for i := range own {
				own[i] = 2*sv.dirZ[i] - sv.dirZPrev[i]
			}
		default:
			copy(own, sv.dirZ)
		}
		sv.mode = modeWarm
		return sv.boundaryVals(), nil
	}
	// Cold series: acc ← e⃗ over own rows, z ← e⃗.
	for i := range sv.zOwn {
		v := complex128(0)
		if sv.skip[i] {
			v = 1
		}
		sv.x[sv.lo+i] = v
		sv.zOwn[i] = v
	}
	for i := range sv.zHalo {
		sv.zHalo[i] = 0
	}
	sv.mode = modeSeries
	return sv.boundaryVals(), nil
}

// BeginPointFP implements ShardMember. A warm begin is exactly
// BeginPoint's warm path (the warm iteration already is the fixed
// point); a cold begin seeds e⃗ and iterates the same pinned update, so
// inner sweeps with stale halos stay a convergent block-Jacobi scheme
// from the first point of a contour.
func (sv *ShardSolver) BeginPointFP(s complex128, warm bool) ([]complex128, error) {
	if warm {
		return sv.BeginPoint(s, true)
	}
	start := time.Now()
	defer func() { sv.lastComputeNS = time.Since(start).Nanoseconds() }()
	sv.fill(s)
	for i := range sv.skip {
		v := complex128(0)
		if sv.skip[i] {
			v = 1
		}
		sv.x[sv.lo+i] = v
	}
	sv.mode = modeFPCold
	return sv.boundaryVals(), nil
}

// rowFixedPoint computes one row of the pinned fixed-point update
// y = U′·x with target rows pinned to 1. The entry loop matches
// MulVecSkipRows order for order, so row-by-row computation is bitwise
// identical to the block product.
func (sv *ShardSolver) rowFixedPoint(i int) complex128 {
	if sv.skip[i] {
		return 1
	}
	cols, vals := sv.blk.RowSlices(i)
	var sum complex128
	for e, c := range cols {
		sum += vals[e] * sv.x[c]
	}
	return sum
}

// rowSeries is rowFixedPoint for the cold accumulator series: target
// rows are zero (U′), everything else the plain row product.
func (sv *ShardSolver) rowSeries(i int) complex128 {
	if sv.skip[i] {
		return 0
	}
	cols, vals := sv.blk.RowSlices(i)
	var sum complex128
	for e, c := range cols {
		sum += vals[e] * sv.x[c]
	}
	return sum
}

func (sv *ShardSolver) boundaryFromY() []complex128 {
	out := make([]complex128, len(sv.bIdx))
	for k, i := range sv.bIdx {
		out[k] = sv.yOwn[i]
	}
	return out
}

// sweepOnceFixedPoint runs one pinned fixed-point sweep over the block,
// optionally shipping boundary rows via early before interior rows are
// computed, and returns the increment max-norm.
func (sv *ShardSolver) sweepOnceFixedPoint(early func([]complex128)) float64 {
	own := sv.x[sv.lo:sv.hi]
	if early != nil {
		for _, i := range sv.bIdx {
			sv.yOwn[i] = sv.rowFixedPoint(i)
		}
		early(sv.boundaryFromY())
		for _, i := range sv.iIdx {
			sv.yOwn[i] = sv.rowFixedPoint(i)
		}
	} else {
		sv.blk.MulVecSkipRows(sv.x, sv.yOwn, sv.skip)
		for i, isT := range sv.skip {
			if isT {
				sv.yOwn[i] = 1
			}
		}
	}
	var m float64
	for i := range sv.yOwn {
		d := sv.yOwn[i] - own[i]
		m = nanMax(m, math.Hypot(real(d), imag(d)))
	}
	copy(own, sv.yOwn)
	return m
}

// sweepOnceSeries runs one cold accumulator sweep (the caller has
// already folded the received halo into zHalo).
func (sv *ShardSolver) sweepOnceSeries(early func([]complex128)) float64 {
	if early != nil {
		for _, i := range sv.bIdx {
			sv.yOwn[i] = sv.rowSeries(i)
		}
		early(sv.boundaryFromY())
		for _, i := range sv.iIdx {
			sv.yOwn[i] = sv.rowSeries(i)
		}
	} else {
		sv.blk.MulVecSkipRows(sv.x, sv.yOwn, sv.skip)
	}
	m := maxNorm(sv.yOwn)
	for i := range sv.yOwn {
		sv.zOwn[i] += sv.yOwn[i]
	}
	copy(sv.x[sv.lo:sv.hi], sv.yOwn)
	return m
}

// SweepN implements ShardMember.
func (sv *ShardSolver) SweepN(halo []complex128, inner int, early func([]complex128)) ([]complex128, float64, error) {
	start := time.Now()
	defer func() { sv.lastComputeNS = time.Since(start).Nanoseconds() }()
	if inner < 1 {
		inner = 1
	}
	if inner > sv.opts.MaxR {
		return nil, 0, fmt.Errorf("passage: %d inner sweeps exceed the %d-sweep cap", inner, sv.opts.MaxR)
	}
	if inner > 1 && sv.mode == modeSeries {
		return nil, 0, fmt.Errorf("passage: inner-sweep batching requires a fixed-point begin")
	}
	if err := sv.scatterHalo(halo); err != nil {
		return nil, 0, err
	}
	var m float64
	if sv.mode == modeSeries {
		// The received halo values are the previous accumulator, which
		// the cold z sum needs at halo columns just as it needs own rows.
		for k := range halo {
			sv.zHalo[k] += halo[k]
		}
		m = sv.sweepOnceSeries(early)
	} else {
		// Inner sweeps iterate against stale halo values; only the final
		// sweep's boundary and norm are observable outside.
		for t := 0; t < inner-1; t++ {
			sv.sweepOnceFixedPoint(nil)
		}
		m = sv.sweepOnceFixedPoint(early)
	}
	if early != nil {
		return nil, m, nil
	}
	return sv.boundaryVals(), m, nil
}

// Finish implements ShardMember.
func (sv *ShardSolver) Finish(halo []complex128) ([]complex128, error) {
	start := time.Now()
	defer func() { sv.lastComputeNS = time.Since(start).Nanoseconds() }()
	out := make([]complex128, sv.hi-sv.lo)
	if sv.mode != modeSeries {
		if err := sv.scatterHalo(halo); err != nil {
			return nil, err
		}
		own := sv.x[sv.lo:sv.hi]
		// Non-target rows of U·z are z itself at the fixed point; only
		// target rows need the real row product (see closePassage).
		copy(out, own)
		for i, isT := range sv.skip {
			if !isT {
				continue
			}
			cols, vals := sv.blk.RowSlices(i)
			var sum complex128
			for e, k := range cols {
				sum += vals[e] * sv.x[k]
			}
			out[i] = sum
		}
		if sv.opts.WarmStart {
			if sv.mode == modeWarm {
				sv.dirZPrev2, sv.dirZPrev, sv.dirZ =
					sv.dirZPrev, sv.dirZ, append(sv.dirZPrev2[:0], own...)
				sv.zPrev2 = sv.zPrev
				sv.zPrev = true
			} else {
				// A cold fixed-point restart orphans the extrapolation
				// history, exactly like the cold series does.
				sv.dirZ = append(sv.dirZ[:0], own...)
				sv.zWarm = true
				sv.zPrev, sv.zPrev2 = false, false
			}
		}
		return out, nil
	}
	if len(halo) != len(sv.halo) {
		return nil, fmt.Errorf("passage: got %d halo values for %d halo columns", len(halo), len(sv.halo))
	}
	// Final accumulator joins the z sum, then out = U·z over the block.
	for k := range halo {
		sv.zHalo[k] += halo[k]
	}
	sv.zx = resizeC(sv.zx, sv.m.N())
	copy(sv.zx[sv.lo:sv.hi], sv.zOwn)
	for k, c := range sv.halo {
		sv.zx[c] = sv.zHalo[k]
	}
	sv.blk.MulVec(sv.zx, out)
	if sv.opts.WarmStart {
		sv.dirZ = append(sv.dirZ[:0], sv.zOwn...)
		sv.zWarm = true
		sv.zPrev, sv.zPrev2 = false, false // a cold restart orphans the extrapolation history
	}
	return out, nil
}

// ShardStats counts a session's distributed work.
type ShardStats struct {
	Points     int   // s-points solved
	Sweeps     int64 // sweeps across all points (inner sweeps included)
	Exchanged  int64 // complex boundary/halo values moved between blocks
	ComputeNS  int64 // summed member compute time
	CriticalNS int64 // per-round max member compute, summed — the sharded critical path
	Boundary   int   // ledger size: states whose values cross blocks per exchange
	ExchangeNS int64 // per-round wall beyond the slowest member's compute, summed
}

// ShardTuning selects the exchange optimisations. The zero value is
// lock-step conduct: the cold accumulator series, one halo exchange per
// sweep, boundary values returned after the whole block is swept.
type ShardTuning struct {
	// Overlap ships each member's boundary rows before its interior
	// rows are computed, so boundary exchange rides under interior
	// compute instead of after it.
	Overlap bool
	// InnerSweeps caps how many local sweeps a member may run per halo
	// exchange (block-Jacobi inner iterations against stale halos). The
	// conductor adapts the actual count per exchange from the observed
	// contraction rate; ≤ 1 means lock-step.
	InnerSweeps int
}

// innerPlanner adapts the inner-sweep count to the observed per-sweep
// contraction ρ̂: from increment norm m, reaching Epsilon takes about
// log(eps/m)/log(ρ̂) further sweeps, and the planner authorises half of
// that (capped) per exchange — aggressive enough to collapse most round
// trips, conservative enough that the gauge still observes the tail.
// The endgame (m < eps) returns to lock-step so stopping decisions see
// every sweep.
type innerPlanner struct {
	limit int
	eps   float64
	prevM float64
}

func newInnerPlanner(limit int, eps float64) innerPlanner {
	return innerPlanner{limit: limit, eps: eps, prevM: math.NaN()}
}

// next picks the inner-sweep count for the exchange following one that
// ran k sweeps and ended with increment norm m.
func (p *innerPlanner) next(m float64, k int) int {
	prev := p.prevM
	p.prevM = m
	if !(m > 0) || m < p.eps {
		return 1
	}
	if math.IsNaN(prev) || prev <= 0 || m >= prev {
		return 1
	}
	rho := math.Pow(m/prev, 1/float64(k))
	if rho >= 1 {
		return 1
	}
	sweepsLeft := math.Log(p.eps/m) / math.Log(rho)
	next := int(sweepsLeft / 2)
	if next < 1 {
		return 1
	}
	if next > p.limit {
		return p.limit
	}
	return next
}

// ShardSession conducts lock-step sweeps over a set of members whose row
// blocks partition one model's state space. The session owns the
// boundary ledger (which block needs which rows) and the convergence
// gauge; members own kernels and iterates. Safe for one solve at a
// time.
type ShardSession struct {
	n       int
	opts    Options
	members []ShardMember
	los     []int
	his     []int
	halos   [][]int
	bounds  [][]int // per member: its rows that some other member reads
	bvals   []complex128
	haloBuf [][]complex128
	elapsed []int64

	tuning ShardTuning
	// earlyErrs collects per-member early-frame validation failures
	// raised inside the fan-out callbacks of an overlapped exchange.
	earlyErrs []error

	haveSeed bool
	lastWarm bool
	stats    ShardStats
}

// NewShardSession validates that the members' blocks tile [0, n) and
// distributes the boundary ledger: every halo column of every member is
// routed to the block that owns it. tuning selects overlapped exchange
// and inner-sweep batching; its zero value is lock-step conduct.
func NewShardSession(n int, members []ShardMember, opts Options, tuning ShardTuning) (*ShardSession, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("passage: shard session with no members")
	}
	ss := &ShardSession{
		n:       n,
		opts:    opts.withDefaults(),
		members: append([]ShardMember(nil), members...),
		bvals:   make([]complex128, n),
		elapsed: make([]int64, len(members)),

		tuning:    tuning,
		earlyErrs: make([]error, len(members)),
	}
	sort.Slice(ss.members, func(i, j int) bool {
		li, _ := ss.members[i].Range()
		lj, _ := ss.members[j].Range()
		return li < lj
	})
	pos := 0
	for _, m := range ss.members {
		lo, hi := m.Range()
		if lo != pos || hi <= lo {
			return nil, fmt.Errorf("passage: shard blocks do not tile the state space (gap at row %d)", pos)
		}
		ss.los = append(ss.los, lo)
		ss.his = append(ss.his, hi)
		pos = hi
	}
	if pos != n {
		return nil, fmt.Errorf("passage: shard blocks cover %d of %d states", pos, n)
	}
	needed := make(map[int]bool)
	for _, m := range ss.members {
		halo := append([]int(nil), m.HaloColumns()...)
		ss.halos = append(ss.halos, halo)
		ss.haloBuf = append(ss.haloBuf, make([]complex128, len(halo)))
		for _, c := range halo {
			if c < 0 || c >= n {
				return nil, fmt.Errorf("passage: halo column %d outside %d states", c, n)
			}
			needed[c] = true
		}
	}
	ss.bounds = make([][]int, len(ss.members))
	for c := range needed {
		w := ss.ownerOf(c)
		ss.bounds[w] = append(ss.bounds[w], c)
	}
	for w, rows := range ss.bounds {
		sort.Ints(rows)
		ss.stats.Boundary += len(rows)
		if err := ss.members[w].SetBoundary(rows); err != nil {
			return nil, err
		}
	}
	return ss, nil
}

func (ss *ShardSession) ownerOf(row int) int {
	return sort.Search(len(ss.his), func(w int) bool { return row < ss.his[w] })
}

// Members returns the session's members in block order.
func (ss *ShardSession) Members() []ShardMember { return ss.members }

// Stats returns the session's accumulated counters.
func (ss *ShardSession) Stats() ShardStats { return ss.stats }

// LastWarm reports whether the last converged point ran warm.
func (ss *ShardSession) LastWarm() bool { return ss.lastWarm }

// InvalidateSeed drops the warm seed, forcing the next point cold —
// used by conductors after re-sharding onto fresh members.
func (ss *ShardSession) InvalidateSeed() { ss.haveSeed = false }

// each runs fn for every member concurrently and returns the first
// error (by member order). Member calls are network round-trips for
// remote members, so the fan-out is what overlaps block compute.
func (ss *ShardSession) each(fn func(w int) error) error {
	errs := make([]error, len(ss.members))
	var wg sync.WaitGroup
	for w := range ss.members {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			start := time.Now()
			errs[w] = fn(w)
			ss.elapsed[w] = time.Since(start).Nanoseconds()
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// noteRound folds one fan-out's member timings into the stats: summed
// compute plus the round's slowest member (the critical path). Members
// that report their own compute time override the wall measurement, and
// the gap between the round's wall (slowest member call, wire included)
// and its slowest compute is attributed to exchange.
func (ss *ShardSession) noteRound() {
	var worstWall, worstCompute int64
	for w, m := range ss.members {
		wall := ss.elapsed[w]
		ns := wall
		if rep, ok := m.(ShardComputeReporter); ok {
			ns = rep.LastComputeNS()
		}
		ss.stats.ComputeNS += ns
		if ns > worstCompute {
			worstCompute = ns
		}
		if wall > worstWall {
			worstWall = wall
		}
	}
	ss.stats.CriticalNS += worstCompute
	if d := worstWall - worstCompute; d > 0 {
		ss.stats.ExchangeNS += d
	}
}

func (ss *ShardSession) scatterBoundary(w int, vals []complex128) error {
	if len(vals) != len(ss.bounds[w]) {
		return fmt.Errorf("passage: member %d returned %d boundary values, want %d", w, len(vals), len(ss.bounds[w]))
	}
	for k, r := range ss.bounds[w] {
		ss.bvals[r] = vals[k]
	}
	ss.stats.Exchanged += int64(len(vals))
	return nil
}

func (ss *ShardSession) gatherHalo(w int) []complex128 {
	buf := ss.haloBuf[w]
	for k, c := range ss.halos[w] {
		buf[k] = ss.bvals[c]
	}
	ss.stats.Exchanged += int64(len(buf))
	return buf
}

// SolvePoint evaluates the full passage vector at s across the shards.
// wantWarm asks for a warm start, honoured when the options allow it
// and a converged seed exists; like Solver.VectorLST, a warm run that
// fails to converge is retried cold before reporting an error. The
// returned sweep count mirrors the monolithic depth/sweep figure.
func (ss *ShardSession) SolvePoint(s complex128, wantWarm bool) ([]complex128, int, error) {
	warm := wantWarm && ss.opts.WarmStart && ss.haveSeed
	out, r, err := ss.solvePoint(s, warm)
	if err != nil && warm {
		ss.haveSeed = false
		out, r, err = ss.solvePoint(s, false)
	}
	return out, r, err
}

// earlyScatter returns the callback member w uses to ship its boundary
// rows mid-sweep. Members own disjoint boundary row sets, so concurrent
// callbacks write disjoint ledger entries; validation failures are
// parked in earlyErrs for the conductor to surface after the fan-out.
func (ss *ShardSession) earlyScatter(w int) func([]complex128) {
	ss.earlyErrs[w] = nil
	return func(vals []complex128) {
		if len(vals) != len(ss.bounds[w]) {
			ss.earlyErrs[w] = fmt.Errorf("passage: member %d shipped %d early boundary values, want %d",
				w, len(vals), len(ss.bounds[w]))
			return
		}
		for k, r := range ss.bounds[w] {
			ss.bvals[r] = vals[k]
		}
	}
}

func (ss *ShardSession) solvePoint(s complex128, warm bool) ([]complex128, int, error) {
	batch := ss.tuning.InnerSweeps > 1
	begin := make([][]complex128, len(ss.members))
	err := ss.each(func(w int) error {
		var err error
		if batch {
			begin[w], err = ss.members[w].BeginPointFP(s, warm)
		} else {
			begin[w], err = ss.members[w].BeginPoint(s, warm)
		}
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	ss.noteRound()
	for w := range ss.members {
		if err := ss.scatterBoundary(w, begin[w]); err != nil {
			return nil, 0, err
		}
	}
	gauge := newConvGauge(ss.opts.Epsilon)
	planner := newInnerPlanner(ss.tuning.InnerSweeps, ss.opts.Epsilon)
	norms := make([]float64, len(ss.members))
	bounds := make([][]complex128, len(ss.members))
	sweeps, k := 0, 1
	for sweeps < ss.opts.MaxR {
		if k > ss.opts.MaxR-sweeps {
			k = ss.opts.MaxR - sweeps
		}
		// Halos are gathered before the fan-out: the goroutines below
		// must not touch the shared boundary ledger concurrently (the
		// early callbacks write only their member's own ledger rows).
		for w := range ss.members {
			ss.gatherHalo(w)
		}
		inner := k
		err := ss.each(func(w int) error {
			var early func([]complex128)
			if ss.tuning.Overlap {
				early = ss.earlyScatter(w)
			}
			var err error
			bounds[w], norms[w], err = ss.members[w].SweepN(ss.haloBuf[w], inner, early)
			return err
		})
		sweeps += inner
		if err != nil {
			return nil, sweeps, err
		}
		ss.noteRound()
		ss.stats.Sweeps += int64(inner)
		var m float64
		for w := range ss.members {
			if ss.tuning.Overlap {
				if ss.earlyErrs[w] != nil {
					return nil, sweeps, ss.earlyErrs[w]
				}
				ss.stats.Exchanged += int64(len(ss.bounds[w]))
			} else if err := ss.scatterBoundary(w, bounds[w]); err != nil {
				return nil, sweeps, err
			}
			m = nanMax(m, norms[w])
		}
		if !finite(m) {
			return nil, sweeps, nonFinite(s, sweeps)
		}
		// A batched exchange's final sweep ran against a halo that is
		// inner sweeps stale, so its increment norm underestimates the
		// true residual; acceptance is gated on lock-step exchanges,
		// whose norms are exactly the monolithic Jacobi increments. The
		// planner returns to k = 1 once norms reach Epsilon, so the gate
		// costs at most one extra confirmation round.
		if !gauge.converged(m, inner) || inner > 1 {
			if batch {
				k = planner.next(m, inner)
			}
			continue
		}
		blocks := make([][]complex128, len(ss.members))
		for w := range ss.members {
			ss.gatherHalo(w)
		}
		err = ss.each(func(w int) error {
			blk, err := ss.members[w].Finish(ss.haloBuf[w])
			if err != nil {
				return err
			}
			blocks[w] = blk
			return nil
		})
		if err != nil {
			return nil, sweeps, err
		}
		ss.noteRound()
		out := make([]complex128, ss.n)
		for w, blk := range blocks {
			if len(blk) != ss.his[w]-ss.los[w] {
				return nil, sweeps, fmt.Errorf("passage: member %d returned %d values for block [%d,%d)",
					w, len(blk), ss.los[w], ss.his[w])
			}
			copy(out[ss.los[w]:ss.his[w]], blk)
		}
		ss.haveSeed = ss.opts.WarmStart
		ss.lastWarm = warm
		ss.stats.Points++
		return out, sweeps, nil
	}
	if warm {
		return nil, ss.opts.MaxR, fmt.Errorf("%w: sharded warm refinement after %d sweeps at s=%v",
			ErrNoConvergence, ss.opts.MaxR, s)
	}
	return nil, ss.opts.MaxR, fmt.Errorf("%w: sharded series after %d sweeps at s=%v",
		ErrNoConvergence, ss.opts.MaxR, s)
}

// SolveSharded runs a whole point list through an in-process sharded
// session over parts row blocks — the reference driver for the
// differential harness and for single-host intra-point distribution.
// segment mirrors SolveSpec.SegmentHint: indices at multiples of it
// start cold, because the contour jumps between blocks.
func SolveSharded(m *smp.Model, opts Options, parts int, targets []int, points []complex128, segment int) ([][]complex128, *ShardStats, error) {
	ranges := partition.ShardBlocks(m.N(), parts, targets)
	members := make([]ShardMember, len(ranges))
	for i, r := range ranges {
		sv, err := NewShardSolver(m, opts, r.Lo, r.Hi, targets)
		if err != nil {
			return nil, nil, err
		}
		members[i] = sv
	}
	ss, err := NewShardSession(m.N(), members, opts, ShardTuning{})
	if err != nil {
		return nil, nil, err
	}
	out := make([][]complex128, len(points))
	for idx, s := range points {
		wantWarm := idx > 0 && !(segment > 0 && idx%segment == 0)
		v, _, err := ss.SolvePoint(s, wantWarm)
		if err != nil {
			return nil, nil, fmt.Errorf("point %d (s=%v): %w", idx, s, err)
		}
		out[idx] = v
	}
	stats := ss.Stats()
	return out, &stats, nil
}
