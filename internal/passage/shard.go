package passage

import (
	"fmt"
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
// wire), and the conductor drives lock-step sweeps of the cold series in
// which members exchange only boundary sub-vector entries, once per
// sweep. The arithmetic is arranged so a sharded solve is bitwise
// identical to the monolithic cold series in vector.go: every row
// product traverses the same CSR entries in the same order, the global
// increment norm is the max over block norms, and the shared convGauge
// makes the stopping decision at the same sweep. (A boundary-minimizing
// plan that permutes the states sums each row in permuted column order
// instead, and agrees to rounding.) Every point starts cold; there is
// no warm seed.

// ShardMember is one row block's side of the distributed sweep
// protocol. The conductor calls, in order: HaloColumns and SetBoundary
// once at session setup, then per s-point BeginPoint, one Sweep per
// exchange, and Finish. All value slices are ordered to match the
// column and row lists exchanged at setup: halo values follow
// HaloColumns, boundary values follow the rows passed to SetBoundary.
type ShardMember interface {
	// Range returns the member's half-open row block [lo, hi).
	Range() (lo, hi int)
	// HaloColumns returns the sorted global columns outside [lo, hi)
	// referenced by the block's rows — the entries this member must
	// receive before every sweep.
	HaloColumns() []int
	// SetBoundary fixes the sorted rows of this block whose values other
	// members need; BeginPoint and Sweep return values for exactly these
	// rows, in order.
	SetBoundary(rows []int) error
	// BeginPoint prepares the block for a new s-point (filling the block
	// kernel if s changed), seeds the series with the target-indicator
	// column and returns the seed's boundary values.
	BeginPoint(s complex128) ([]complex128, error)
	// Sweep runs one series term over the block against the other
	// blocks' current halo values and returns the new boundary values
	// and the block's contribution to the global increment max-norm.
	Sweep(halo []complex128) (boundary []complex128, norm float64, err error)
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
// model's kernel, with its own fill memoisation. It is the exact object
// a fleet worker hosts for its assigned block; the differential test
// harness runs several of them in one process to prove the sharded
// arithmetic against the monolithic solver.
type ShardSolver struct {
	m      *smp.Model
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
	skip  []bool // block-local target flags

	lsts    []complex128
	filledS complex128
	filled  bool

	// x is a full-length column workspace: entries [lo, hi) hold the
	// block's own accumulator, halo positions hold the last received
	// exchange, and nothing else is ever read — the block's rows
	// reference exactly own∪halo columns. O(n) workspace per member, but
	// the kernel values (the memory that matters at 10⁷ states) are 1/W.
	x    []complex128
	yOwn []complex128
	// The series sum z over own rows and over halo columns. The halo
	// part sums the received accumulator values sweep by sweep — the
	// same additions, in the same order, as the owning block performs on
	// its own z — so the closing U·z product is bitwise faithful.
	zOwn  []complex128
	zHalo []complex128
	zx    []complex128

	lastComputeNS int64
}

// NewShardSolver builds the member for rows [lo, hi) of the model with
// the given target set. The target list is fixed per session: a sharded
// run serves one spec.
func NewShardSolver(m *smp.Model, lo, hi int, targets []int) (*ShardSolver, error) {
	return newShardSolver(m, nil, lo, hi, targets)
}

// NewShardSolverPermuted builds the member for positions [lo, hi) of a
// permuted state ordering (position → original state, the plan's
// order). Targets are original state numbers; halo columns, boundary
// rows and the answer block all live in permuted coordinates.
func NewShardSolverPermuted(m *smp.Model, order []int, lo, hi int, targets []int) (*ShardSolver, error) {
	if order == nil {
		return nil, fmt.Errorf("passage: permuted shard solver with nil order")
	}
	return newShardSolver(m, order, lo, hi, targets)
}

func newShardSolver(m *smp.Model, order []int, lo, hi int, targets []int) (*ShardSolver, error) {
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

// takeHalo scatters received halo values into x and adds them to the
// halo part of the series sum: they are the owning blocks' previous
// accumulator.
func (sv *ShardSolver) takeHalo(halo []complex128) error {
	if len(halo) != len(sv.halo) {
		return fmt.Errorf("passage: got %d halo values for %d halo columns", len(halo), len(sv.halo))
	}
	for k, c := range sv.halo {
		sv.x[c] = halo[k]
		sv.zHalo[k] += halo[k]
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

// BeginPoint implements ShardMember: acc ← e⃗ over own rows, z ← e⃗.
func (sv *ShardSolver) BeginPoint(s complex128) ([]complex128, error) {
	start := time.Now()
	defer func() { sv.lastComputeNS = time.Since(start).Nanoseconds() }()
	sv.fill(s)
	for i := range sv.zOwn {
		v := complex128(0)
		if sv.skip[i] {
			v = 1
		}
		sv.x[sv.lo+i] = v
		sv.zOwn[i] = v
	}
	clear(sv.zHalo)
	return sv.boundaryVals(), nil
}

// Sweep implements ShardMember: acc ← U′·acc over the block, z += acc.
func (sv *ShardSolver) Sweep(halo []complex128) ([]complex128, float64, error) {
	start := time.Now()
	defer func() { sv.lastComputeNS = time.Since(start).Nanoseconds() }()
	if err := sv.takeHalo(halo); err != nil {
		return nil, 0, err
	}
	sv.blk.MulVecSkipRows(sv.x, sv.yOwn, sv.skip)
	m := maxNorm(sv.yOwn)
	for i := range sv.yOwn {
		sv.zOwn[i] += sv.yOwn[i]
	}
	copy(sv.x[sv.lo:sv.hi], sv.yOwn)
	return sv.boundaryVals(), m, nil
}

// Finish implements ShardMember: the final accumulator joins the z sum,
// then out = U·z over the block.
func (sv *ShardSolver) Finish(halo []complex128) ([]complex128, error) {
	start := time.Now()
	defer func() { sv.lastComputeNS = time.Since(start).Nanoseconds() }()
	if err := sv.takeHalo(halo); err != nil {
		return nil, err
	}
	sv.zx = resizeC(sv.zx, sv.m.N())
	copy(sv.zx[sv.lo:sv.hi], sv.zOwn)
	for k, c := range sv.halo {
		sv.zx[c] = sv.zHalo[k]
	}
	out := make([]complex128, sv.hi-sv.lo)
	sv.blk.MulVec(sv.zx, out)
	return out, nil
}

// ShardStats counts a session's distributed work.
type ShardStats struct {
	Points     int   // s-points solved
	Sweeps     int64 // sweeps across all points
	Exchanged  int64 // complex boundary/halo values moved between blocks
	ComputeNS  int64 // summed member compute time
	CriticalNS int64 // per-round max member compute, summed — the sharded critical path
	Boundary   int   // ledger size: states whose values cross blocks per exchange
	ExchangeNS int64 // per-round wall beyond the slowest member's compute, summed
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
	stats   ShardStats
}

// NewShardSession validates that the members' blocks tile [0, n) and
// distributes the boundary ledger: every halo column of every member is
// routed to the block that owns it. opts supplies the convergence gauge's
// Epsilon and the MaxR sweep cap.
func NewShardSession(n int, members []ShardMember, opts Options) (*ShardSession, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("passage: shard session with no members")
	}
	ss := &ShardSession{
		n:       n,
		opts:    opts.withDefaults(),
		members: append([]ShardMember(nil), members...),
		bvals:   make([]complex128, n),
		elapsed: make([]int64, len(members)),
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

// Stats returns the session's accumulated counters.
func (ss *ShardSession) Stats() ShardStats { return ss.stats }

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

// SolvePoint evaluates the full passage vector at s across the shards
// by the cold series, one halo exchange per sweep. The returned sweep
// count is the monolithic series depth. A point outside Re s > 0 is an
// ErrHalfPlane before any member is asked to sweep.
func (ss *ShardSession) SolvePoint(s complex128) ([]complex128, int, error) {
	if err := checkHalfPlane(s); err != nil {
		return nil, 0, err
	}
	begin := make([][]complex128, len(ss.members))
	err := ss.each(func(w int) error {
		var err error
		begin[w], err = ss.members[w].BeginPoint(s)
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
	norms := make([]float64, len(ss.members))
	bounds := make([][]complex128, len(ss.members))
	for sweeps := 1; sweeps <= ss.opts.MaxR; sweeps++ {
		// Halos are gathered before the fan-out: the goroutines below
		// must not touch the shared boundary ledger concurrently.
		for w := range ss.members {
			ss.gatherHalo(w)
		}
		err := ss.each(func(w int) error {
			var err error
			bounds[w], norms[w], err = ss.members[w].Sweep(ss.haloBuf[w])
			return err
		})
		if err != nil {
			return nil, sweeps, err
		}
		ss.noteRound()
		ss.stats.Sweeps++
		var m float64
		for w := range ss.members {
			if err := ss.scatterBoundary(w, bounds[w]); err != nil {
				return nil, sweeps, err
			}
			m = nanMax(m, norms[w])
		}
		if !finite(m) {
			return nil, sweeps, nonFinite(s, sweeps)
		}
		if !gauge.converged(m) {
			continue
		}
		out, err := ss.finish()
		if err != nil {
			return nil, sweeps, err
		}
		ss.stats.Points++
		return out, sweeps, nil
	}
	return nil, ss.opts.MaxR, fmt.Errorf("%w: sharded series after %d sweeps at s=%v",
		ErrNoConvergence, ss.opts.MaxR, s)
}

// finish closes a converged point: every member receives the final
// halo and returns its block of U·z, assembled here in block order.
func (ss *ShardSession) finish() ([]complex128, error) {
	blocks := make([][]complex128, len(ss.members))
	for w := range ss.members {
		ss.gatherHalo(w)
	}
	err := ss.each(func(w int) error {
		var err error
		blocks[w], err = ss.members[w].Finish(ss.haloBuf[w])
		return err
	})
	if err != nil {
		return nil, err
	}
	ss.noteRound()
	out := make([]complex128, ss.n)
	for w, blk := range blocks {
		if len(blk) != ss.his[w]-ss.los[w] {
			return nil, fmt.Errorf("passage: member %d returned %d values for block [%d,%d)",
				w, len(blk), ss.los[w], ss.his[w])
		}
		copy(out[ss.los[w]:ss.his[w]], blk)
	}
	return out, nil
}

// SolveSharded runs a whole point list through an in-process sharded
// session over parts row blocks — the reference driver for the
// differential harness and for single-host intra-point distribution.
func SolveSharded(m *smp.Model, opts Options, parts int, targets []int, points []complex128) ([][]complex128, *ShardStats, error) {
	ranges := partition.ShardBlocks(m.N(), parts, targets)
	members := make([]ShardMember, len(ranges))
	for i, r := range ranges {
		sv, err := NewShardSolver(m, r.Lo, r.Hi, targets)
		if err != nil {
			return nil, nil, err
		}
		members[i] = sv
	}
	ss, err := NewShardSession(m.N(), members, opts)
	if err != nil {
		return nil, nil, err
	}
	out := make([][]complex128, len(points))
	for idx, s := range points {
		v, _, err := ss.SolvePoint(s)
		if err != nil {
			return nil, nil, fmt.Errorf("point %d (s=%v): %w", idx, s, err)
		}
		out[idx] = v
	}
	stats := ss.Stats()
	return out, &stats, nil
}
