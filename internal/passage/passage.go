// Package passage implements the paper's primary contribution: the
// iterative algorithm of §3 for first-passage-time Laplace transforms in
// large structurally-unrestricted semi-Markov processes, together with
// the direct linear-system baseline of Eq. (2)–(3) and the transient
// state distributions of Eq. (6)–(7).
//
// Both source-indexed quantities come out of one column-form driver (see
// vector.go) solving z = b + A·z with A the kernel U(s): passage makes
// the targets absorbing and closes with one product by U, transient
// solves the Markov-renewal form of Eq. (6)–(7), which needs one column
// per s-point however many target states there are.
//
// All quantities are computed one Laplace point s at a time: the caller
// (in-process loop or distributed worker) owns the iteration over the
// s-points demanded by the inverter in package lt.
package passage

import (
	"errors"
	"fmt"
	"math"
	"time"

	"hydra/internal/dtmc"
	"hydra/internal/smp"
	"hydra/internal/sparse"
)

// ErrNoConvergence is returned when the Eq. (10) accumulator or the
// Gauss–Seidel baseline exhausts its iteration budget.
var ErrNoConvergence = errors.New("passage: iteration did not converge")

// Options tunes the solvers.
type Options struct {
	// Epsilon is the truncation bound of the Eq. (10) sum (default
	// 1e-8): a solve stops once the geometric tail bound on what the
	// remaining terms can add falls below it (see convGauge).
	Epsilon float64
	// MaxR caps the transition depth r of the iterative sum
	// (default 1<<20).
	MaxR int
	// GSEpsilon is the convergence bound of the direct Gauss–Seidel
	// baseline and of the transient route (default 1e-10). T*(s) keeps
	// the tighter bound it always had: the Euler sum that inverts it
	// multiplies its error by up to e^{A/2}/2t, which at small t turns
	// an Epsilon-sized error into visible curve error.
	GSEpsilon float64
	// GSMaxIter caps Gauss–Seidel sweeps (default 10000).
	GSMaxIter int
	// WarmStart lets consecutive solves that share a quantity and target
	// set seed each iteration from the previous s-point's solution
	// vector. On the smooth contour segments the inverters in package lt
	// produce, neighbouring s-points have nearby solutions, so the warm
	// iterate cuts sweep counts; correctness is unchanged because the
	// iteration converges to the same fixed point from any start.
	// Off by default: warm-started answers agree with cold ones only to
	// solver tolerance, and callers that pin bit-exact reproducibility
	// across runs (or scatter non-adjacent s-points over one solver)
	// should leave it off.
	WarmStart bool
	// ShardInnerSweeps caps how many local sweeps a shard member may
	// run per halo exchange (multi-sweep batching, block-Jacobi with
	// stale halos). The conductor adapts the actual count per exchange
	// from the observed contraction rate and never exceeds this cap.
	// 0 or 1 means lock-step: one exchange per sweep. Only sharded
	// solves read it.
	ShardInnerSweeps int
	// ShardOverlapRows gates overlapped halo exchange (early-boundary
	// frames shipped while interior rows sweep) by block size: overlap
	// is used only when each member holds at least this many rows, since
	// shipping a separate early frame per round only pays once the
	// interior sweep is long enough to hide the relay behind. 0 means
	// the default threshold (DefaultShardOverlapRows); a negative value
	// disables overlap entirely. Only sharded solves read it.
	ShardOverlapRows int
}

// DefaultShardOverlapRows is the block size above which overlapped
// halo exchange pays for its extra per-round frame: at typical sweep
// throughput an interior of ~10^5 rows takes long enough (~ms) to hide
// a relay round trip behind.
const DefaultShardOverlapRows = 100_000

func (o Options) withDefaults() Options {
	if o.Epsilon == 0 {
		o.Epsilon = 1e-8
	}
	if o.MaxR == 0 {
		o.MaxR = 1 << 20
	}
	if o.GSEpsilon == 0 {
		o.GSEpsilon = 1e-10
	}
	if o.GSMaxIter == 0 {
		o.GSMaxIter = 10000
	}
	return o
}

// Solver evaluates passage-time and transient transforms for one model:
// the column-form driver behind VectorLST and TransientVectorLST, and
// the direct baselines. It owns reusable workspace buffers and is not
// safe for concurrent use; create one per worker goroutine.
type Solver struct {
	m    *smp.Model
	opts Options

	u       *sparse.CMatrix
	acc     []complex128
	next    []complex128
	targets []bool
	filledS complex128
	filled  bool

	// Prepared per-(quantity, target set) state (warm-start iterates),
	// built once per spec and reused across every s-point of a contour
	// segment, plus reusable solve workspaces. cur tracks the prepared
	// entry matching the current target flags; absorb flags the rows the
	// column driver zeroes (the targets for passage, none for transient),
	// tol is its convergence bound and rhs its right-hand side b.
	preps  map[string]*prepared
	cur    *prepared
	absorb []bool
	tol    float64
	none   []bool       // all-false flags: transient absorbs no row
	rhs    []complex128 // column driver's b, supported on the targets
	lsts   []complex128 // interned-distribution LST table at filledS
	dirB   []complex128 // Eq. (2)/(3) right-hand side workspace
	diag   []complex128 // kernel diagonal workspace

	// Phase instrumentation for the last call, read by the pipeline's
	// observability layer. lastFill is zero when the kernel was
	// memoised; lastSweeps counts the kernel traversals of the last
	// solve.
	lastFill   time.Duration
	lastSweeps int
	lastWarm   bool
	lastSaved  int
}

// LastKernelFill returns the time the last solve spent assembling
// U(s) — zero when the memoised kernel was reused.
func (sv *Solver) LastKernelFill() time.Duration { return sv.lastFill }

// LastSweeps returns the depth of the last solve: Gauss–Seidel sweeps
// for the direct route, series terms or refinement sweeps for the
// column driver (VectorLST, TransientVectorLST).
// Each unit is one traversal of the kernel.
func (sv *Solver) LastSweeps() int { return sv.lastSweeps }

// LastWarmStart reports whether the last solve was seeded from a
// neighbouring s-point's solution, and an estimate of the sweeps that
// saved relative to the segment's cold baseline (the depth of the last
// cold solve over the same target set).
func (sv *Solver) LastWarmStart() (bool, int) { return sv.lastWarm, sv.lastSaved }

// NewSolver returns a solver for the model.
func NewSolver(m *smp.Model, opts Options) *Solver {
	n := m.N()
	return &Solver{
		m:       m,
		opts:    opts.withDefaults(),
		u:       m.NewKernelMatrix(),
		acc:     make([]complex128, n),
		next:    make([]complex128, n),
		targets: make([]bool, n),
	}
}

// Model returns the solver's model.
func (sv *Solver) Model() *smp.Model { return sv.m }

// prepare assembles U(s) (memoising the last s) and the target flags,
// and selects the prepared entry for (q, targets), so a contour segment
// keeps its warm-start state across points.
func (sv *Solver) prepare(s complex128, q quantity, targets []int) error {
	if len(targets) == 0 {
		return fmt.Errorf("passage: empty target set")
	}
	for _, t := range targets {
		if t < 0 || t >= sv.m.N() {
			return fmt.Errorf("passage: target state %d outside model of %d states", t, sv.m.N())
		}
	}
	if key := preparedKey(q, targets); sv.cur == nil || sv.cur.key != key {
		for i := range sv.targets {
			sv.targets[i] = false
		}
		for _, t := range targets {
			sv.targets[t] = true
		}
		sv.cur = sv.preparedFor(key)
	}
	sv.absorb, sv.tol = sv.targets, sv.opts.Epsilon
	if q == transientQ {
		if sv.none == nil {
			sv.none = make([]bool, sv.m.N())
		}
		sv.absorb, sv.tol = sv.none, sv.opts.GSEpsilon
	}
	sv.lastFill = 0
	if !sv.filled || sv.filledS != s {
		start := time.Now()
		sv.lsts = sv.m.DistLSTsInto(s, sv.lsts)
		sv.m.FillKernelSampled(sv.lsts, sv.u)
		sv.lastFill = time.Since(start)
		sv.filledS = s
		sv.filled = true
	}
	return nil
}

// SourceWeights is a sparse initial distribution over source states: the
// α̃ vector of Eq. (5). Weights must sum to 1.
type SourceWeights struct {
	States  []int
	Weights []float64
}

// SingleSource returns the degenerate weighting of one source state.
func SingleSource(i int) SourceWeights {
	return SourceWeights{States: []int{i}, Weights: []float64{1}}
}

// Dot reads a source-indexed transform vector through the weighting:
// Σ_k α̃_k·v_k, the Eq. (4) combination.
func (sw SourceWeights) Dot(v []complex128) complex128 {
	var out complex128
	for k, i := range sw.States {
		out += complex(sw.Weights[k], 0) * v[i]
	}
	return out
}

func (sw SourceWeights) validate(n int) error {
	if len(sw.States) == 0 || len(sw.States) != len(sw.Weights) {
		return fmt.Errorf("passage: malformed source weights (%d states, %d weights)", len(sw.States), len(sw.Weights))
	}
	var sum float64
	for k, i := range sw.States {
		if i < 0 || i >= n {
			return fmt.Errorf("passage: source state %d outside model of %d states", i, n)
		}
		if math.IsNaN(sw.Weights[k]) || math.IsInf(sw.Weights[k], 0) {
			return fmt.Errorf("passage: non-finite source weight %v", sw.Weights[k])
		}
		if sw.Weights[k] < 0 {
			return fmt.Errorf("passage: negative source weight %v", sw.Weights[k])
		}
		sum += sw.Weights[k]
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("passage: source weights sum to %v, want 1", sum)
	}
	return nil
}

// DirectVectorLST solves the Eq. (2)/(3) linear system
//
//	x_i = Σ_{k∉j⃗} u_ik·x_k + Σ_{k∈j⃗} u_ik
//
// for the full vector x̃ = (L_1j⃗(s), …, L_Nj⃗(s)) by Gauss–Seidel sweeps.
// This is the "typical matrix inversion" comparator of §3, and the
// per-target column the Eq. (6)–(7) transient oracle is built from.
func (sv *Solver) DirectVectorLST(s complex128, targets []int) ([]complex128, error) {
	if err := sv.prepare(s, passageQ, targets); err != nil {
		return nil, err
	}
	return sv.directVectorSolve(s)
}

// directVectorSolve runs the Gauss–Seidel iteration for the current
// prepared target set, reusing the solver's b/diag workspaces and — when
// WarmStart is on and a previous solution over the same targets exists —
// seeding the iterate from that neighbouring s-point instead of the
// first-Jacobi-step cold start.
func (sv *Solver) directVectorSolve(s complex128) ([]complex128, error) {
	p := sv.cur
	n := sv.m.N()
	// b_i = Σ_{k∈targets} u_ik; diag_i = u_ii if i ∉ targets.
	sv.dirB = resizeC(sv.dirB, n)
	sv.diag = resizeC(sv.diag, n)
	b, diag := sv.dirB, sv.diag
	for i := 0; i < n; i++ {
		b[i], diag[i] = 0, 0
		cols, vals := sv.u.RowSlices(i)
		for e, k := range cols {
			if sv.targets[k] {
				b[i] += vals[e]
			} else if k == i {
				diag[i] = vals[e]
			}
		}
	}
	warm := sv.opts.WarmStart && p.dirWarm && len(p.dirX) == n
	if !warm {
		p.dirX = resizeC(p.dirX, n)
		copy(p.dirX, b) // first Jacobi step as cold start
	}
	// A warm refinement only needs the accuracy of the cold route it
	// replaces: the iterative series truncates at Epsilon, so sweeping
	// down to the (tighter) GSEpsilon would spend the warm start's
	// savings buying precision the contour never had.
	eps := sv.opts.GSEpsilon
	if warm && sv.opts.Epsilon > eps {
		eps = sv.opts.Epsilon
	}
	x := p.dirX
	for iter := 0; iter < sv.opts.GSMaxIter; iter++ {
		sv.lastSweeps = iter + 1
		var worst float64
		for i := 0; i < n; i++ {
			sum := b[i]
			cols, vals := sv.u.RowSlices(i)
			for e, k := range cols {
				if !sv.targets[k] && k != i {
					sum += vals[e] * x[k]
				}
			}
			den := 1 - diag[i]
			next := sum / den
			if d := next - x[i]; math.Hypot(real(d), imag(d)) > worst {
				worst = math.Hypot(real(d), imag(d))
			}
			x[i] = next
		}
		if worst < eps {
			sv.noteWarm(warm)
			p.dirWarm = sv.opts.WarmStart
			out := make([]complex128, n)
			copy(out, x)
			return out, nil
		}
	}
	p.dirWarm = false
	sv.lastWarm, sv.lastSaved = false, 0
	if warm {
		// A stale warm iterate can stall the sweep budget; retry once
		// from the cold seed before reporting non-convergence.
		return sv.directVectorSolve(s)
	}
	return nil, fmt.Errorf("%w: Gauss–Seidel after %d sweeps at s=%v", ErrNoConvergence, sv.opts.GSMaxIter, s)
}

// DirectLST is the α̃-weighted scalar form of DirectVectorLST: the
// Gauss–Seidel oracle for the column driver.
func (sv *Solver) DirectLST(s complex128, src SourceWeights, targets []int) (complex128, error) {
	if err := src.validate(sv.m.N()); err != nil {
		return 0, err
	}
	x, err := sv.DirectVectorLST(s, targets)
	if err != nil {
		return 0, err
	}
	return src.Dot(x), nil
}

// DirectDenseLST solves the same system by dense Gaussian elimination —
// O(N³), usable only on small models, kept as the ground-truth oracle for
// tests and the ablation bench.
func (sv *Solver) DirectDenseLST(s complex128, src SourceWeights, targets []int) (complex128, error) {
	if err := src.validate(sv.m.N()); err != nil {
		return 0, err
	}
	if err := sv.prepare(s, passageQ, targets); err != nil {
		return 0, err
	}
	n := sv.m.N()
	a := sparse.NewDense(n)
	b := make([]complex128, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
		sv.u.Row(i, func(k int, v complex128) {
			if sv.targets[k] {
				b[i] += v
			} else {
				a.Add(i, k, -v)
			}
		})
	}
	x, err := sparse.SolveDense(a, b)
	if err != nil {
		return 0, err
	}
	return src.Dot(x), nil
}

// ComputeSourceWeights derives the Eq. (5) α̃ vector for a source set
// from the steady state of the embedded DTMC. For a single source the
// result is the trivial weighting and the (possibly expensive) steady
// state is skipped.
func ComputeSourceWeights(m *smp.Model, sources []int) (SourceWeights, error) {
	if len(sources) == 0 {
		return SourceWeights{}, fmt.Errorf("passage: empty source set")
	}
	if len(sources) == 1 {
		return SingleSource(sources[0]), nil
	}
	pi, err := dtmc.SteadyStateGS(m.EmbeddedDTMC(), dtmc.Options{SkipIrreducibilityCheck: true})
	if err != nil {
		return SourceWeights{}, fmt.Errorf("passage: embedded chain steady state: %w", err)
	}
	alpha, err := dtmc.Alpha(pi, sources)
	if err != nil {
		return SourceWeights{}, err
	}
	return SourceWeights{States: sources, Weights: alpha}, nil
}
