// Package pipeline implements the distributed analysis architecture of
// §4: a master that knows every Laplace-space point the inverter will
// need, a global work queue of those s-points, worker processes that
// build the kernel matrices locally and run the iterative algorithm per
// point, and a memory+disk cache so that all computation is
// checkpointed. Workers never talk to each other, which is what gives
// the pipeline its near-linear scalability (§5.3.3).
//
// The unit of computation is the source-free SolveSpec: the paper's
// algorithm produces the passage/transient transform for *every* source
// state in one sweep over U(s), so a solve is keyed by (model, quantity,
// targets, s-points) alone and each s-point evaluates to the full
// source-indexed vector. Source weightings are applied at read time as
// O(N) dot products, which is how one solve serves any number of
// per-user source distributions. Job bundles a SolveSpec with one such
// weighting for callers that want a scalar curve.
//
// Job execution is abstracted behind the Backend interface so callers
// are indifferent to the compute substrate. Two backends are provided:
// an in-process worker pool (InProc, goroutines) and a resident TCP
// fleet (Fleet: vector results travel as chunked frames), mirroring the
// paper's cluster deployment on a single machine or a real network.
package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"hydra/internal/passage"
	"hydra/internal/smp"
)

// Quantity selects the transform a job evaluates at each s-point.
type Quantity int32

const (
	// PassageDensity is L_i⃗j⃗(s), the passage-time density transform.
	PassageDensity Quantity = iota
	// PassageCDF is L_i⃗j⃗(s)/s, whose inversion yields the cumulative
	// distribution (quantile extraction, Fig. 5).
	PassageCDF
	// TransientDist is T*_i⃗j⃗(s) of Eq. (7).
	TransientDist
)

// String names the quantity for logs and checkpoints.
func (q Quantity) String() string {
	switch q {
	case PassageDensity:
		return "density"
	case PassageCDF:
		return "cdf"
	case TransientDist:
		return "transient"
	default:
		return fmt.Sprintf("quantity(%d)", int32(q))
	}
}

// SolveSpec is the source-free computation unit: the measure definition
// minus any source weighting, plus every s-point the chosen inverter
// demands. Evaluating a spec at one s-point yields the full
// source-indexed transform vector, so two requests that differ only in
// their sources share one spec — one fingerprint, one cache entry, one
// in-flight solve.
type SolveSpec struct {
	// Name identifies the model+measure for humans and checkpoint files.
	Name     string
	Quantity Quantity
	Targets  []int
	Points   []complex128

	// ModelFP and ModelStates identify the model the spec must run
	// against; a Fleet routes the solve only to workers advertising this
	// fingerprint, and a zero value disables the corresponding check. They
	// are routing metadata, not content: neither participates in
	// Fingerprint(), so cache keys are unchanged — Name is what must
	// embed model identity when a cache is shared across models (the
	// server's modelID-prefixed spec names do exactly that).
	ModelFP     string
	ModelStates int

	// TraceID correlates this solve with the request that caused it:
	// minted at the HTTP edge, carried onto fleet wire assignments, and
	// stamped on every span the solve records — master- and worker-side
	// alike. Like ModelFP it is metadata, not content: it does not
	// participate in Fingerprint(), so identical solves coalesce and
	// share cache entries regardless of which request triggered them.
	TraceID string

	// SegmentHint is the inverter's contour period: Points is laid out
	// as consecutive blocks of this many s-points, one block per
	// t-point, smooth within a block. Backends use it to batch whole
	// contour segments onto one worker (so warm-started solves see their
	// neighbours) and to avoid batches that straddle the s-jump between
	// blocks. Zero means unknown; like ModelFP it is scheduling
	// metadata, not content, and does not participate in Fingerprint().
	SegmentHint int

	// ShardHint asks a capable backend to split each solve's kernel into
	// up to this many contiguous row blocks held by different workers
	// instead of farming whole s-points out. Zero or
	// one means unsharded. Like SegmentHint it is scheduling metadata,
	// not content: the sharded solve provably computes the same vectors
	// (see passage's differential harness), so it does not participate
	// in Fingerprint() and sharded and unsharded runs share cache
	// entries and checkpoints.
	ShardHint int
}

// Validate performs structural checks against a model size, and keeps
// every s-point in Re s > 0: the Eq. (10) series and the renewal series
// behind T*(s) are only guaranteed to converge there. Model.RunSpec
// validates every spec before it reaches a backend, and a fleet worker
// applies the same point check to each assignment it receives.
func (sp *SolveSpec) Validate(n int) error {
	if len(sp.Targets) == 0 {
		return fmt.Errorf("pipeline: empty target set")
	}
	for _, t := range sp.Targets {
		if t < 0 || t >= n {
			return fmt.Errorf("pipeline: target %d outside model of %d states", t, n)
		}
	}
	if len(sp.Points) == 0 {
		return fmt.Errorf("pipeline: no s-points")
	}
	for i, s := range sp.Points {
		if err := checkPoint(sp.Quantity, i, s); err != nil {
			return err
		}
	}
	return nil
}

// checkPoint rejects an s-point outside Re s > 0, naming it.
func checkPoint(q Quantity, i int, s complex128) error {
	if !(real(s) > 0) {
		return fmt.Errorf("pipeline: %s s-point %d (%v) has Re s ≤ 0, where the transform's series may diverge; use an inverter whose contour stays in Re s > 0 (euler or laguerre)", q, i, s)
	}
	return nil
}

// Fingerprint hashes everything that determines the solve's vector
// results, so a checkpoint is only ever reused for an identical
// computation. Sources deliberately do not exist at this level: the
// vector answer is source-independent, which is what lets per-user
// traffic that differs only in sources share one cache entry. The
// leading tag versions the key space so records written by the scalar
// engine (whose fingerprints covered sources and weights) can never
// collide with vector records.
func (sp *SolveSpec) Fingerprint() string {
	const tag = "specv1\x00"
	buf := make([]byte, 0, len(tag)+len(sp.Name)+8*(3+len(sp.Targets)+2*len(sp.Points)))
	buf = append(buf, tag...)
	buf = append(buf, sp.Name...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(sp.Quantity))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(sp.Targets)))
	for _, t := range sp.Targets {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(t))
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(sp.Points)))
	for _, p := range sp.Points {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(real(p)))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(imag(p)))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:16])
}

// Job is a complete scalar-curve request: a SolveSpec plus the source
// weighting the vector results are read through. Everything that keys
// caches and coalescing lives in the embedded spec; Sources/Weights are
// read-time data.
type Job struct {
	SolveSpec
	Sources []int
	Weights []float64
}

// Spec returns the job's source-free computation unit.
func (j *Job) Spec() *SolveSpec { return &j.SolveSpec }

// Validate performs structural checks against a model size: the
// embedded spec's checks plus the source weighting's (see
// ValidateWeighting).
func (j *Job) Validate(n int) error {
	if err := ValidateWeighting(j.Sources, j.Weights, n); err != nil {
		return err
	}
	return j.SolveSpec.Validate(n)
}

// ValidateWeighting checks a source weighting against a model of n
// states. Weights must be finite and non-negative with positive total
// mass — a NaN, an Inf, a negative entry or an all-zero vector would
// silently poison every curve read through it.
func ValidateWeighting(sources []int, weights []float64, n int) error {
	if len(sources) == 0 || len(sources) != len(weights) {
		return fmt.Errorf("pipeline: malformed sources/weights")
	}
	var sum float64
	for i, s := range sources {
		if s < 0 || s >= n {
			return fmt.Errorf("pipeline: source %d outside model of %d states", s, n)
		}
		w := weights[i]
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("pipeline: non-finite weight %v for source %d", w, s)
		}
		if w < 0 {
			return fmt.Errorf("pipeline: negative weight %v for source %d", w, s)
		}
		sum += w
	}
	if sum == 0 {
		return fmt.Errorf("pipeline: source weights are all zero")
	}
	return nil
}

// ReadPoint reduces one s-point's vector result to the job's scalar:
// the α̃-weighted dot product of Eq. (5).
func (j *Job) ReadPoint(vec []complex128) complex128 {
	var out complex128
	for k, i := range j.Sources {
		if i >= 0 && i < len(vec) {
			out += complex(j.Weights[k], 0) * vec[i]
		}
	}
	return out
}

// ReadVectors maps ReadPoint over a full run's vectors.
func (j *Job) ReadVectors(vecs [][]complex128) []complex128 {
	out := make([]complex128, len(vecs))
	for idx, vec := range vecs {
		out[idx] = j.ReadPoint(vec)
	}
	return out
}

// Evaluator computes a spec's transform vector at a single s-point: the
// full source-indexed L_·j⃗(s) (or T*_·j⃗(s)), freshly allocated per
// call. It is the worker-side contract; implementations need not be
// safe for concurrent use (each worker owns one).
type Evaluator interface {
	EvaluateVector(s complex128, spec *SolveSpec) ([]complex128, error)
}

// PhaseReporter is implemented by evaluators that can attribute their
// last EvaluateVector call: how long the kernel fill took (zero when
// memoised), how long the solve proper took, and the iteration depth
// (transition depth r for iterative solves, Gauss–Seidel sweeps for
// direct ones). Backends use it to build RunStats.Phases without
// widening the Evaluator contract.
type PhaseReporter interface {
	LastPhases() (kernelFill, solve time.Duration, depth int)
}

// WarmReporter is implemented by evaluators that can report whether
// their last EvaluateVector call was warm-started from a neighbouring
// s-point's solution and how many sweeps that saved against the
// segment's cold baseline. Backends use it to build the warm-start run
// stats without widening the Evaluator contract.
type WarmReporter interface {
	LastWarmStart() (warm bool, sweepsSaved int)
}

// SolverEvaluator adapts a passage.Solver to the Evaluator contract
// and instruments the hot path: per-point solve latency, kernel-fill
// time and iteration depth land on obs.Default, so both the
// in-process pool and fleet workers expose solver metrics.
type SolverEvaluator struct {
	sv *passage.Solver

	lastFill  time.Duration
	lastSolve time.Duration
	lastDepth int
	lastWarm  bool
	lastSaved int
}

// NewSolverEvaluator builds an evaluator with its own solver workspace.
func NewSolverEvaluator(m *smp.Model, opts passage.Options) *SolverEvaluator {
	return &SolverEvaluator{sv: passage.NewSolver(m, opts)}
}

// LastPhases implements PhaseReporter.
func (e *SolverEvaluator) LastPhases() (kernelFill, solve time.Duration, depth int) {
	return e.lastFill, e.lastSolve, e.lastDepth
}

// LastWarmStart implements WarmReporter.
func (e *SolverEvaluator) LastWarmStart() (warm bool, sweepsSaved int) {
	return e.lastWarm, e.lastSaved
}

// EvaluateVector implements Evaluator.
func (e *SolverEvaluator) EvaluateVector(s complex128, spec *SolveSpec) ([]complex128, error) {
	start := time.Now()
	v, depth, err := e.evaluate(s, spec)
	total := time.Since(start)
	fill := e.sv.LastKernelFill()
	e.lastFill, e.lastSolve, e.lastDepth = fill, total-fill, depth
	e.lastWarm, e.lastSaved = e.sv.LastWarmStart()
	if err == nil {
		q := spec.Quantity.String()
		solvePointDuration.With(q).Observe(total.Seconds())
		if fill > 0 {
			solveKernelFill.Observe(fill.Seconds())
		}
		solveDepth.With(q).Observe(float64(depth))
		if e.lastWarm {
			solveWarmStarts.With(q).Inc()
			solveSweepsSaved.With(q).Add(float64(e.lastSaved))
		}
	}
	return v, err
}

func (e *SolverEvaluator) evaluate(s complex128, spec *SolveSpec) ([]complex128, int, error) {
	switch spec.Quantity {
	case PassageDensity:
		return e.sv.VectorLST(s, spec.Targets)
	case PassageCDF:
		v, depth, err := e.sv.VectorLST(s, spec.Targets)
		if err != nil {
			return nil, depth, err
		}
		for i := range v {
			v[i] /= s
		}
		return v, depth, nil
	case TransientDist:
		v, err := e.sv.TransientVectorLST(s, spec.Targets)
		return v, e.sv.LastSweeps(), err
	default:
		return nil, 0, fmt.Errorf("pipeline: unknown quantity %v", spec.Quantity)
	}
}
