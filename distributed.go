package hydra

import (
	"fmt"
	"net"

	"hydra/internal/lt"
	"hydra/internal/passage"
	"hydra/internal/pipeline"
)

// Job re-exports the pipeline job — a source-free SolveSpec plus the
// source weighting it is read through — so masters and workers can be
// driven from the public API.
type Job = pipeline.Job

// SolveSpec re-exports the pipeline's source-free computation unit: the
// (model, quantity, targets, s-points) tuple whose fingerprint keys
// caches and coalescing, and whose evaluation yields the full
// source-indexed transform vector per s-point.
type SolveSpec = pipeline.SolveSpec

// RunStats re-exports the pipeline run statistics.
type RunStats = pipeline.RunStats

// Cache re-exports the pipeline point-cache contract: the store a run
// consults before evaluating transform points and feeds as vector
// results return. Long-running services layer a memory LRU over a disk
// checkpoint through this interface (see internal/server).
type Cache = pipeline.Cache

// Backend re-exports the pipeline execution contract: where a spec's
// s-points get evaluated. Leave Options.Backend nil for the in-process
// pool; pass a *Fleet to execute on resident TCP workers.
type Backend = pipeline.Backend

// Fleet re-exports the resident TCP worker fleet — the Backend that
// serves solves on persistent hydra-worker connections: workers join
// and leave freely, vector results travel as chunked frames, batches
// lost to dead workers are requeued, one fleet serves every model its
// workers hold, and solves with a shard hint split into row blocks
// across the workers. Master and workers must be built from the same
// wire protocol version; a mismatched worker is rejected at the
// handshake with a message naming both versions.
type Fleet = pipeline.Fleet

// FleetOptions re-exports the fleet tuning knobs.
type FleetOptions = pipeline.FleetOptions

// PointError re-exports the structured evaluation failure: which
// worker, which point index, and the evaluator's message.
type PointError = pipeline.PointError

// ErrHandshakeRejected re-exports the permanent handshake failure a
// fleet master answers with when a worker's protocol version or models
// are unacceptable. Reconnect loops give up on it (errors.Is) instead
// of redialing an unwinnable handshake.
var ErrHandshakeRejected = pipeline.ErrHandshakeRejected

// NewFleet starts a fleet master accepting workers on ln. Close it to
// release the listener and dismiss the workers.
func NewFleet(ln net.Listener, opts FleetOptions) *Fleet {
	return pipeline.NewFleet(ln, opts)
}

// NewPassageJob builds a distributed job for the passage density (or
// CDF when cdf is true) of a measure at the given times.
func (m *Model) NewPassageJob(name string, sources, targets []int, times []float64, cdf bool, opts *Options) (*Job, error) {
	q := pipeline.PassageDensity
	if cdf {
		q = pipeline.PassageCDF
	}
	return m.newJob(name, q, sources, targets, times, opts)
}

// NewTransientJob builds a distributed job for a transient measure.
func (m *Model) NewTransientJob(name string, sources, targets []int, times []float64, opts *Options) (*Job, error) {
	return m.newJob(name, pipeline.TransientDist, sources, targets, times, opts)
}

// NewPassageSpec builds the source-free solve unit for a passage
// density (or CDF when cdf is true) at the given times. One spec's
// vector results serve every source weighting — see RunSpec and
// ReadRun.
func (m *Model) NewPassageSpec(name string, targets []int, times []float64, cdf bool, opts *Options) (*SolveSpec, error) {
	q := pipeline.PassageDensity
	if cdf {
		q = pipeline.PassageCDF
	}
	return m.newSpec(name, q, targets, times, opts)
}

// NewTransientSpec builds the source-free solve unit for a transient
// measure at the given times.
func (m *Model) NewTransientSpec(name string, targets []int, times []float64, opts *Options) (*SolveSpec, error) {
	return m.newSpec(name, pipeline.TransientDist, targets, times, opts)
}

// SourceWeights resolves a source set to the Eq. (5) α̃ weighting used
// by every analysis entry point: the trivial weighting for a single
// source, the embedded chain's steady-state weighting for several. The
// returned slices are ready for ReadRun.
func (m *Model) SourceWeights(sources []int) (states []int, weights []float64, err error) {
	src, err := m.sourceWeights(sources)
	if err != nil {
		return nil, nil, err
	}
	return src.States, src.Weights, nil
}

// PrepareBackend resolves the backend RunSpec would use for these
// options and returns it for reuse: callers that issue many solves —
// a quantile search, a request scheduler — pass the returned value via
// Options.Backend so the in-process pool's evaluators (and their
// prepared kernel workspaces) survive across solves.
func (m *Model) PrepareBackend(opts *Options) Backend {
	return m.backend(opts)
}

// newSpec builds the source-free solve unit for a quantity at the given
// times.
func (m *Model) newSpec(name string, q pipeline.Quantity, targets []int, times []float64, opts *Options) (*SolveSpec, error) {
	for _, t := range times {
		if !(t > 0) {
			return nil, fmt.Errorf("hydra: analysis times must be positive, got %v", t)
		}
	}
	inv, err := opts.inverter()
	if err != nil {
		return nil, err
	}
	spec := &SolveSpec{
		Name:        name,
		Quantity:    q,
		Targets:     targets,
		Points:      inv.Points(times),
		ModelFP:     m.fingerprint,
		ModelStates: m.NumStates(),
	}
	// Contour geometry hint for segment scheduling: inverters whose
	// contours group s-points into per-t blocks (Euler) report
	// the block period, so backends keep warm-start segments inside one
	// block. Laguerre's single shared contour has no period — hint 0.
	if pp, ok := inv.(interface{ PointsPerT() int }); ok {
		spec.SegmentHint = pp.PointsPerT()
	}
	// Shard placement hint: like SegmentHint this is scheduling
	// metadata, excluded from the fingerprint, so sharded and unsharded
	// runs share cache entries and checkpoints.
	spec.ShardHint = opts.shard()
	if err := spec.Validate(m.NumStates()); err != nil {
		return nil, err
	}
	return spec, nil
}

func (m *Model) newJob(name string, q pipeline.Quantity, sources, targets []int, times []float64, opts *Options) (*Job, error) {
	spec, err := m.newSpec(name, q, targets, times, opts)
	if err != nil {
		return nil, err
	}
	src, err := m.sourceWeights(sources)
	if err != nil {
		return nil, err
	}
	job := &pipeline.Job{
		SolveSpec: *spec,
		Sources:   src.States,
		Weights:   src.Weights,
	}
	if err := job.Validate(m.NumStates()); err != nil {
		return nil, err
	}
	return job, nil
}

// backend resolves where a solve executes: opts.Backend when set (e.g.
// a Fleet), otherwise an in-process pool sized by opts.Workers whose
// evaluators run against this model. The in-process pool reuses its
// evaluators across Execute calls, so repeated solves on one backend
// value — a quantile bisection, a resident server — keep their prepared
// solver workspaces.
func (m *Model) backend(opts *Options) Backend {
	if opts != nil && opts.Backend != nil {
		return opts.Backend
	}
	solverOpts := opts.solver()
	model := m.ss.Model
	return &pipeline.InProc{
		NewEvaluator: func() pipeline.Evaluator {
			return pipeline.NewSolverEvaluator(model, solverOpts)
		},
		Workers: opts.workers(),
	}
}

// VectorRun is a completed solve: for every s-point of the spec, the
// full source-indexed transform vector. Any number of source weightings
// read a VectorRun as O(N) dot products (see ReadRun), which is how one
// kernel solve serves every source and every caller.
type VectorRun struct {
	Spec    *SolveSpec
	Vectors [][]complex128
	Stats   *RunStats
}

// RunSpec executes a solve on the selected backend — opts.Backend, or
// the in-process worker pool when nil — and returns the vector results
// without inverting. cache may be nil; when it is, opts.CheckpointPath
// (if set) is opened for the duration of the run. Passing a persistent
// cache instead is how a resident service reuses transform evaluations
// across requests: the run loads every point the cache already holds
// (reported as Stats.FromCache) and evaluates only the remainder. The
// spec is validated against the model first, so a hand-built spec with
// a target out of range or an s-point outside Re s > 0 fails before any
// solve.
func (m *Model) RunSpec(spec *SolveSpec, cache Cache, opts *Options) (*VectorRun, error) {
	if err := spec.Validate(m.NumStates()); err != nil {
		return nil, err
	}
	if cache == nil && opts != nil && opts.CheckpointPath != "" {
		ckpt, err := pipeline.OpenCheckpoint(opts.CheckpointPath)
		if err != nil {
			return nil, err
		}
		defer ckpt.Close()
		cache = ckpt
	}
	vectors, stats, err := m.backend(opts).Execute(spec, cache)
	if err != nil {
		return nil, err
	}
	return &VectorRun{Spec: spec, Vectors: vectors, Stats: stats}, nil
}

// PointVectorError reports a vector run whose result at one s-point has
// the wrong width for its spec's model: the signature of a corrupt
// checkpoint record or a cache entry written by a different model
// version. ReadRun returns it instead of letting the short vector
// silently drop source terms from the Eq. (5) dot product.
type PointVectorError struct {
	Point int // index of the offending s-point in the run
	Len   int // the vector length found
	Want  int // Spec.ModelStates
}

func (e *PointVectorError) Error() string {
	return fmt.Sprintf("hydra: vector at point %d has %d entries, spec's model has %d states (corrupt checkpoint record or mixed-version cache entry?)", e.Point, e.Len, e.Want)
}

// ReadRun reduces a vector run to a scalar curve for one source
// weighting: the α̃-weighted dot product per s-point, inverted at the
// given times with the same inverter configuration that built the
// spec's points. It is pure post-processing — no solver work — so a
// caller holding a VectorRun can serve any number of source weightings
// from it.
func ReadRun(vr *VectorRun, sources []int, weights []float64, times []float64, opts *Options) (*Result, error) {
	inv, err := opts.inverter()
	if err != nil {
		return nil, err
	}
	job := &pipeline.Job{SolveSpec: *vr.Spec, Sources: sources, Weights: weights}
	n := vr.Spec.ModelStates
	if n > 0 {
		// Every per-point vector must carry exactly the model's state
		// count. A short vector (corrupt checkpoint record, a
		// mixed-version cache entry) would otherwise make ReadPoint
		// silently drop source terms; a structured error names the
		// offending point instead.
		for i, vec := range vr.Vectors {
			if len(vec) != n {
				return nil, &PointVectorError{Point: i, Len: len(vec), Want: n}
			}
		}
	} else {
		// Specs predating ModelStates (or hand-built ones) carry no
		// authoritative count; fall back to the widest observed vector so
		// source-index validation still has a bound.
		for _, vec := range vr.Vectors {
			if len(vec) > n {
				n = len(vec)
			}
		}
	}
	if err := job.Validate(n); err != nil {
		return nil, err
	}
	f, err := inv.Invert(times, job.ReadVectors(vr.Vectors))
	if err != nil {
		return nil, err
	}
	return &Result{Times: times, Values: f, Stats: vr.Stats}, nil
}

// RunJob executes a prepared job (from NewPassageJob or NewTransientJob)
// on the selected backend and inverts the transform values at the given
// times: RunSpec on the job's embedded spec, then a ReadRun through the
// job's source weighting. The job's s-points must have been built with
// the same inverter configuration opts selects — which NewPassageJob
// and NewTransientJob guarantee when handed the same opts.
//
// cache may be nil; see RunSpec for the caching contract. Because the
// cache is keyed by the source-free spec, two jobs that differ only in
// sources share every cached s-point.
func (m *Model) RunJob(job *Job, times []float64, cache Cache, opts *Options) (*Result, error) {
	vr, err := m.RunSpec(job.Spec(), cache, opts)
	if err != nil {
		return nil, err
	}
	return ReadRun(vr, job.Sources, job.Weights, times, opts)
}

// ServeMaster runs a one-shot fleet master on the listener until every
// s-point of the job has been computed by connected workers, then
// inverts with the same inverter configuration used to build the job.
// checkpointPath may be empty. The fleet (and the listener with it) is
// closed before returning, which dismisses the connected workers
// cleanly. That is the one-shot contract: the master does not wait for
// workers it never saw, so a worker that has not completed its handshake
// when the job finishes sees a connection error (refused, or reset
// mid-handshake) instead of a dismissal. For a resident master that
// survives many jobs and late joiners, use NewFleet and Options.Backend
// instead.
func (m *Model) ServeMaster(ln net.Listener, job *Job, times []float64, checkpointPath string, opts *Options) (*Result, error) {
	var cache pipeline.Cache
	if checkpointPath != "" {
		ckpt, err := pipeline.OpenCheckpoint(checkpointPath)
		if err != nil {
			return nil, err
		}
		defer ckpt.Close()
		cache = ckpt
	}
	// A one-shot master serves exactly this job, so mismatched workers
	// are rejected at the handshake (readably, on their own console)
	// instead of idling unrouted while the master waits forever.
	fleet := pipeline.NewFleet(ln, pipeline.FleetOptions{
		RequireFingerprint: job.ModelFP,
		RequireStates:      job.ModelStates,
	})
	defer fleet.Close()
	vectors, stats, err := fleet.Execute(job.Spec(), cache)
	if err != nil {
		return nil, err
	}
	return ReadRun(&VectorRun{Spec: job.Spec(), Vectors: vectors, Stats: stats},
		job.Sources, job.Weights, times, opts)
}

// WorkerOptions re-exports the pipeline worker tuning knobs: the
// worker's diagnostic name plus its observability hooks (structured
// logger, span tracer).
type WorkerOptions = pipeline.WorkerOptions

// RunWorker connects this model to a fleet master at addr and evaluates
// assignment batches until the master shuts down (nil return) or the
// connection fails. The handshake advertises the model's fingerprint
// and state count, so the master only routes this model's solves here.
func (m *Model) RunWorker(addr, name string, opts *Options) error {
	return m.RunWorkerWith(addr, WorkerOptions{Name: name}, opts)
}

// RunWorkerWith is RunWorker with the full worker option set — use it
// to attach a structured logger and a span tracer, so worker-side
// batches carry the trace IDs their masters stamped on run headers.
// Besides whole s-point batches the worker hosts row blocks of sharded
// solves, and announces that in its handshake.
func (m *Model) RunWorkerWith(addr string, wopts WorkerOptions, opts *Options) error {
	model := m.ss.Model
	solverOpts := opts.solver()
	wm := pipeline.WorkerModel{
		Fingerprint: m.fingerprint,
		States:      m.NumStates(),
		Evaluator:   pipeline.NewSolverEvaluator(model, solverOpts),
		// Shard constructor: the worker derives its own row block from
		// the shared boundary-minimizing partition plan, so every member
		// computes an identical placement without the master ever holding
		// the kernel, and exchanges only boundary sub-vector entries per
		// sweep.
		NewShardPlanned: func(spec *pipeline.SolveSpec, parts, part int) (passage.ShardMember, passage.ShardPlacement, error) {
			sv, pl, err := passage.NewPlannedShardSolver(model, parts, part, spec.Targets)
			if sv == nil || err != nil {
				return nil, pl, err // keep the interface nil for surplus parts
			}
			return sv, pl, err
		},
	}
	return pipeline.FleetWork(addr, []pipeline.WorkerModel{wm}, wopts)
}

// EulerPointsPerT exposes the s-point cost model of the default Euler
// inverter (the paper's n = k·m accounting for Table 2).
func EulerPointsPerT() int { return lt.DefaultEuler().PointsPerT() }

// String renders a Result compactly for CLI output.
func (r *Result) String() string {
	return fmt.Sprintf("Result{%d points, %v}", len(r.Times), r.Stats)
}
