package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sync"
	"time"

	"hydra"
	"hydra/internal/obs"
	"hydra/internal/pipeline"
)

// Job lifecycle states.
const (
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
)

// RunStatsJSON is the wire form of pipeline.RunStats.
type RunStatsJSON struct {
	Evaluated int   `json:"evaluated"`  // s-points computed for this request
	FromCache int   `json:"from_cache"` // s-points loaded from the result cache
	Workers   int   `json:"workers"`
	WallMS    int64 `json:"wall_ms"`
	Requeued  int   `json:"requeued,omitempty"` // points reassigned after a worker loss (fleet)
	// WarmStarted counts solves seeded from a neighbouring s-point's
	// solution; SweepsSaved estimates the iteration sweeps that seeding
	// avoided versus a cold solve. Absent when warm starts are off or
	// never fired.
	WarmStarted int   `json:"warm_starts,omitempty"`
	SweepsSaved int64 `json:"sweeps_saved,omitempty"`
	// PerWorker maps worker name → points evaluated for fleet-backed
	// runs (absent for the anonymous in-process pool).
	PerWorker map[string]int `json:"per_worker,omitempty"`
	// Shard telemetry, present only when the fleet split solves into
	// row blocks: how many workers held blocks, how many
	// shard sessions were rebuilt after a member died, and the sweep /
	// boundary-exchange volume across all sharded points.
	Shards         int   `json:"shards,omitempty"`
	Resharded      int   `json:"resharded,omitempty"`
	ShardSweeps    int64 `json:"shard_sweeps,omitempty"`
	ShardExchanged int64 `json:"shard_exchanged_values,omitempty"`
	// The exchange/compute split of sharded solves: boundary vertices
	// crossing blocks per exchange, summed member compute seconds, and
	// the exchange tax — per-round wall beyond the slowest member's
	// compute. exchange_seconds ≈ compute_seconds/shards means the wire
	// dominates; recruit fewer, larger blocks.
	ShardBoundary   int     `json:"shard_boundary_vertices,omitempty"`
	ShardComputeSec float64 `json:"shard_compute_seconds,omitempty"`
	ShardExchgSec   float64 `json:"shard_exchange_seconds,omitempty"`
	// Phases attributes solve time to pipeline phases (kernel_fill,
	// solve, invert), in seconds. Phase time is summed across workers,
	// so it can exceed wall time.
	Phases map[string]float64 `json:"phases_seconds,omitempty"`
}

func statsJSON(s *hydra.RunStats) *RunStatsJSON {
	if s == nil {
		return nil
	}
	out := &RunStatsJSON{
		Evaluated: s.Evaluated, FromCache: s.FromCache,
		Workers: s.Workers, WallMS: s.WallTime.Milliseconds(),
		Requeued:    s.Requeued,
		WarmStarted: s.WarmStarted,
		SweepsSaved: s.SweepsSaved,
		Shards:      s.Shards, Resharded: s.Resharded,
		ShardSweeps: s.ShardSweeps, ShardExchanged: s.ShardExchanged,
		ShardBoundary:   s.ShardBoundary,
		ShardComputeSec: float64(s.ShardComputeNS) / 1e9,
		ShardExchgSec:   float64(s.ShardExchangeNS) / 1e9,
	}
	if len(s.WorkerNames) == len(s.PerWorker) && len(s.WorkerNames) > 0 {
		out.PerWorker = make(map[string]int, len(s.WorkerNames))
		for i, name := range s.WorkerNames {
			out.PerWorker[name] = s.PerWorker[i]
		}
	}
	for name, d := range s.Phases {
		out.addPhase(name, d)
	}
	return out
}

// addPhase adds phase time to the JSON view. The pipeline's RunStats
// may be shared with coalesced callers, so read-side phases (inversion
// happens per caller, not per solve) accumulate here instead of
// mutating the shared stats.
func (r *RunStatsJSON) addPhase(name string, d time.Duration) {
	if r == nil || d <= 0 {
		return
	}
	if r.Phases == nil {
		r.Phases = make(map[string]float64, 3)
	}
	r.Phases[name] += d.Seconds()
}

// JobResult is the payload of a completed job.
type JobResult struct {
	Times     []float64     `json:"times,omitempty"`
	Values    []float64     `json:"values,omitempty"`
	Curves    [][]float64   `json:"curves,omitempty"`    // batch jobs: one curve per source set
	Quantile  float64       `json:"quantile,omitempty"`  // quantile jobs only
	Quantiles []float64     `json:"quantiles,omitempty"` // batched quantile jobs: aligned with queries
	Stats     *RunStatsJSON `json:"stats,omitempty"`
}

// JobRecord is one request's lifecycle, retained for GET /v1/jobs/{id}.
type JobRecord struct {
	ID          string     `json:"id"`
	RequestID   string     `json:"request_id,omitempty"` // HTTP edge request ID; also the job's trace ID
	ModelID     string     `json:"model_id"`
	Kind        string     `json:"kind"` // passage | passage-cdf | transient | quantile | batch-*
	Fingerprint string     `json:"fingerprint"`
	Status      string     `json:"status"`
	Coalesced   bool       `json:"coalesced"` // served by an in-flight solve of the same spec
	CacheHit    bool       `json:"cache_hit"` // every s-point came from the result cache
	Error       string     `json:"error,omitempty"`
	ErrorKind   string     `json:"error_kind,omitempty"` // invalid_request | execution
	Created     time.Time  `json:"created"`
	Finished    *time.Time `json:"finished,omitempty"`
	Result      *JobResult `json:"result,omitempty"`
}

// SchedulerStats is a snapshot of scheduler behaviour for /v1/stats.
type SchedulerStats struct {
	JobsTotal      int64 `json:"jobs_total"`      // records created
	Running        int   `json:"running"`         // currently executing or waiting for a slot
	Computations   int64 `json:"computations"`    // pipeline solves actually executed
	ComputedPoints int64 `json:"computed_points"` // s-points evaluated across all solves
	Coalesced      int64 `json:"coalesced"`       // requests that piggybacked on an in-flight solve
	CacheHits      int64 `json:"cache_hits"`      // solves answered entirely from the result cache
	MaxConcurrent  int   `json:"max_concurrent"`
	// Quantile surface counters: builds executed, requests answered from
	// a resident surface, interpolated quantile reads served, and
	// surfaces currently resident in the LRU.
	SurfaceBuilds         int64 `json:"surface_builds"`
	SurfaceHits           int64 `json:"surface_hits"`
	SurfaceInterpolations int64 `json:"surface_interpolations"`
	SurfacesResident      int   `json:"surfaces_resident"`
}

// flight is one in-progress computation other requests of the same
// SolveSpec can join. Because specs are source-free, concurrent
// requests that differ only in their source weightings share one
// flight: the vector result answers each of them through its own
// read-time dot product.
type flight struct {
	done chan struct{}
	val  any // *hydra.VectorRun for solves, *hydra.Result for quantile searches
	err  error
}

// Scheduler executes analysis requests against resident models. Three
// layers keep redundant work off the solver:
//
//  1. concurrent requests for the same solve coalesce onto one
//     in-flight computation (keyed by SolveSpec.Fingerprint(), which
//     excludes sources — different-source traffic piggybacks);
//  2. each computation runs through the spec-keyed ResultCache, so
//     sequential repeats — again regardless of sources — evaluate
//     nothing;
//  3. a semaphore bounds how many computations run at once, each with
//     its own in-process worker pool.
type Scheduler struct {
	cache   *ResultCache
	workers int           // per-computation worker pool size
	backend hydra.Backend // nil = per-computation in-process pool
	shard   int           // Config.Shard: row-block shard hint stamped on every spec
	slots   chan struct{} // bounds concurrent computations

	mu       sync.Mutex
	inflight map[string]*flight
	surfaces *surfaceCache // resident quantile CDF surfaces (LRU)
	jobs     map[string]*JobRecord
	order    []string // job IDs, oldest first
	maxJobs  int      // retained records
	seq      int64

	// metrics holds the scheduler's counters. There is no shadow set of
	// ints: SchedulerStats reads these same instruments back, so the
	// JSON stats view and /metrics cannot disagree.
	metrics *serverMetrics
	tracer  *obs.Tracer
}

// NewScheduler builds a scheduler. workers is the per-computation pool
// size, maxConcurrent bounds simultaneous computations, and the cache
// must not be nil. backend overrides where computations execute: nil
// selects a per-computation in-process pool; a *pipeline.Fleet executes
// every solve on the resident TCP worker fleet instead.
// metrics and tracer carry the owning Server's instruments and span
// recorder; nil values get private replacements so a bare Scheduler
// still works in tests and embeddings.
func NewScheduler(cache *ResultCache, workers, maxConcurrent int, backend hydra.Backend, metrics *serverMetrics, tracer *obs.Tracer) *Scheduler {
	if workers < 1 {
		workers = 1
	}
	if maxConcurrent < 1 {
		maxConcurrent = 1
	}
	if metrics == nil {
		metrics = newServerMetrics()
	}
	metrics.maxConcurrent.Set(float64(maxConcurrent))
	return &Scheduler{
		cache:    cache,
		workers:  workers,
		backend:  backend,
		slots:    make(chan struct{}, maxConcurrent),
		inflight: make(map[string]*flight),
		surfaces: newSurfaceCache(64),
		jobs:     make(map[string]*JobRecord),
		maxJobs:  1024,
		metrics:  metrics,
		tracer:   tracer,
	}
}

// newRecord registers a running job record and returns its snapshot ID.
func (s *Scheduler) newRecord(modelID, kind, fingerprint, reqID string) *JobRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	s.metrics.jobsTotal.Inc()
	s.metrics.jobsRunning.Inc()
	rec := &JobRecord{
		ID:          fmt.Sprintf("job-%d", s.seq),
		RequestID:   reqID,
		ModelID:     modelID,
		Kind:        kind,
		Fingerprint: fingerprint,
		Status:      StatusRunning,
		Created:     time.Now(),
	}
	s.jobs[rec.ID] = rec
	s.order = append(s.order, rec.ID)
	for len(s.order) > s.maxJobs {
		evicted := false
		for i, id := range s.order {
			if s.jobs[id].Status != StatusRunning { // never drop a live record
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			break // everything retained is running; try again next insert
		}
	}
	return rec
}

// Failure classes: a rejected request (the client's fault, HTTP 400)
// versus a computation that could not run (the server's, HTTP 500).
const (
	ErrInvalidRequest = "invalid_request"
	ErrExecution      = "execution"
)

// finish marks a record completed under the lock, observes its wall
// time and records the job's scheduler-side span.
func (s *Scheduler) finish(rec *JobRecord, result *JobResult, coalesced, cacheHit bool, err error, errKind string) {
	s.mu.Lock()
	now := time.Now()
	rec.Finished = &now
	rec.Coalesced = coalesced
	rec.CacheHit = cacheHit
	if err != nil {
		rec.Status = StatusFailed
		rec.Error = err.Error()
		rec.ErrorKind = errKind
	} else {
		rec.Status = StatusDone
		rec.Result = result
	}
	s.metrics.jobsRunning.Dec()
	s.metrics.jobDuration.With(rec.Kind).Observe(now.Sub(rec.Created).Seconds())
	s.mu.Unlock()
	s.tracer.Record(obs.Span{
		TraceID: rec.RequestID, Name: "sched.job",
		Start: rec.Created, Duration: now.Sub(rec.Created),
		Attrs: map[string]string{
			"job": rec.ID, "kind": rec.Kind, "model": rec.ModelID, "status": rec.Status,
		},
	})
}

// runShared is the coalescing core: the first caller for a fingerprint
// computes (bounded by the slot semaphore); every concurrent identical
// caller waits on that flight and shares its result. stats extracts the
// run statistics from a computed value for the scheduler counters. The
// returned boolean reports whether this caller coalesced.
//
// A panicking computation must not take the scheduler with it: the
// semaphore slot, the inflight entry and the flight's done channel are
// all released on the way out (a leaked slot would shrink the pool for
// the process lifetime, and an unclosed done channel would hang every
// later identical request), with the panic converted to the flight's
// error.
func (s *Scheduler) runShared(fp string, stats func(any) *hydra.RunStats, compute func() (any, error)) (any, bool, error) {
	s.mu.Lock()
	if f, ok := s.inflight[fp]; ok {
		s.metrics.coalesced.Inc()
		s.mu.Unlock()
		<-f.done
		return f.val, true, f.err
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[fp] = f
	s.mu.Unlock()

	val, err := func() (val any, err error) {
		s.slots <- struct{}{}
		s.metrics.slotsInUse.Inc()
		defer func() { s.metrics.slotsInUse.Dec(); <-s.slots }()
		defer func() {
			if r := recover(); r != nil {
				val, err = nil, fmt.Errorf("computation panicked: %v", r)
			}
		}()
		return compute()
	}()

	s.mu.Lock()
	delete(s.inflight, fp)
	s.metrics.computations.Inc()
	if err == nil {
		if rs := stats(val); rs != nil {
			s.metrics.computedPoints.Add(float64(rs.Evaluated))
			if rs.Evaluated == 0 {
				s.metrics.cacheHitJobs.Inc()
			}
		}
	}
	s.mu.Unlock()
	f.val, f.err = val, err
	close(f.done)
	return val, false, err
}

// runSharedSolve coalesces vector solves: one kernel solve per
// (model, quantity, targets, points) serves every concurrent caller.
func (s *Scheduler) runSharedSolve(fp string, compute func() (*hydra.VectorRun, error)) (*hydra.VectorRun, bool, error) {
	val, coalesced, err := s.runShared(fp,
		func(v any) *hydra.RunStats {
			if vr, ok := v.(*hydra.VectorRun); ok {
				return vr.Stats
			}
			return nil
		},
		func() (any, error) { return compute() })
	if err != nil {
		return nil, coalesced, err
	}
	return val.(*hydra.VectorRun), coalesced, nil
}

// jobOptions builds the analysis options for a request. The scheduler's
// backend (the fleet, when configured) rides along so every computation
// executes on it. Warm starts are on for every scheduled solve: the
// server's workloads are whole contours, exactly the access pattern
// the prepared-model cache and the Gauss–Seidel refinement from the
// neighbouring s-point pay off on. (Fleet workers enable warm starts
// with their own -warm flag; this setting covers the in-process pool.)
func (s *Scheduler) jobOptions(method string, workers int) *hydra.Options {
	if workers < 1 {
		workers = s.workers
	}
	opts := &hydra.Options{Method: method, Workers: workers, Backend: s.backend, Shard: s.shard}
	opts.Solver.WarmStart = true
	return opts
}

// RunCurve executes a passage or transient curve request synchronously
// and returns its completed record. kind must be "passage",
// "passage-cdf" or "transient". The solve coalesces and caches on the
// source-free spec, so concurrent requests that differ only in sources
// share one computation and this caller reads its own curve out of the
// shared vectors. reqID is the HTTP edge's request ID; it travels on
// the spec as the trace ID (coalesced followers inherit the computing
// request's ID on the wire).
func (s *Scheduler) RunCurve(m *hydra.Model, modelID, kind string, sources, targets []int, times []float64, method string, workers int, reqID string) *JobRecord {
	opts := s.jobOptions(method, workers)
	job, err := buildJob(m, modelID, kind, sources, targets, times, opts)
	if err != nil {
		rec := s.newRecord(modelID, kind, "", reqID)
		s.finish(rec, nil, false, false, err, ErrInvalidRequest)
		return rec
	}
	job.TraceID = reqID
	fp := job.Spec().Fingerprint()
	rec := s.newRecord(modelID, kind, fp, reqID)
	vr, coalesced, err := s.runSharedSolve(fp, func() (*hydra.VectorRun, error) {
		return m.RunSpec(job.Spec(), s.cache.Pipeline(), opts)
	})
	var payload *JobResult
	cacheHit := false
	if err == nil {
		var res *hydra.Result
		invertStart := time.Now()
		res, err = hydra.ReadRun(vr, job.Sources, job.Weights, times, opts)
		if err == nil {
			cacheHit = !coalesced && vr.Stats != nil && vr.Stats.Evaluated == 0
			payload = &JobResult{Times: res.Times, Values: res.Values, Stats: statsJSON(res.Stats)}
			payload.Stats.addPhase(pipeline.PhaseInvert, time.Since(invertStart))
		}
	}
	s.finish(rec, payload, coalesced, cacheHit, err, ErrExecution)
	return rec
}

// RunBatch answers many source weightings over one (targets, times)
// query from a single solve: the defining workload of the vector
// engine. kind is as for RunCurve; the record's result carries one
// curve per source set, index-aligned with sourceSets.
func (s *Scheduler) RunBatch(m *hydra.Model, modelID, kind string, sourceSets [][]int, targets []int, times []float64, method string, workers int, reqID string) *JobRecord {
	opts := s.jobOptions(method, workers)
	recKind := "batch-" + kind
	invalid := func(err error) *JobRecord {
		rec := s.newRecord(modelID, recKind, "", reqID)
		s.finish(rec, nil, false, false, err, ErrInvalidRequest)
		return rec
	}
	if len(sourceSets) == 0 {
		return invalid(fmt.Errorf("batch request needs at least one source set"))
	}
	spec, err := buildSpec(m, modelID, kind, targets, times, opts)
	if err != nil {
		return invalid(err)
	}
	// Resolve every weighting before solving, so one bad source set
	// fails the request as a 400 without occupying a computation slot.
	type weighting struct {
		states  []int
		weights []float64
	}
	ws := make([]weighting, len(sourceSets))
	for i, sources := range sourceSets {
		states, weights, err := m.SourceWeights(sources)
		if err != nil {
			return invalid(fmt.Errorf("source set %d: %w", i, err))
		}
		ws[i] = weighting{states: states, weights: weights}
	}

	spec.TraceID = reqID
	fp := spec.Fingerprint()
	rec := s.newRecord(modelID, recKind, fp, reqID)
	vr, coalesced, err := s.runSharedSolve(fp, func() (*hydra.VectorRun, error) {
		return m.RunSpec(spec, s.cache.Pipeline(), opts)
	})
	var payload *JobResult
	cacheHit := false
	if err == nil {
		curves := make([][]float64, len(ws))
		invertStart := time.Now()
		for i, w := range ws {
			var res *hydra.Result
			res, err = hydra.ReadRun(vr, w.states, w.weights, times, opts)
			if err != nil {
				err = fmt.Errorf("source set %d: %w", i, err)
				break
			}
			curves[i] = res.Values
		}
		if err == nil {
			cacheHit = !coalesced && vr.Stats != nil && vr.Stats.Evaluated == 0
			payload = &JobResult{Times: times, Curves: curves, Stats: statsJSON(vr.Stats)}
			payload.Stats.addPhase(pipeline.PhaseInvert, time.Since(invertStart))
		}
	}
	s.finish(rec, payload, coalesced, cacheHit, err, ErrExecution)
	return rec
}

// buildSpec maps a request kind onto the public spec constructors. The
// spec name embeds the model ID so fingerprints never collide across
// models that happen to share state indices and s-points.
func buildSpec(m *hydra.Model, modelID, kind string, targets []int, times []float64, opts *hydra.Options) (*hydra.SolveSpec, error) {
	name := modelID + ":" + kind
	switch kind {
	case "passage":
		return m.NewPassageSpec(name, targets, times, false, opts)
	case "passage-cdf":
		return m.NewPassageSpec(name, targets, times, true, opts)
	case "transient":
		return m.NewTransientSpec(name, targets, times, opts)
	default:
		return nil, fmt.Errorf("unknown job kind %q", kind)
	}
}

// buildJob maps a request kind onto the public job constructors; the
// embedded spec is exactly buildSpec's, so curve and batch requests for
// the same measure share fingerprints.
func buildJob(m *hydra.Model, modelID, kind string, sources, targets []int, times []float64, opts *hydra.Options) (*hydra.Job, error) {
	name := modelID + ":" + kind
	switch kind {
	case "passage":
		return m.NewPassageJob(name, sources, targets, times, false, opts)
	case "passage-cdf":
		return m.NewPassageJob(name, sources, targets, times, true, opts)
	case "transient":
		return m.NewTransientJob(name, sources, targets, times, opts)
	default:
		return nil, fmt.Errorf("unknown job kind %q", kind)
	}
}

// RunQuantile executes a passage-quantile request synchronously. The
// bisection prepares one backend up front (so the in-process pool's
// evaluators survive across iterations) and each CDF evaluation runs
// through the spec-keyed result cache, so a repeated quantile query
// costs nothing; the search itself coalesces under a synthetic
// fingerprint covering every input.
func (s *Scheduler) RunQuantile(m *hydra.Model, modelID string, sources, targets []int, p, hint float64, method string, workers int, reqID string) *JobRecord {
	if hint == 0 {
		hint = 1 // omitted; negative hints are rejected below
	}
	opts := s.jobOptions(method, workers)
	fp := quantileFingerprint(modelID, sources, targets, p, method)
	rec := s.newRecord(modelID, "quantile", fp, reqID)

	// Reject malformed requests before entering the shared flight, so a
	// validation failure is a 400 and never occupies a computation slot.
	if !(p > 0 && p < 1) {
		s.finish(rec, nil, false, false, fmt.Errorf("quantile probability %v outside (0,1)", p), ErrInvalidRequest)
		return rec
	}
	if !(hint > 0) {
		s.finish(rec, nil, false, false, fmt.Errorf("quantile hint %v must be positive", hint), ErrInvalidRequest)
		return rec
	}
	states, weights, err := m.SourceWeights(sources)
	if err != nil {
		s.finish(rec, nil, false, false, err, ErrInvalidRequest)
		return rec
	}
	if _, err := buildSpec(m, modelID, "passage-cdf", targets, []float64{hint}, opts); err != nil {
		s.finish(rec, nil, false, false, err, ErrInvalidRequest)
		return rec
	}
	// One backend for the whole search: bisection steps reuse prepared
	// evaluators instead of rebuilding them per CDF evaluation.
	opts.Backend = m.PrepareBackend(opts)

	val, coalesced, err := s.runShared(fp,
		func(v any) *hydra.RunStats {
			if r, ok := v.(*hydra.Result); ok {
				return r.Stats
			}
			return nil
		},
		func() (any, error) {
			agg := &hydra.RunStats{}
			q, err := hydra.QuantileSearch(p, hint, func(t float64) (float64, error) {
				spec, err := buildSpec(m, modelID, "passage-cdf", targets, []float64{t}, opts)
				if err != nil {
					return 0, err
				}
				spec.TraceID = reqID
				vr, err := m.RunSpec(spec, s.cache.Pipeline(), opts)
				if err != nil {
					return 0, err
				}
				agg.Merge(vr.Stats)
				r, err := hydra.ReadRun(vr, states, weights, []float64{t}, opts)
				if err != nil {
					return 0, err
				}
				return r.Values[0], nil
			})
			if err != nil {
				return nil, err
			}
			// Share the scalar (and the search's aggregated stats) through a
			// one-point Result so runShared's flight serves coalesced callers
			// and counts the evaluated points.
			return &hydra.Result{Values: []float64{q}, Stats: agg}, nil
		})
	var payload *JobResult
	cacheHit := false
	if err == nil {
		res := val.(*hydra.Result)
		cacheHit = res.Stats.Evaluated == 0 && !coalesced
		payload = &JobResult{Quantile: res.Values[0], Stats: statsJSON(res.Stats)}
	}
	s.finish(rec, payload, coalesced, cacheHit, err, ErrExecution)
	return rec
}

// quantileFingerprint keys quantile coalescing: a quantile request is a
// whole search, not a single pipeline solve, so it gets a synthetic
// fingerprint over every input that determines its answer. The bracket
// hint is deliberately excluded — the search converges to the same t*
// (within tolerance) from any positive hint, so two requests that
// differ only in their hints are the same question and should share
// one flight. Source and target sets hash in canonical (sorted,
// deduplicated) form: the Eq. (5) weighting is a function of the set,
// so [1,2] and [2,1] are the same question and must coalesce — the
// order-insensitivity the spec-level cache already has.
func quantileFingerprint(modelID string, sources, targets []int, p float64, method string) string {
	h := sha256.New()
	h.Write([]byte("quantile\x00" + modelID + "\x00" + method + "\x00"))
	write := func(v any) { _ = binary.Write(h, binary.LittleEndian, v) }
	writeSet := func(set []int) {
		canon := hydra.CanonicalStates(set)
		write(int64(len(canon)))
		for _, v := range canon {
			write(int64(v))
		}
	}
	writeSet(sources)
	writeSet(targets)
	write(math.Float64bits(p))
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// Job returns a copy of a job record.
func (s *Scheduler) Job(id string) (JobRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.jobs[id]
	if !ok {
		return JobRecord{}, false
	}
	return *rec, true
}

// Jobs returns copies of all retained records, oldest first.
func (s *Scheduler) Jobs() []JobRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobRecord, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, *s.jobs[id])
	}
	return out
}

// Stats returns a snapshot of the scheduler counters, read from the
// same obs instruments GET /metrics exposes.
func (s *Scheduler) Stats() SchedulerStats {
	m := s.metrics
	return SchedulerStats{
		JobsTotal:             int64(m.jobsTotal.Value()),
		Running:               int(m.jobsRunning.Value()),
		Computations:          int64(m.computations.Value()),
		ComputedPoints:        int64(m.computedPoints.Value()),
		Coalesced:             int64(m.coalesced.Value()),
		CacheHits:             int64(m.cacheHitJobs.Value()),
		MaxConcurrent:         cap(s.slots),
		SurfaceBuilds:         int64(m.surfaceBuilds.Value()),
		SurfaceHits:           int64(m.surfaceHits.Value()),
		SurfaceInterpolations: int64(m.surfaceInterpolations.Value()),
		SurfacesResident:      int(m.surfacesResident.Value()),
	}
}
