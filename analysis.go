package hydra

import (
	"fmt"
	"math"

	"hydra/internal/lt"
	"hydra/internal/passage"
	"hydra/internal/pipeline"
)

// Options configures an analysis run. The zero value selects the paper's
// defaults: Euler inversion (A=18.4, 33 s-points per t-point), one
// worker, tail-bound truncation at 1e-8, no checkpointing.
type Options struct {
	// Method selects the inverter: "euler" (default), "laguerre" or
	// "auto". The paper's guidance applies — Euler is the safe choice
	// for densities with discontinuities; Laguerre suits smooth
	// densities. "auto" implements §4's selection rule mechanically: it
	// evaluates the Laguerre contour first, accepts the result when the
	// Laguerre coefficients decay (a smooth original), and falls back to
	// Euler otherwise.
	Method string
	// Euler overrides the Euler parameters when non-zero.
	Euler lt.Euler
	// Laguerre overrides the Laguerre parameters when non-zero.
	Laguerre lt.Laguerre
	// Workers is the in-process worker count (default 1).
	Workers int
	// Backend overrides where jobs execute: nil selects the in-process
	// pool (Workers goroutines per run); a *Fleet from NewFleet executes
	// on resident TCP worker processes instead, in which case Workers is
	// ignored — parallelism is however many workers are connected.
	Backend Backend
	// CheckpointPath enables disk checkpointing of s-point results.
	CheckpointPath string
	// Solver tunes the iterative passage-time algorithm.
	Solver passage.Options
	// Surface tunes the adaptive grid PassageSurface builds; the zero
	// value selects the documented defaults. Ignored by every other
	// entry point.
	Surface SurfaceOptions
	// Shard asks a fleet backend to split each solve's kernel into up to
	// this many contiguous row blocks held by different workers (wire v4
	// sharding) instead of farming whole s-points out — the right trade
	// when one model is too large or too slow for a single worker's
	// sweep. Zero or one leaves solves unsharded. Ignored by the
	// in-process backend and for transient quantities; sharded and
	// unsharded runs share cache entries and checkpoints (the hint is
	// excluded from spec fingerprints).
	Shard int
}

func (o *Options) inverter() (lt.Inverter, error) {
	if o == nil {
		return lt.DefaultEuler(), nil
	}
	switch o.Method {
	case "", "euler":
		e := o.Euler
		if e.M == 0 {
			e = lt.DefaultEuler()
		}
		return e, e.Validate()
	case "laguerre":
		l := o.Laguerre
		if l.N == 0 {
			l = lt.DefaultLaguerre()
		}
		return l, l.Validate()
	default:
		return nil, fmt.Errorf("hydra: unknown inversion method %q", o.Method)
	}
}

func (o *Options) workers() int {
	if o == nil || o.Workers < 1 {
		return 1
	}
	return o.Workers
}

func (o *Options) solver() passage.Options {
	if o == nil {
		return passage.Options{}
	}
	return o.Solver
}

func (o *Options) shard() int {
	if o == nil || o.Shard < 2 {
		return 0
	}
	return o.Shard
}

// Result is a computed curve: Values[i] estimates the measure at
// Times[i].
type Result struct {
	Times  []float64
	Values []float64
	// Stats reports pipeline behaviour (cache hits, wall time, worker
	// share) for the run that produced the values.
	Stats *pipeline.RunStats
}

// sourceWeights derives the α̃ vector of Eq. (5) for the source set: the
// trivial weighting for a single source, the embedded chain's
// steady-state weighting for several (using the model's cached vector).
func (m *Model) sourceWeights(sources []int) (passage.SourceWeights, error) {
	if len(sources) == 0 {
		return passage.SourceWeights{}, fmt.Errorf("hydra: empty source set")
	}
	for _, s := range sources {
		if s < 0 || s >= m.NumStates() {
			return passage.SourceWeights{}, fmt.Errorf("hydra: source %d outside model of %d states", s, m.NumStates())
		}
	}
	if len(sources) == 1 {
		return passage.SingleSource(sources[0]), nil
	}
	pi, err := m.steadyState()
	if err != nil {
		return passage.SourceWeights{}, err
	}
	var total float64
	for _, s := range sources {
		if s < 0 || s >= len(pi) {
			return passage.SourceWeights{}, fmt.Errorf("hydra: source %d out of range", s)
		}
		total += pi[s]
	}
	if total <= 0 {
		return passage.SourceWeights{}, fmt.Errorf("hydra: source states have no steady-state probability")
	}
	w := make([]float64, len(sources))
	for i, s := range sources {
		w[i] = pi[s] / total
	}
	return passage.SourceWeights{States: sources, Weights: w}, nil
}

// run assembles a job for the quantity, executes it over the worker
// pool, and inverts.
func (m *Model) run(q pipeline.Quantity, sources, targets []int, times []float64, opts *Options) (*Result, error) {
	if opts != nil && opts.Method == "auto" {
		for _, t := range times {
			if !(t > 0) {
				return nil, fmt.Errorf("hydra: analysis times must be positive, got %v", t)
			}
		}
		return m.autoRun(q, sources, targets, times, opts)
	}
	job, err := m.newJob(m.specName(q), q, sources, targets, times, opts)
	if err != nil {
		return nil, err
	}
	return m.RunJob(job, times, nil, opts)
}

// specName is the default solve name for a quantity: shared by every
// entry point (curves, multi-source batches, quantile searches) so
// their s-points land in the same cache entries.
func (m *Model) specName(q pipeline.Quantity) string {
	return fmt.Sprintf("%s[%d states]", q, m.NumStates())
}

// runMulti executes ONE solve for the quantity and reads it through
// every source set: the vector engine's batch entry point. The returned
// results are index-aligned with sourceSets and share the single run's
// stats — the marginal cost of an extra source set is one dot product
// per s-point plus one inversion, not a solve.
func (m *Model) runMulti(q pipeline.Quantity, sourceSets [][]int, targets []int, times []float64, opts *Options) ([]*Result, error) {
	if len(sourceSets) == 0 {
		return nil, fmt.Errorf("hydra: no source sets")
	}
	if opts != nil && opts.Method == "auto" {
		return nil, fmt.Errorf(`hydra: multi-source runs need a concrete inversion method ("euler" or "laguerre"), not "auto"`)
	}
	// Resolve every weighting before solving, so a bad source set fails
	// the request without spending kernel time.
	weightings := make([]passage.SourceWeights, len(sourceSets))
	for i, sources := range sourceSets {
		src, err := m.sourceWeights(sources)
		if err != nil {
			return nil, fmt.Errorf("hydra: source set %d: %w", i, err)
		}
		weightings[i] = src
	}
	spec, err := m.newSpec(m.specName(q), q, targets, times, opts)
	if err != nil {
		return nil, err
	}
	vr, err := m.RunSpec(spec, nil, opts)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(weightings))
	for i, src := range weightings {
		r, err := ReadRun(vr, src.States, src.Weights, times, opts)
		if err != nil {
			return nil, fmt.Errorf("hydra: source set %d: %w", i, err)
		}
		out[i] = r
	}
	return out, nil
}

// PassageDensity computes the first-passage-time density f(t) from the
// source set into the target set at the given times. Multiple sources
// are weighted at steady state per Eq. (5).
func (m *Model) PassageDensity(sources, targets []int, times []float64, opts *Options) (*Result, error) {
	return m.run(pipeline.PassageDensity, sources, targets, times, opts)
}

// PassageCDF computes the passage-time distribution F(t) (by inverting
// L(s)/s, the Fig. 5 construction).
func (m *Model) PassageCDF(sources, targets []int, times []float64, opts *Options) (*Result, error) {
	return m.run(pipeline.PassageCDF, sources, targets, times, opts)
}

// TransientDistribution computes P(Z(t) ∈ targets | Z(0) ∼ sources) via
// Eq. (7).
func (m *Model) TransientDistribution(sources, targets []int, times []float64, opts *Options) (*Result, error) {
	return m.run(pipeline.TransientDist, sources, targets, times, opts)
}

// PassageDensityMulti computes the passage density curve for many
// source sets from ONE solve: the kernel work is done once per s-point
// and each source set costs only a dot product and an inversion.
// Results align with sourceSets.
func (m *Model) PassageDensityMulti(sourceSets [][]int, targets []int, times []float64, opts *Options) ([]*Result, error) {
	return m.runMulti(pipeline.PassageDensity, sourceSets, targets, times, opts)
}

// PassageCDFMulti is PassageCDF for many source sets from one solve.
func (m *Model) PassageCDFMulti(sourceSets [][]int, targets []int, times []float64, opts *Options) ([]*Result, error) {
	return m.runMulti(pipeline.PassageCDF, sourceSets, targets, times, opts)
}

// TransientDistributionMulti is TransientDistribution for many source
// sets from one solve.
func (m *Model) TransientDistributionMulti(sourceSets [][]int, targets []int, times []float64, opts *Options) ([]*Result, error) {
	return m.runMulti(pipeline.TransientDist, sourceSets, targets, times, opts)
}

// PassageQuantile returns the time t* with F(t*) = p (a response-time
// quantile, the headline §1 metric: e.g. p = 0.9858 reproduces the
// paper's "processes 175 voters in under 440s" statement). The CDF is
// bracketed by doubling from hint and refined by bisection to relTol
// (default 1e-4 of the bracket width).
//
// The search prepares one backend (and, for the in-process pool, its
// solver workspaces) up front and reuses it across every bisection
// iteration: each step builds only a one-point spec, so the dozens of
// CDF evaluations a search issues never rebuild evaluators or kernel
// patterns.
func (m *Model) PassageQuantile(sources, targets []int, p float64, hint float64, opts *Options) (float64, error) {
	if opts != nil && opts.Method == "auto" {
		// "auto" re-selects the inverter per evaluation; keep the
		// straightforward per-call path for it.
		return QuantileSearch(p, hint, func(t float64) (float64, error) {
			r, err := m.PassageCDF(sources, targets, []float64{t}, opts)
			if err != nil {
				return 0, err
			}
			return r.Values[0], nil
		})
	}
	src, err := m.sourceWeights(sources)
	if err != nil {
		return 0, err
	}
	be := m.backend(opts)
	// One checkpoint handle for the whole search, so an interrupted or
	// repeated search replays its points from disk — the durability the
	// per-step RunJob path always had, paid for with a single open.
	var cache Cache
	if opts != nil && opts.CheckpointPath != "" {
		ckpt, err := pipeline.OpenCheckpoint(opts.CheckpointPath)
		if err != nil {
			return 0, err
		}
		defer ckpt.Close()
		cache = ckpt
	}
	return QuantileSearch(p, hint, func(t float64) (float64, error) {
		spec, err := m.newSpec(m.specName(pipeline.PassageCDF), pipeline.PassageCDF, targets, []float64{t}, opts)
		if err != nil {
			return 0, err
		}
		vectors, stats, err := be.Execute(spec, cache)
		if err != nil {
			return 0, err
		}
		vr := &VectorRun{Spec: spec, Vectors: vectors, Stats: stats}
		r, err := ReadRun(vr, src.States, src.Weights, []float64{t}, opts)
		if err != nil {
			return 0, err
		}
		return r.Values[0], nil
	})
}

// QuantileSearch solves F(t*) = p for a monotone CDF supplied as an
// evaluator: the bracket grows by doubling from hint until F(hi) ≥ p,
// then bisection refines to a relative tolerance of 1e-4. It is the
// search loop behind PassageQuantile, exported so callers that evaluate
// the CDF through their own machinery (a caching scheduler, a remote
// worker pool) reuse the identical bracketing policy — and therefore
// the identical cacheable CDF evaluations.
func QuantileSearch(p, hint float64, cdfAt func(float64) (float64, error)) (float64, error) {
	if !(p > 0 && p < 1) {
		return 0, fmt.Errorf("hydra: quantile probability %v outside (0,1)", p)
	}
	if !(hint > 0) {
		return 0, fmt.Errorf("hydra: quantile hint must be positive")
	}
	// Numerical inversion of a CDF can return small negative noise near
	// t = 0 (clamped — it is still a usable "below p" answer) or, when
	// the transform evaluation breaks down, NaN/Inf. A non-finite value
	// must fail the search loudly: NaN compares false against p, which
	// the bracketing loop would silently read as F(t) >= p and converge
	// to a meaningless quantile.
	at := func(t float64) (float64, error) {
		f, err := cdfAt(t)
		if err != nil {
			return 0, err
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return 0, fmt.Errorf("hydra: CDF evaluation at t=%v returned non-finite value %v", t, f)
		}
		if f < 0 {
			f = 0
		}
		return f, nil
	}
	lo, hi := 0.0, hint
	fhi, err := at(hi)
	if err != nil {
		return 0, err
	}
	for iter := 0; fhi < p; iter++ {
		if iter > 60 {
			return 0, fmt.Errorf("hydra: CDF never reaches %v (last F(%v)=%v)", p, hi, fhi)
		}
		lo = hi
		hi *= 2
		if fhi, err = at(hi); err != nil {
			return 0, err
		}
	}
	for i := 0; i < 48 && hi-lo > 1e-4*hi; i++ {
		mid := (lo + hi) / 2
		fm, err := at(mid)
		if err != nil {
			return 0, err
		}
		if fm < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// MeanPassageTime integrates t·f(t) numerically from a density result —
// a convenience for quick summaries (prefer analytic means for rigour).
func MeanPassageTime(r *Result) float64 {
	if len(r.Times) < 2 {
		return math.NaN()
	}
	var mean, mass float64
	for i := 0; i+1 < len(r.Times); i++ {
		dt := r.Times[i+1] - r.Times[i]
		tm := (r.Times[i] + r.Times[i+1]) / 2
		fm := (r.Values[i] + r.Values[i+1]) / 2
		mean += tm * fm * dt
		mass += fm * dt
	}
	if mass <= 0 {
		return math.NaN()
	}
	return mean / mass
}

// PassageMoments returns the exact mean and variance of the passage time
// from the (steady-state-weighted) source set into the target set,
// computed by first-step analysis in the time domain — an independent
// oracle for the transform pipeline and the cheap route to mean response
// times. All sojourn distributions must have known second moments.
func (m *Model) PassageMoments(sources, targets []int) (mean, variance float64, err error) {
	src, err := m.sourceWeights(sources)
	if err != nil {
		return 0, 0, err
	}
	mo, err := passage.PassageMoments(m.ss.Model, targets, passage.Options{})
	if err != nil {
		return 0, 0, err
	}
	mean, variance = mo.WeightedMoments(src)
	return mean, variance, nil
}

// autoRun implements Method "auto": evaluate on the Laguerre contour,
// keep the result if the coefficient decay certifies a smooth original,
// otherwise rerun with Euler (the paper's discontinuity-safe method).
func (m *Model) autoRun(q pipeline.Quantity, sources, targets []int, times []float64, opts *Options) (*Result, error) {
	lag := opts.Laguerre
	if lag.N == 0 {
		lag = lt.DefaultLaguerre()
	}
	if err := lag.Validate(); err != nil {
		return nil, err
	}
	lagOpts := *opts
	lagOpts.Method = "laguerre"
	lagOpts.Laguerre = lag
	src, err := m.sourceWeights(sources)
	if err != nil {
		return nil, err
	}
	job := &pipeline.Job{
		SolveSpec: pipeline.SolveSpec{
			Name:        fmt.Sprintf("auto-%s[%d states]", q, m.NumStates()),
			Quantity:    q,
			Targets:     targets,
			Points:      lag.Points(times),
			ModelFP:     m.fingerprint,
			ModelStates: m.NumStates(),
		},
		Sources: src.States,
		Weights: src.Weights,
	}
	if err := job.Validate(m.NumStates()); err != nil {
		return nil, err
	}
	// Through RunSpec, not a bare Execute: RunSpec opens
	// opts.CheckpointPath, so the probe's s-points persist and replay
	// like every other run's — and a rerun after an Euler fallback
	// doesn't pay for the probe twice.
	vr, err := m.RunSpec(job.Spec(), nil, &lagOpts)
	if err != nil {
		return nil, err
	}
	stats := vr.Stats
	values := job.ReadVectors(vr.Vectors)
	decay, err := lag.CoefficientDecay(times, values)
	if err != nil {
		return nil, err
	}
	// Coefficients of a smooth original decay by many orders of
	// magnitude across the expansion; 1e-3 is a conservative cut.
	if decay < 1e-3 {
		f, err := lag.Invert(times, values)
		if err != nil {
			return nil, err
		}
		return &Result{Times: times, Values: f, Stats: stats}, nil
	}
	eulerOpts := *opts
	eulerOpts.Method = "euler"
	return m.run(q, sources, targets, times, &eulerOpts)
}
