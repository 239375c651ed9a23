package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"time"

	"hydra"
	"hydra/benchmark/specs"
	"hydra/internal/pipeline"
)

// curveCall is one library request of an in-process curve workload.
type curveCall struct {
	kind   string // "density" | "cdf" | "transient"
	method string // "" (Euler) | "laguerre"
	times  []float64
}

// curveOut keeps what a call returned, for the oracles.
type curveOut struct {
	call   curveCall
	job    *hydra.Job
	run    *hydra.VectorRun
	result *hydra.Result
}

// votingModel is the state every voting workload sets up: the explored
// model, the all-voted target set, and the passage moments its t-grids
// are placed around.
type votingModel struct {
	size     specs.Voting
	m        *hydra.Model
	sources  []int
	targets  []int
	mean, sd float64

	exploreS, allocMB, momentsS float64 // set-up costs, for the petri/passage layer metrics
}

// allVoted returns the states in which every voter has voted (p2 = CC).
func allVoted(m *hydra.Model, cc int) []int {
	p2 := m.PlaceIndex("p2")
	return m.States(func(mk hydra.Marking) bool { return mk[p2] >= int32(cc) })
}

// buildVoting explores a voting system and derives the request scale
// from PassageMoments (the time-domain oracle, no transforms).
func buildVoting(tr *Tracer, size specs.Voting) (*votingModel, error) {
	v := &votingModel{size: size, sources: []int{0}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	end := tr.Begin("petri.explore")
	t0 := time.Now()
	m, err := hydra.VotingConfig(size.CC, size.MM, size.NN)
	v.exploreS = time.Since(t0).Seconds()
	end()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	v.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	v.m = m
	v.targets = allVoted(m, size.CC)
	if len(v.targets) == 0 {
		return nil, fmt.Errorf("no all-voted states in voting %v", size)
	}
	end = tr.Begin("passage.moments")
	t0 = time.Now()
	mean, variance, err := m.PassageMoments(v.sources, v.targets)
	v.momentsS = time.Since(t0).Seconds()
	end()
	if err != nil {
		return nil, err
	}
	v.mean, v.sd = mean, math.Sqrt(variance)
	return v, nil
}

// setFrontEndLayers reports what set-up measured.
func (v *votingModel) setFrontEndLayers(r *Run) {
	r.Set("petri.explore_s", v.exploreS)
	r.Set("petri.states", float64(v.m.NumStates()))
	r.Set("petri.states_per_s", float64(v.m.NumStates())/v.exploreS)
	r.Set("petri.alloc_mb", v.allocMB)
	r.Set("passage.moments_s", v.momentsS)
}

// curves is an in-process curve workload: a voting model, a seeded list
// of library calls, and a worker count.
type curves struct {
	r       *Run
	size    specs.Voting
	workers int
	plan    func(rng *rand.Rand, v *votingModel) []curveCall
	// perPoint marks the workload the per-point fixed costs are read
	// on: its traced pass adds the warm-start replay and the
	// observability on/off repetitions.
	perPoint bool

	v     *votingModel
	calls []curveCall
	last  []curveOut
}

func (c *curves) Setup() error {
	v, err := buildVoting(c.r.Trace, c.size)
	if err != nil {
		return err
	}
	c.v = v
	c.calls = c.plan(specs.NewRand(c.r.Seed, 1), v)
	return nil
}

func (c *curves) Close() {}

func (c *curves) options(call curveCall) *hydra.Options {
	return &hydra.Options{Method: call.method, Workers: c.workers}
}

// runCall is one library request, the way Model.PassageDensity and its
// siblings run it — job, solve on a fresh in-process backend, read —
// split so the oracles can see the transform vectors.
func runCall(tr *Tracer, v *votingModel, call curveCall, opts *hydra.Options) (curveOut, error) {
	out := curveOut{call: call}
	var err error
	end := tr.Begin("hydra.NewJob")
	switch call.kind {
	case "density":
		out.job, err = v.m.NewPassageJob("bench", v.sources, v.targets, call.times, false, opts)
	case "cdf":
		out.job, err = v.m.NewPassageJob("bench", v.sources, v.targets, call.times, true, opts)
	case "transient":
		out.job, err = v.m.NewTransientJob("bench", v.sources, v.targets, call.times, opts)
	default:
		err = fmt.Errorf("unknown call kind %q", call.kind)
	}
	end()
	if err != nil {
		return out, err
	}
	end = tr.Begin("hydra.RunSpec")
	out.run, err = v.m.RunSpec(out.job.Spec(), nil, opts)
	if err == nil {
		addPhaseSpans(tr, out.run.Stats)
	}
	end()
	if err != nil {
		return out, err
	}
	end = tr.Begin("hydra.ReadRun")
	out.result, err = hydra.ReadRun(out.run, out.job.Sources, out.job.Weights, call.times, opts)
	end()
	return out, err
}

// addPhaseSpans turns RunStats.Phases — evaluator time summed over the
// workers — into child spans of the open RunSpec span, each scaled to
// its wall share, so RunSpec's self time is what dispatch, caching and
// reassembly cost.
func addPhaseSpans(tr *Tracer, st *hydra.RunStats) {
	if tr == nil || st == nil {
		return
	}
	w := time.Duration(max(st.Workers, 1))
	tr.Add("smp.kernel_fill", st.Phases[pipeline.PhaseKernelFill]/w)
	tr.Add("passage.solve", st.Phases[pipeline.PhaseSolve]/w)
}

func (c *curves) Rep(tr *Tracer) (Rep, error) {
	c.last = nil // a caller keeps one answer, not the previous one too
	outs := make([]curveOut, 0, len(c.calls))
	var work float64
	t0 := time.Now()
	for _, call := range c.calls {
		out, err := runCall(tr, c.v, call, c.options(call))
		if err != nil {
			return Rep{}, fmt.Errorf("%s: %w", call.kind, err)
		}
		work += float64(out.run.Stats.Evaluated)
		outs = append(outs, out)
	}
	wall := time.Since(t0)
	c.last = outs
	return Rep{Wall: wall, Work: work}, nil
}

func (c *curves) Verify() {
	rng := specs.NewRand(c.r.Seed, 2)
	checkPoints(c.r, c.v, c.last[0], rng, 4)
	for _, out := range c.last {
		if out.call.kind == "cdf" {
			checkCDF(c.r, out.result, c.v.mean)
		}
	}
}

func (c *curves) Layers() {
	r, v := c.r, c.v
	v.setFrontEndLayers(r)
	first := c.last[0]
	inprocLayers(r, first.run.Stats, c.workers)
	probeFrontEnd(r, v, false)
	probeKernel(r, v, first.run.Spec.Points)
	probeInverter(r, first)
	if first.call.kind == "transient" {
		probeTransient(r, v, first.run.Spec.Points)
	} else {
		probePassage(r, v, first.run, c.perPoint)
	}
	if c.perPoint {
		probeObs(r, c)
	}
}

// inprocLayers derives the in-process pool's share from one run's
// stats: what part of workers × wall the solvers were not busy, and how
// evenly the points fell.
func inprocLayers(r *Run, st *hydra.RunStats, workers int) {
	busy := (st.Phases[pipeline.PhaseKernelFill] + st.Phases[pipeline.PhaseSolve]).Seconds()
	r.Set("pipeline.inproc.overhead_frac", 1-busy/(float64(workers)*st.WallTime.Seconds()))
	lo, hi := math.MaxInt, 0
	for _, n := range st.PerWorker {
		lo, hi = min(lo, n), max(hi, n)
	}
	if hi > 0 {
		r.Set("pipeline.inproc.worker_balance", float64(lo)/float64(hi))
	}
	setSweeps(r, st)
}

// setSweeps reports the run's Eq. (10) traversal counts.
func setSweeps(r *Run, st *hydra.RunStats) {
	r.Set("passage.sweeps_total", float64(st.TotalDepth))
	r.Set("passage.sweeps_per_point", float64(st.TotalDepth)/float64(max(st.Evaluated, 1)))
}

// The three in-process curve workloads.

func newSolve106k(r *Run) workload {
	size := specs.System1
	if r.Tiny {
		size = specs.Tiny
	}
	return &curves{r: r, size: size, workers: 1,
		plan: func(rng *rand.Rand, v *votingModel) []curveCall {
			// One t-point near the mean: 33 Euler s-points. The jitter is
			// ±2%, not the grids' ±10%: sweeps grow with t, and a single
			// point has nothing to average the difference out over.
			return []curveCall{{kind: "density", times: []float64{specs.Jitter(rng, v.mean, 0.02)}}}
		}}
}

func newContour2k(r *Run) workload {
	size, nt := specs.System0, 48
	if r.Tiny {
		size, nt = specs.Tiny, 24
	}
	return &curves{r: r, size: size, workers: 2, perPoint: true,
		plan: func(rng *rand.Rand, v *votingModel) []curveCall {
			// The grid reaches from near 0 to far into the tail so the
			// CDF curve carries the whole mean (check 2).
			grid := specs.Grid(rng, 0.05*v.mean, v.mean+7*v.sd, nt, 0.10)
			lag := specs.Grid(rng, 0.3*v.mean, v.mean+3*v.sd, nt/2, 0.10)
			return []curveCall{
				{kind: "density", times: grid},
				{kind: "cdf", times: grid},
				{kind: "density", method: "laguerre", times: lag},
			}
		}}
}

func newTransient2k(r *Run) workload {
	size := specs.System0
	if r.Tiny {
		size = specs.Tiny
	}
	return &curves{r: r, size: size, workers: 2,
		plan: func(rng *rand.Rand, v *votingModel) []curveCall {
			return []curveCall{{kind: "transient", times: []float64{specs.Jitter(rng, v.mean, 0.02)}}}
		}}
}
