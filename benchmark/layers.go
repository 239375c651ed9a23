package main

import (
	"math/cmplx"
	"time"

	"hydra"
	"hydra/benchmark/specs"
	"hydra/internal/dnamaca"
	"hydra/internal/lt"
	"hydra/internal/obs"
	"hydra/internal/partition"
	"hydra/internal/passage"
	"hydra/internal/petri"
	"hydra/internal/smp"
)

// The staged replay: each probe times calls into one layer's exported
// functions on the workload's own inputs, under a span named after the
// call, and reports the layer's metrics. Probes run in the traced pass
// only.

// timeMedian runs f n times and returns the median duration in seconds.
func timeMedian(n int, f func()) float64 {
	secs := make([]float64, n)
	for i := range secs {
		t0 := time.Now()
		f()
		secs[i] = time.Since(t0).Seconds()
	}
	return median(secs)
}

// repsFor sizes a micro-probe: about budget entries' worth of work in
// total, between 3 and 500 calls.
func repsFor(entries int, budget float64) int {
	return min(max(int(budget/float64(max(entries, 1))), 3), 500)
}

// probeFrontEnd times the DNAmaca front end on the generated text of
// the workload's voting system and, when asked, explores the compiled
// net to compare with the native net set-up explored.
func probeFrontEnd(r *Run, v *votingModel, slowdown bool) {
	src := specs.VotingSpec(v.size)
	var compiled *dnamaca.Compiled
	var err error
	end := r.Trace.Begin("dnamaca.Parse+Compile")
	secs := timeMedian(5, func() {
		spec, perr := dnamaca.Parse(src)
		if perr != nil {
			err = perr
			return
		}
		compiled, err = dnamaca.Compile(spec)
	})
	end()
	if !r.Op(err, "dnamaca.Parse+Compile of the generated spec") {
		return
	}
	r.Set("dnamaca.parse_compile_s", secs)
	if !slowdown {
		return
	}
	end = r.Trace.Begin("petri.Explore(compiled)")
	t0 := time.Now()
	ss, err := petri.Explore(compiled.Net, petri.ExploreOptions{MaxStates: hydra.ExploreLimit})
	d := time.Since(t0).Seconds()
	end()
	if r.Op(err, "explore compiled net") {
		r.Check(ss.NumStates() == v.m.NumStates(), "compiled net explores %d states, native net %d", ss.NumStates(), v.m.NumStates())
		r.Set("dnamaca.explore_slowdown", d/v.exploreS)
	}
}

// probeKernel times the smp, dist and sparse layers at the workload's
// model size: kernel allocation, LST sampling, kernel fill, and the two
// skip-rows products every sweep is made of.
func probeKernel(r *Run, v *votingModel, points []complex128) {
	m := v.m.SMP()
	n, nnz := m.N(), m.KernelNNZ()
	end := r.Trace.Begin("smp.NewKernelMatrix")
	u := m.NewKernelMatrix()
	r.Set("smp.kernel_alloc_s", timeMedian(3, func() { u = m.NewKernelMatrix() }))
	end()
	r.Set("smp.nnz", float64(nnz))
	kernelBytes := float64(nnz*(16+8) + (n+1)*8)
	r.Set("smp.kernel_mb", kernelBytes/(1<<20))

	sample := points[:min(len(points), 64)]
	var lsts []complex128
	end = r.Trace.Begin("smp.DistLSTsInto")
	perPoint := timeMedian(3, func() {
		for _, s := range sample {
			lsts = m.DistLSTsInto(s, lsts)
		}
	}) / float64(len(sample))
	end()
	r.Set("smp.lst_sample_us", perPoint*1e6)

	dists := m.Distributions()
	var sink complex128
	end = r.Trace.Begin("dist.LST")
	perEval := timeMedian(3, func() {
		for _, s := range sample {
			for _, d := range dists {
				sink += d.LST(s)
			}
		}
	}) / float64(len(sample)*len(dists))
	end()
	r.Set("dist.lst_ns_per_eval", perEval*1e9)

	reps := repsFor(nnz, 2e7)
	end = r.Trace.Begin("smp.FillKernelSampled")
	fill := timeMedian(reps, func() { m.FillKernelSampled(lsts, u) })
	end()
	r.Set("smp.fill_ns_per_nnz", fill*1e9/float64(nnz))

	skip := make([]bool, n)
	for _, t := range v.targets {
		skip[t] = true
	}
	x, y := make([]complex128, n), make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Rect(1, float64(i))
	}
	end = r.Trace.Begin("sparse.MulVecSkipRows")
	mul := timeMedian(reps, func() { u.MulVecSkipRows(x, y, skip) })
	end()
	end = r.Trace.Begin("sparse.VecMulSkipRows")
	vec := timeMedian(reps, func() { u.VecMulSkipRows(x, y, skip) })
	end()
	_ = sink + y[0]
	r.Set("sparse.mulvec_ns_per_nnz", mul*1e9/float64(nnz))
	r.Set("sparse.vecmul_ns_per_nnz", vec*1e9/float64(nnz))
	// What one sweep must touch if every array is read or written once:
	// the kernel, x and y (16 B each per state) and the skip flags.
	sweepBytes := kernelBytes + float64(n*(16+16+1))
	r.Set("sparse.computed_gb_per_s", sweepBytes/mul/1e9)
	r.Set("sparse.flops_per_byte", 8*float64(nnz)/sweepBytes)
}

// probeInverter times the lt layer on the call's own grid and values.
func probeInverter(r *Run, out curveOut) {
	var inv lt.Inverter = lt.DefaultEuler()
	if out.call.method == "laguerre" {
		inv = lt.DefaultLaguerre()
	}
	times := out.call.times
	values := out.job.ReadVectors(out.run.Vectors)
	end := r.Trace.Begin("lt.Points")
	r.Set("lt.points_us", timeMedian(21, func() { inv.Points(times) })*1e6)
	end()
	end = r.Trace.Begin("lt.Invert")
	var err error
	secs := timeMedian(21, func() { _, err = inv.Invert(times, values) })
	end()
	if r.Op(err, "lt.Invert") {
		r.Set("lt.invert_us_per_t", secs*1e6/float64(len(times)))
	}
	r.Set("lt.points_per_t", float64(len(out.run.Spec.Points))/float64(len(times)))
}

// replayPrefix is how many leading s-points of a contour the
// single-threaded replays cover: a fixed count per model size, so the
// counts they report repeat exactly, sized to take about a second.
func replayPrefix(points []complex128, states, perSmall int) []complex128 {
	n := perSmall
	if states > 50_000 {
		n = 8
	}
	return points[:min(n, len(points))]
}

// probePassage replays the run's contour through one passage.Solver,
// one VectorLST call per s-point as a worker would, for the per-point
// costs the pipeline's totals hide. With warm set it replays the same
// points again on a WarmStart solver for the warm-start metrics.
func probePassage(r *Run, v *votingModel, run *hydra.VectorRun, warm bool) {
	m := v.m.SMP()
	points := replayPrefix(run.Spec.Points, m.N(), 16*33)
	sv := passage.NewSolver(m, passage.Options{})
	var ms []float64
	var solve time.Duration
	var sweeps int
	for _, s := range points {
		end := r.Trace.Begin("passage.VectorLST")
		t0 := time.Now()
		_, depth, err := sv.VectorLST(s, v.targets)
		d := time.Since(t0)
		r.Trace.Add("smp.kernel_fill", sv.LastKernelFill())
		end()
		if !r.Op(err, "passage.VectorLST") {
			return
		}
		ms = append(ms, d.Seconds()*1e3)
		solve += d - sv.LastKernelFill()
		sweeps += depth
	}
	r.Set("passage.point_ms_p50", median(ms))
	r.Set("passage.point_ms_p90", quantile(ms, 0.9))
	r.Set("passage.prepare_s", (ms[0]-median(ms))/1e3)
	if ns := r.Layer["sparse.mulvec_ns_per_nnz"]; ns > 0 {
		ideal := float64(sweeps) * float64(m.KernelNNZ()) * ns / 1e9
		r.Set("passage.sweep_overhead_frac", solve.Seconds()/ideal-1)
	}
	if !warm {
		return
	}
	wsv := passage.NewSolver(m, passage.Options{WarmStart: true})
	warmed, warmSweeps := 0, 0
	end := r.Trace.Begin("passage.VectorLST(warm)")
	for _, s := range points {
		_, depth, err := wsv.VectorLST(s, v.targets)
		if !r.Op(err, "warm passage.VectorLST") {
			break
		}
		if w, _ := wsv.LastWarmStart(); w {
			warmed++
		}
		warmSweeps += depth
	}
	end()
	r.Set("passage.warm_start_frac", float64(warmed)/float64(len(ms)))
	r.Set("passage.sweeps_saved", float64(sweeps-warmSweeps))
}

// probeTransient replays the block multi-RHS route point by point.
func probeTransient(r *Run, v *votingModel, points []complex128) {
	sv := passage.NewSolver(v.m.SMP(), passage.Options{})
	var ms []float64
	for _, s := range replayPrefix(points, v.m.NumStates(), 12) {
		end := r.Trace.Begin("passage.TransientVectorLST")
		t0 := time.Now()
		_, err := sv.TransientVectorLST(s, v.targets)
		d := time.Since(t0)
		end()
		if !r.Op(err, "passage.TransientVectorLST") {
			return
		}
		ms = append(ms, d.Seconds()*1e3)
	}
	r.Set("passage.transient_point_ms", median(ms))
	r.Set("passage.transient_ms_per_col", median(ms)/float64(len(v.targets)))
}

// probeObs runs the workload's repetition with the observability
// kill-switch off and on.
func probeObs(r *Run, w workload) {
	was := obs.SetEnabled(false)
	off, errOff := w.Rep(nil)
	obs.SetEnabled(true)
	on, errOn := w.Rep(nil)
	obs.SetEnabled(was)
	if r.Op(errOff, "repetition with obs off") && r.Op(errOn, "repetition with obs on") {
		r.Set("obs.overhead_frac", on.Wall.Seconds()/off.Wall.Seconds()-1)
	}
}

// kernelGraph presents a model's kernel sparsity to the partitioner.
type kernelGraph struct{ m *smp.Model }

func (g kernelGraph) NumRows() int                  { return g.m.N() }
func (g kernelGraph) Neighbors(i int, fn func(int)) { g.m.KernelCols(i, fn) }

// probePartition times the shard planner on the workload's kernel.
func probePartition(r *Run, v *votingModel, parts int) {
	g := kernelGraph{v.m.SMP()}
	var plan partition.Plan
	end := r.Trace.Begin("partition.PlanBlocks")
	r.Set("partition.plan_s", timeMedian(3, func() { plan = partition.PlanBlocks(g, parts, v.targets, 0) }))
	end()
	r.Set("partition.boundary_vertices", float64(plan.Boundary))
	r.Set("partition.cut_edges", float64(plan.Cut))
	largest := 0
	for _, rg := range plan.Ranges {
		largest = max(largest, rg.Hi-rg.Lo)
	}
	if len(plan.Ranges) > 0 {
		r.Set("partition.imbalance", float64(largest*len(plan.Ranges))/float64(g.NumRows())-1)
	}
}
