package main

import (
	"bytes"
	"encoding/json"
)

// Metric is one named number of the benchmark's vocabulary; README.md
// maps each layer's metrics to the end-to-end metric and workload they
// should move.
type Metric struct {
	Name   string
	Unit   string
	Better string  // "lower" | "higher"
	Bound  float64 // end-to-end only: share of the parent's median
	Doc    string
}

// endToEnd is what a user of hydra sees. Every workload reports every
// one of them from the untraced pass, and none is ever 0.
var endToEnd = []Metric{
	{"setup_s", "s", "lower", 0.25, "median of the repeated untimed set-up: model build/explore, moments for the t-grid, fleet connect and shard planning, server start + upload + surface prewarm"},
	{"wall_s", "s", "lower", 0.20, "median time of one repetition: request in, curve or answer out, at Options{} accuracy"},
	{"work_per_s", "1/s", "higher", 0.20, "units of the workload's work per second of wall_s: s-point vector solves (RunStats.Evaluated) on the solve workloads, states loaded on load-250k, HTTP requests on serve-mix-2k"},
	{"req_p50_ms", "ms", "lower", 0.20, "median latency of what a caller waits for: one HTTP request on serve-mix-2k, one repetition elsewhere"},
	{"req_p99_ms", "ms", "lower", 0.25, "nearest-rank p99 of the same latencies (the slowest repetition when there are fewer than 100); on serve-mix-2k it lies in the cold-miss class"},
	{"peak_rss_mb", "MiB", "lower", 0.15, "VmHWM of the workload's process at the end of the timed region"},
}

// perLayer is measured from outside, in the traced pass, by timing
// calls into each layer's exported functions. A workload reports 0 for
// a layer it does not exercise.
var perLayer = []Metric{
	{"dnamaca.parse_compile_s", "s", "lower", 0, "dnamaca.Parse + Compile of the workload's generated spec"},
	{"dnamaca.explore_slowdown", "ratio", "lower", 0, "petri.Explore of the compiled net ÷ of the native voting.BuildNet net, same size"},
	{"petri.explore_s", "s", "lower", 0, "petri.Explore of the workload's net (includes the SMP build)"},
	{"petri.states_per_s", "1/s", "higher", 0, "states ÷ petri.explore_s"},
	{"petri.alloc_mb", "MiB", "lower", 0, "bytes allocated during that exploration"},
	{"petri.states", "count", "lower", 0, "states explored; repeats exactly"},
	{"dtmc.steady_state_s", "s", "lower", 0, "dtmc.SteadyStateGS on the embedded chain"},
	{"dtmc.residual", "ratio", "lower", 0, "dtmc.Residual of that vector"},
	{"smp.kernel_alloc_s", "s", "lower", 0, "smp.NewKernelMatrix"},
	{"smp.lst_sample_us", "us", "lower", 0, "smp.DistLSTsInto per s-point"},
	{"smp.fill_ns_per_nnz", "ns", "lower", 0, "smp.FillKernelSampled per stored kernel entry"},
	{"smp.kernel_mb", "MiB", "lower", 0, "kernel values + column indices + row pointers, computed from array sizes"},
	{"smp.nnz", "count", "lower", 0, "stored kernel entries; repeats exactly"},
	{"dist.lst_ns_per_eval", "ns", "lower", 0, "one Distribution.LST evaluation, averaged over the model's interned distributions"},
	{"sparse.mulvec_ns_per_nnz", "ns", "lower", 0, "CMatrix.MulVecSkipRows per stored entry at the workload's model size"},
	{"sparse.vecmul_ns_per_nnz", "ns", "lower", 0, "CMatrix.VecMulSkipRows per stored entry"},
	{"sparse.computed_gb_per_s", "GB/s", "higher", 0, "bytes one MulVecSkipRows sweep must touch (computed from array sizes) ÷ its time"},
	{"sparse.flops_per_byte", "ratio", "higher", 0, "8 flops per entry ÷ those computed bytes"},
	{"passage.sweeps_per_point", "count", "lower", 0, "Eq. (10) kernel traversals per s-point"},
	{"passage.sweeps_total", "count", "lower", 0, "the same, summed over the replayed contour; repeats exactly"},
	{"passage.point_ms_p50", "ms", "lower", 0, "median Solver.VectorLST call"},
	{"passage.point_ms_p90", "ms", "lower", 0, "p90 of the same"},
	{"passage.prepare_s", "s", "lower", 0, "first VectorLST call − the median call: per-target-set preparation"},
	{"passage.sweep_overhead_frac", "ratio", "lower", 0, "solve time ÷ (sweeps × nnz × sparse.mulvec_ns_per_nnz) − 1"},
	{"passage.warm_start_frac", "ratio", "higher", 0, "share of points a WarmStart solver seeded from a neighbour"},
	{"passage.sweeps_saved", "count", "higher", 0, "cold sweeps − warm sweeps over the same points"},
	{"passage.transient_point_ms", "ms", "lower", 0, "median Solver.TransientVectorLST call"},
	{"passage.transient_ms_per_col", "ms", "lower", 0, "that ÷ target columns"},
	{"passage.direct_point_ms", "ms", "lower", 0, "median Solver.DirectVectorLST call (the oracle's own cost)"},
	{"passage.moments_s", "s", "lower", 0, "passage.PassageMoments"},
	{"lt.points_us", "us", "lower", 0, "Inverter.Points for the workload's grid"},
	{"lt.invert_us_per_t", "us", "lower", 0, "Inverter.Invert per t-point"},
	{"lt.points_per_t", "count", "lower", 0, "s-points per t-point"},
	{"partition.plan_s", "s", "lower", 0, "partition.PlanBlocks into 2 blocks"},
	{"partition.boundary_vertices", "count", "lower", 0, "vertices whose value crosses blocks"},
	{"partition.cut_edges", "count", "lower", 0, "kernel entries coupling the two blocks"},
	{"partition.imbalance", "ratio", "lower", 0, "largest block's rows ÷ even share − 1"},
	{"pipeline.inproc.overhead_frac", "ratio", "lower", 0, "1 − Σ solver time ÷ (workers × wall)"},
	{"pipeline.inproc.worker_balance", "ratio", "higher", 0, "fewest ÷ most points evaluated by a worker"},
	{"pipeline.fleet.batch_rtt_ms_mean", "ms", "lower", 0, "mean assignment round trip (hydra_fleet_batch_duration_seconds)"},
	{"pipeline.fleet.batches", "count", "lower", 0, "assignments sent"},
	{"pipeline.fleet.requeued", "count", "lower", 0, "points reassigned"},
	{"pipeline.fleet.wire_mb", "MiB", "lower", 0, "result vectors on the wire, computed as points × states × 16 B"},
	{"pipeline.fleet.efficiency", "ratio", "higher", 0, "in-process 1-worker wall ÷ (2 × fleet 2-worker wall), same spec; 0 when workers > num_cpu"},
	{"pipeline.checkpoint.write_mb_per_s", "MiB/s", "higher", 0, "checkpoint bytes ÷ repetition wall"},
	{"pipeline.checkpoint.bytes_per_point", "B", "lower", 0, "checkpoint bytes ÷ s-points"},
	{"pipeline.checkpoint.replay_s", "s", "lower", 0, "the same spec answered from the checkpoint file alone"},
	{"pipeline.shard.compute_s", "s", "lower", 0, "RunStats.ShardComputeNS"},
	{"pipeline.shard.exchange_s", "s", "lower", 0, "RunStats.ShardExchangeNS"},
	{"pipeline.shard.exchanged_values", "count", "lower", 0, "RunStats.ShardExchanged; repeats exactly"},
	{"pipeline.shard.sweeps", "count", "lower", 0, "RunStats.ShardSweeps; repeats exactly"},
	{"pipeline.shard.speedup_vs_mono", "ratio", "higher", 0, "in-process 1-worker wall ÷ sharded 2-worker wall, same spec, measured; 0 when workers > num_cpu"},
	{"surface.build_s", "s", "lower", 0, "Model.PassageSurface"},
	{"surface.solves", "count", "lower", 0, "Surface.Solves"},
	{"surface.grid_points", "count", "lower", 0, "len(Surface.Times)"},
	{"surface.read_ns", "ns", "lower", 0, "one Surface.Quantile read"},
	{"surface.bisect_s", "s", "lower", 0, "one PassageQuantile bisection for the same answer"},
	{"surface.vs_bisect_rel_err", "ratio", "lower", 0, "|surface − bisection| ÷ bisection"},
	{"server.upload_s", "s", "lower", 0, "POST /v1/models"},
	{"server.http_floor_us", "us", "lower", 0, "median GET /healthz round trip"},
	{"server.hit_p50_ms", "ms", "lower", 0, "batched quantile on the resident surface, median"},
	{"server.hit_p99_ms", "ms", "lower", 0, "the same, p99"},
	{"server.cached_p50_ms", "ms", "lower", 0, "pooled passage-CDF, median"},
	{"server.miss_p50_ms", "ms", "lower", 0, "never-repeated density, median"},
	{"server.miss_p90_ms", "ms", "lower", 0, "the same, p90"},
	{"server.cache_hit_frac", "ratio", "higher", 0, "(result-cache hits + surface hits) ÷ requests, from /v1/stats"},
	{"server.coalesced", "count", "higher", 0, "requests that joined an in-flight solve, from /v1/stats"},
	{"obs.overhead_frac", "ratio", "lower", 0, "wall with obs.SetEnabled(true) ÷ with false − 1"},
	{"trace.overhead_frac", "ratio", "lower", 0, "traced repetition ÷ untraced repetition of the same run − 1"},
}

// workloadDef names a workload, records why it exists (BENCHMARK.json
// quotes it) and builds it for a run.
type workloadDef struct {
	Name, Why string
	New       func(*Run) workload
}

// contractJSON renders BENCHMARK.json from the tables above, so the
// file and the code cannot name different metrics.
func contractJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	c := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		c.Workloads = append(c.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		c.EndToEnd = append(c.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		c.PerLayer = append(c.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(c); err != nil {
		panic(err) // static tables: cannot fail
	}
	return buf.Bytes()
}
