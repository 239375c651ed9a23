// Command hydra-bench regenerates every table and figure of the paper's
// evaluation section and prints the same rows/series the paper reports.
//
// Experiments:
//
//	table1   state-space sizes for voting systems 0-5 (exact match)
//	table2   distributed scalability: time/speedup/efficiency vs workers
//	fleet    the same scalability over a real TCP worker fleet (-json
//	         writes the rows for trend tracking)
//	vector   multi-source workload: K source weightings over one
//	         (model, targets, times) query — scalar replay (K solves)
//	         vs the vector engine (one solve + K dot-product reads);
//	         -json writes the rows for trend tracking
//	obs      instrumentation overhead: the vector solve with the
//	         observability instruments enabled vs disabled; -json
//	         writes the datapoint for trend tracking
//	resident prepared-model reuse: per-point latency of one warm,
//	         contour-ordered evaluator vs a fresh evaluator per
//	         s-point; -json writes the trajectory for trend tracking
//	shard    sharded vs monolithic fleet solves at equal worker
//	         counts: row-block sharding against whole-point
//	         farming, with measured and cluster-projected wall times
//	         and the differential max|Δ|; -json writes the rows for
//	         trend tracking
//	serve    served quantiles: K-level batched requests answered from
//	         one resident CDF surface vs per-level bisection searches,
//	         over the real HTTP API with concurrent clients; -json
//	         writes the datapoint for trend tracking
//	fig4     voter passage density, analytic vs simulation
//	fig5     passage CDF and the 98.58% response-time quantile
//	fig6     failure-mode passage density, analytic vs simulation
//	fig7     transient state distribution vs steady state
//	ablations iterative-vs-direct, euler-vs-laguerre, interning, checkpoint
//
// Usage:
//
//	hydra-bench -exp all            (defaults sized for a laptop)
//	hydra-bench -exp table1 -full   (adds the 1.14M-state systems)
//	hydra-bench -exp table2 -full   (uses the paper's system 1 workload)
//	hydra-bench -exp fleet -json BENCH_fleet.json
//	hydra-bench -exp vector -json BENCH_vector.json
//	hydra-bench -exp resident -json BENCH_resident.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"hydra/internal/experiments"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: table1|table2|fleet|vector|obs|resident|shard|serve|fig4|fig5|fig6|fig7|ablations|all")
		full     = flag.Bool("full", false, "paper-scale workloads (slower)")
		reps     = flag.Int("reps", 0, "simulation replications override")
		jsonPath = flag.String("json", "", "also write the experiment's rows as JSON to this file (fleet, vector, obs, resident)")
	)
	flag.Parse()

	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Printf("== %s ==\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "hydra-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("table1", func() error { return table1(*full) })
	run("table2", func() error { return table2(*full) })
	run("fleet", func() error { return fleetScaling(*full, *jsonPath) })
	run("vector", func() error { return vectorScaling(*full, *jsonPath) })
	run("obs", func() error { return obsOverhead(*full, *jsonPath) })
	run("resident", func() error { return residentReuse(*full, *jsonPath) })
	run("shard", func() error { return shardScaling(*full, *jsonPath) })
	run("serve", func() error { return serveBench(*full, *jsonPath) })
	run("fig4", func() error { return fig4(*full, *reps) })
	run("fig5", func() error { return fig5(*full) })
	run("fig6", func() error { return fig6(*reps) })
	run("fig7", func() error { return fig7() })
	run("ablations", ablations)
}

func table1(full bool) error {
	rows, err := experiments.Table1(full)
	if err != nil {
		return err
	}
	fmt.Println("system,CC,MM,NN,states,paper,match,seconds")
	for _, r := range rows {
		fmt.Printf("%d,%d,%d,%d,%d,%d,%v,%.3f\n",
			r.System, r.CC, r.MM, r.NN, r.States, r.Want, r.States == r.Want, r.Seconds)
	}
	return nil
}

func table2(full bool) error {
	cfg := experiments.Table2Config{}
	if full {
		// The paper's workload: system 1, 5 t-points, 165 s-points.
		cfg = experiments.Table2Config{CC: 60, MM: 25, NN: 4, TPoints: 5}
	}
	rows, err := experiments.Table2(cfg)
	if err != nil {
		return err
	}
	fmt.Println("mode,workers,seconds,speedup,efficiency")
	for _, r := range rows {
		fmt.Printf("%s,%d,%.3f,%.2f,%.3f\n", r.Mode, r.Workers, r.Seconds, r.Speedup, r.Efficiency)
	}
	return nil
}

// fleetScaling measures the worker-scaling datapoint over a real TCP
// fleet and optionally records it as JSON for trend tracking in CI.
func fleetScaling(full bool, jsonPath string) error {
	cfg := experiments.FleetScalingConfig{}
	if full {
		cfg = experiments.FleetScalingConfig{CC: 30, MM: 10, NN: 3, TPoints: 5, Workers: []int{1, 2, 4, 8}}
	}
	rows, err := experiments.FleetScaling(cfg)
	if err != nil {
		return err
	}
	fmt.Println("workers,seconds,speedup,efficiency,points")
	for _, r := range rows {
		fmt.Printf("%d,%.3f,%.2f,%.3f,%d\n", r.Workers, r.Seconds, r.Speedup, r.Efficiency, r.Points)
	}
	if jsonPath == "" {
		return nil
	}
	doc := struct {
		Experiment  string                 `json:"experiment"`
		GeneratedAt time.Time              `json:"generated_at"`
		NumCPU      int                    `json:"num_cpu"`
		GoVersion   string                 `json:"go_version"`
		Rows        []experiments.FleetRow `json:"rows"`
	}{
		Experiment: "fleet-scaling", GeneratedAt: time.Now().UTC(),
		NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), Rows: rows,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(jsonPath, append(b, '\n'), 0o644)
}

// vectorScaling measures the scalar-vs-vector multi-source datapoint —
// near-flat solve cost in the number of source weightings K is the
// vector engine's acceptance property — and optionally records it as
// JSON for trend tracking in CI.
func vectorScaling(full bool, jsonPath string) error {
	cfg := experiments.VectorScalingConfig{}
	if full {
		cfg = experiments.VectorScalingConfig{CC: 30, MM: 10, NN: 3, TPoints: 3, Ks: []int{1, 2, 4, 8, 16}}
	}
	rows, err := experiments.VectorScaling(cfg)
	if err != nil {
		return err
	}
	fmt.Println("k,scalar_seconds,vector_seconds,scalar_points,vector_points,speedup")
	for _, r := range rows {
		fmt.Printf("%d,%.3f,%.3f,%d,%d,%.2f\n",
			r.K, r.ScalarSeconds, r.VectorSeconds, r.ScalarPoints, r.VectorPoints, r.Speedup)
	}
	if jsonPath == "" {
		return nil
	}
	doc := struct {
		Experiment  string                  `json:"experiment"`
		GeneratedAt time.Time               `json:"generated_at"`
		NumCPU      int                     `json:"num_cpu"`
		GoVersion   string                  `json:"go_version"`
		Rows        []experiments.VectorRow `json:"rows"`
	}{
		Experiment: "vector-scaling", GeneratedAt: time.Now().UTC(),
		NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), Rows: rows,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(jsonPath, append(b, '\n'), 0o644)
}

// obsOverhead measures the instrumentation tax on the solver hot path —
// the observability layer's acceptance property is staying under a few
// percent of solve wall time — and optionally records the datapoint as
// JSON for trend tracking in CI.
func obsOverhead(full bool, jsonPath string) error {
	cfg := experiments.ObsOverheadConfig{}
	if full {
		cfg = experiments.ObsOverheadConfig{CC: 30, MM: 10, NN: 3, TPoints: 3, Rounds: 5}
	}
	res, err := experiments.ObsOverhead(cfg)
	if err != nil {
		return err
	}
	fmt.Println("enabled_seconds,disabled_seconds,overhead_pct,points,rounds")
	fmt.Printf("%.4f,%.4f,%.2f,%d,%d\n",
		res.EnabledSeconds, res.DisabledSeconds, res.OverheadPct, res.Points, res.Rounds)
	if jsonPath == "" {
		return nil
	}
	doc := struct {
		Experiment  string                        `json:"experiment"`
		GeneratedAt time.Time                     `json:"generated_at"`
		NumCPU      int                           `json:"num_cpu"`
		GoVersion   string                        `json:"go_version"`
		Result      experiments.ObsOverheadResult `json:"result"`
	}{
		Experiment: "obs-overhead", GeneratedAt: time.Now().UTC(),
		NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), Result: res,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(jsonPath, append(b, '\n'), 0o644)
}

// residentReuse measures the per-point latency trajectory of a
// prepared, warm-starting evaluator against per-point rebuilds on the
// same contour - the resident column dropping below the rebuild column
// after each contour block's first point is the prepared-model cache's
// acceptance property - and optionally records it as JSON for trend
// tracking in CI.
func residentReuse(full bool, jsonPath string) error {
	cfg := experiments.ResidentConfig{}
	if full {
		cfg = experiments.ResidentConfig{CC: 30, MM: 10, NN: 3, TPoints: 3}
	}
	rows, err := experiments.ResidentReuse(cfg)
	if err != nil {
		return err
	}
	var rebuild, resident float64
	warm, saved := 0, 0
	for _, r := range rows {
		rebuild += r.RebuildMicros
		resident += r.ResidentMicros
		if r.Warm {
			warm++
			saved += r.SweepsSaved
		}
	}
	fmt.Println("points,rebuild_seconds,resident_seconds,speedup,warm_starts,sweeps_saved")
	fmt.Printf("%d,%.4f,%.4f,%.2f,%d,%d\n",
		len(rows), rebuild/1e6, resident/1e6, rebuild/resident, warm, saved)
	if jsonPath == "" {
		return nil
	}
	doc := struct {
		Experiment  string                    `json:"experiment"`
		GeneratedAt time.Time                 `json:"generated_at"`
		NumCPU      int                       `json:"num_cpu"`
		GoVersion   string                    `json:"go_version"`
		Rows        []experiments.ResidentRow `json:"rows"`
	}{
		Experiment: "resident-reuse", GeneratedAt: time.Now().UTC(),
		NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), Rows: rows,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(jsonPath, append(b, '\n'), 0o644)
}

// shardScaling measures row-block sharding against whole-point farming
// at equal worker counts, one row per conduct (planned /
// planned+batched) so the boundary-vertex (planned next to the naive
// contiguous split's), exchanged-value and exchange-second columns
// attribute the exchange tax — the projected column beating the monolithic path is the
// sharded engine's acceptance property, and the differential
// max|Δ| ≤ 1e-6 is enforced before any timing counts — and optionally
// records the rows as JSON for trend tracking in CI. -full adds a
// ≥10^6-state datapoint (voting 125/50/5, 1,000,750 states) at 4
// workers on top of the default 106k-state sweep.
func shardScaling(full bool, jsonPath string) error {
	rows, err := experiments.ShardScaling(experiments.ShardScalingConfig{})
	if err != nil {
		return err
	}
	if full {
		big, err := experiments.ShardScaling(experiments.ShardScalingConfig{
			CC: 125, MM: 50, NN: 5, Points: 1, Workers: []int{4},
		})
		if err != nil {
			return err
		}
		rows = append(rows, big...)
	}
	fmt.Println("workers,strategy,points,states,mono_s,mono_proj_s,shard_s,shard_proj_s,proj_speedup,sweeps,boundary,naive_boundary,exchanged,compute_s,exchange_s,max_delta")
	for _, r := range rows {
		fmt.Printf("%d,%s,%d,%d,%.4f,%.4f,%.4f,%.4f,%.2f,%d,%d,%d,%d,%.4f,%.4f,%.2e\n",
			r.Workers, r.Strategy, r.Points, r.States, r.MonoSeconds, r.MonoProjSeconds,
			r.ShardSeconds, r.ShardProjSeconds, r.ProjSpeedup,
			r.ShardSweeps, r.ShardBoundary, r.NaiveBoundary, r.ShardExchanged,
			r.ComputeSeconds, r.ExchangeSeconds, r.MaxDelta)
	}
	if jsonPath == "" {
		return nil
	}
	doc := struct {
		Experiment  string                 `json:"experiment"`
		GeneratedAt time.Time              `json:"generated_at"`
		NumCPU      int                    `json:"num_cpu"`
		GoVersion   string                 `json:"go_version"`
		Rows        []experiments.ShardRow `json:"rows"`
	}{
		Experiment: "shard-scaling", GeneratedAt: time.Now().UTC(),
		NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), Rows: rows,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(jsonPath, append(b, '\n'), 0o644)
}

// serveBench measures the served quantile path both ways over the real
// HTTP API — K-level batched reads from one resident CDF surface vs
// per-level bisection searches — and optionally records the datapoint
// as JSON for trend tracking in CI. The acceptance property is the
// surface arm's p99 batch latency (all K levels) landing below the cost
// of two cold bisection searches.
func serveBench(full bool, jsonPath string) error {
	cfg := experiments.ServeBenchConfig{}
	if full {
		cfg = experiments.ServeBenchConfig{CC: 30, MM: 10, NN: 3, Concurrency: 8, Rounds: 16}
	}
	res, err := experiments.ServeBench(cfg)
	if err != nil {
		return err
	}
	fmt.Println("arm,levels,build_ms,cold_ms,qps,p50_ms,p95_ms,p99_ms")
	fmt.Printf("surface,%d,%.1f,,%.1f,%.2f,%.2f,%.2f\n",
		res.Levels, res.SurfaceBuildMS, res.SurfaceQPS, res.SurfaceP50MS, res.SurfaceP95MS, res.SurfaceP99MS)
	fmt.Printf("bisect,1,,%.1f,%.1f,%.2f,%.2f,%.2f\n",
		res.BisectColdMS, res.BisectQPS, res.BisectP50MS, res.BisectP95MS, res.BisectP99MS)
	fmt.Printf("# surface p99 (%d levels) = %.2f ms vs two cold searches = %.2f ms: under = %v (max rel delta %.2e)\n",
		res.Levels, res.SurfaceP99MS, 2*res.BisectColdPerSearchMS, res.P99UnderTwoSearches, res.MaxDeltaRel)
	if jsonPath == "" {
		return nil
	}
	doc := struct {
		Experiment  string                       `json:"experiment"`
		GeneratedAt time.Time                    `json:"generated_at"`
		NumCPU      int                          `json:"num_cpu"`
		GoVersion   string                       `json:"go_version"`
		Result      experiments.ServeBenchResult `json:"result"`
	}{
		Experiment: "serve-quantile", GeneratedAt: time.Now().UTC(),
		NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), Result: res,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(jsonPath, append(b, '\n'), 0o644)
}

func figDensity(pts []experiments.CurvePoint) {
	fmt.Println("t,analytic,simulated")
	for _, p := range pts {
		fmt.Printf("%g,%g,%g\n", p.T, p.Analytic, p.Simulated)
	}
}

func fig4(full bool, reps int) error {
	opts := experiments.FigOptions{System: 0, Replications: reps}
	if full {
		opts.System = 1 // systems 2-5 need cluster-scale runtimes
	}
	pts, err := experiments.Fig4(opts)
	if err != nil {
		return err
	}
	figDensity(pts)
	return nil
}

func fig5(full bool) error {
	opts := experiments.FigOptions{System: 0}
	if full {
		opts.System = 1
	}
	res, err := experiments.Fig5(opts)
	if err != nil {
		return err
	}
	fmt.Println("t,cdf")
	for i := range res.Times {
		fmt.Printf("%g,%g\n", res.Times[i], res.CDF[i])
	}
	fmt.Printf("# IP(passage < %.4gs) = %.4f  (paper: IP(T < 440s) = 0.9858 on system 5)\n",
		res.QuantileT, res.QuantileP)
	return nil
}

func fig6(reps int) error {
	pts, err := experiments.Fig6(experiments.FigOptions{System: 0, Replications: reps})
	if err != nil {
		return err
	}
	figDensity(pts)
	return nil
}

func fig7() error {
	res, err := experiments.Fig7(experiments.FigOptions{System: 0})
	if err != nil {
		return err
	}
	fmt.Println("t,transient,steady_state")
	for i := range res.Times {
		fmt.Printf("%g,%g,%g\n", res.Times[i], res.Transient[i], res.SteadyState)
	}
	return nil
}

func ablations() error {
	tmp, err := os.MkdirTemp("", "hydra-ablation")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	var all []experiments.AblationRow
	if rows, err := experiments.AblationIterativeVsDirect(0, 0, 0, 0); err != nil {
		return err
	} else {
		all = append(all, rows...)
	}
	if rows, err := experiments.AblationEulerVsLaguerre(0); err != nil {
		return err
	} else {
		all = append(all, rows...)
	}
	if rows, err := experiments.AblationInterning(0, 0, 0, 0); err != nil {
		return err
	} else {
		all = append(all, rows...)
	}
	if rows, err := experiments.AblationCheckpoint(tmp); err != nil {
		return err
	} else {
		all = append(all, rows...)
	}
	fmt.Println("study,variant,seconds,detail")
	for _, r := range all {
		fmt.Printf("%s,%s,%.4f,%s\n", r.Name, r.Variant, r.Seconds, strings.ReplaceAll(r.Detail, ",", ";"))
	}
	return nil
}
