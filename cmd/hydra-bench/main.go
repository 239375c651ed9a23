// Command hydra-bench reproduces the tables and figures of the paper's
// evaluation section (§5) and prints the same rows/series the paper
// reports. It measures nothing beyond them: the bounded performance
// workloads live in benchmark/ (see benchmark/README.md).
//
// Experiments:
//
//	table1   state-space sizes for voting systems 0-5 (exact match)
//	table2   distributed scalability: time/speedup/efficiency vs workers.
//	         The "projected" rows are an LPT schedule of measured
//	         per-point times on W hypothetical workers, not runs; only
//	         the "measured" rows ran at that width on this machine
//	fig4     voter passage density, analytic vs simulation
//	fig5     passage CDF and the 98.58% response-time quantile
//	fig6     failure-mode passage density, analytic vs simulation
//	fig7     transient state distribution vs steady state
//
// Usage:
//
//	hydra-bench -exp all            (defaults sized for a laptop)
//	hydra-bench -exp table1 -full   (adds the 1.14M-state systems)
//	hydra-bench -exp table2 -full   (uses the paper's system 1 workload)
package main

import (
	"flag"
	"fmt"
	"os"

	"hydra/internal/experiments"
)

func main() {
	var (
		exp  = flag.String("exp", "all", "experiment: table1|table2|fig4|fig5|fig6|fig7|all")
		full = flag.Bool("full", false, "paper-scale workloads (slower)")
		reps = flag.Int("reps", 0, "simulation replications override")
	)
	flag.Parse()

	exps := []struct {
		name string
		run  func() error
	}{
		{"table1", func() error { return table1(*full) }},
		{"table2", func() error { return table2(*full) }},
		{"fig4", func() error { return fig4(*full, *reps) }},
		{"fig5", func() error { return fig5(*full) }},
		{"fig6", func() error { return fig6(*reps) }},
		{"fig7", fig7},
	}
	known := *exp == "all"
	for _, e := range exps {
		known = known || e.name == *exp
	}
	if !known {
		fmt.Fprintf(os.Stderr, "hydra-bench: unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
	for _, e := range exps {
		if *exp != "all" && *exp != e.name {
			continue
		}
		fmt.Printf("== %s ==\n", e.name)
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "hydra-bench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
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

// table2 prints the scalability table; its header says which rows are
// projections.
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
	fmt.Println("# projected rows: LPT schedule of measured per-point times on W workers, not runs")
	fmt.Println("mode,workers,seconds,speedup,efficiency")
	for _, r := range rows {
		fmt.Printf("%s,%d,%.3f,%.2f,%.3f\n", r.Mode, r.Workers, r.Seconds, r.Speedup, r.Efficiency)
	}
	return nil
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
