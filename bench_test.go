// Go benchmarks over the paper's tables and figures, design-choice
// studies and layer microbenchmarks. They are smoke-sized timings for
// `go test -bench`; the bounded, recorded workloads live in benchmark/.
//
//	BenchmarkTable1StateSpace      Table 1 — reachability/state-space generation
//	BenchmarkTable2Pipeline        Table 2 — distributed pipeline at several widths
//	BenchmarkFig4PassageDensity    Fig. 4 — voter-throughput passage density
//	BenchmarkFig5CDF               Fig. 5 — cumulative passage distribution
//	BenchmarkFig6FailureMode       Fig. 6 — failure-mode passage density
//	BenchmarkFig7Transient         Fig. 7 — transient state distribution
//	BenchmarkIterativeVsDirect     Eq. (10) iteration vs Gauss–Seidel
//	BenchmarkEulerVsLaguerre       the two inverters on one density curve
//	BenchmarkInterning             kernel fill from interned LSTs vs per term
//	BenchmarkCheckpoint            pipeline run with and without a checkpoint
package hydra_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hydra"
	"hydra/internal/dist"
	"hydra/internal/lt"
	"hydra/internal/partition"
	"hydra/internal/passage"
	"hydra/internal/petri"
	"hydra/internal/pipeline"
	"hydra/internal/smp"
	"hydra/internal/voting"
)

// lazyModel memoises expensive model builds across benchmarks.
type lazyModel struct {
	once sync.Once
	m    *hydra.Model
	err  error
}

func (l *lazyModel) get(b *testing.B, build func() (*hydra.Model, error)) *hydra.Model {
	l.once.Do(func() { l.m, l.err = build() })
	if l.err != nil {
		b.Fatal(l.err)
	}
	return l.m
}

var (
	system0  lazyModel
	table2M  lazyModel
	midSizeM lazyModel
)

func sys0(b *testing.B) *hydra.Model {
	return system0.get(b, func() (*hydra.Model, error) { return hydra.VotingSystem(0) })
}

// BenchmarkTable1StateSpace regenerates the Table 1 state counts
// (systems 0–2; run cmd/hydra-bench -exp table1 -full for 3–5).
func BenchmarkTable1StateSpace(b *testing.B) {
	for _, row := range voting.Table1[:3] {
		b.Run(fmt.Sprintf("system%d", row.System), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n, err := voting.CountStates(row.Config, voting.ReferenceVariant, 3_000_000)
				if err != nil {
					b.Fatal(err)
				}
				if n != row.States {
					b.Fatalf("states = %d, paper %d", n, row.States)
				}
			}
			b.ReportMetric(float64(row.States), "states")
		})
	}
}

// BenchmarkTable2Pipeline runs the scalability workload (a 5-t-point
// passage density, 165 s-point evaluations) through the in-process
// pipeline at increasing worker counts — the measured half of Table 2.
func BenchmarkTable2Pipeline(b *testing.B) {
	m := table2M.get(b, func() (*hydra.Model, error) { return hydra.VotingConfig(30, 10, 3) })
	p2 := m.PlaceIndex("p2")
	targets := m.States(func(mk hydra.Marking) bool { return mk[p2] >= 30 })
	job, err := m.NewPassageJob("table2-bench", []int{0}, targets,
		[]float64{15, 30, 45, 60, 75}, false, nil)
	if err != nil {
		b.Fatal(err)
	}
	model := m.SMP()
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := pipeline.Run(job.Spec(), func() pipeline.Evaluator {
					return pipeline.NewSolverEvaluator(model, passage.Options{})
				}, workers, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(job.Points)), "s-points")
		})
	}
}

// BenchmarkFig4PassageDensity computes the voter-throughput density of
// system 0 at five t-points spanning the distribution.
func BenchmarkFig4PassageDensity(b *testing.B) {
	m := sys0(b)
	p2 := m.PlaceIndex("p2")
	targets := m.States(func(mk hydra.Marking) bool { return mk[p2] >= 18 })
	ts := []float64{15, 22, 30, 45, 60}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.PassageDensity([]int{0}, targets, ts, &hydra.Options{Workers: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5CDF computes the cumulative distribution of the same
// passage (the L(s)/s inversion of Fig. 5).
func BenchmarkFig5CDF(b *testing.B) {
	m := sys0(b)
	p2 := m.PlaceIndex("p2")
	targets := m.States(func(mk hydra.Marking) bool { return mk[p2] >= 18 })
	ts := []float64{15, 22, 30, 45, 60}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.PassageCDF([]int{0}, targets, ts, &hydra.Options{Workers: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6FailureMode computes the failure-mode passage density of
// system 0 over the low-probability head the paper plots.
func BenchmarkFig6FailureMode(b *testing.B) {
	m := sys0(b)
	p6, p7 := m.PlaceIndex("p6"), m.PlaceIndex("p7")
	targets := m.States(func(mk hydra.Marking) bool { return mk[p7] >= 6 || mk[p6] >= 3 })
	ts := []float64{10, 25, 40, 60, 90}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.PassageDensity([]int{0}, targets, ts, &hydra.Options{Workers: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7Transient computes one transient point of the Fig. 7
// curve (each t-point needs |targets| passage columns; system 0 has 111
// target states for p2 = 5).
func BenchmarkFig7Transient(b *testing.B) {
	m := sys0(b)
	p2 := m.PlaceIndex("p2")
	targets := m.States(func(mk hydra.Marking) bool { return mk[p2] == 5 })
	ts := []float64{10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.TransientDistribution([]int{0}, targets, ts, &hydra.Options{Workers: 2}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(targets)), "target-states")
}

// midSize is a mid-size voting system shared by the design studies.
func midSize(b *testing.B) *hydra.Model {
	return midSizeM.get(b, func() (*hydra.Model, error) { return hydra.VotingConfig(18, 6, 3) })
}

// BenchmarkIterativeVsDirect times one s-point solved by the
// Eq. (10) iteration and by the Gauss–Seidel form of Eq. (3) — the
// comparison of §3.
func BenchmarkIterativeVsDirect(b *testing.B) {
	m := midSize(b)
	p6, p7 := m.PlaceIndex("p6"), m.PlaceIndex("p7")
	targets := m.States(func(mk hydra.Marking) bool { return mk[p7] >= 6 || mk[p6] >= 3 })
	sv := passage.NewSolver(m.SMP(), passage.Options{})
	s := complex(0.1, 0.8)
	src := passage.SingleSource(0)

	b.Run("iterative", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v, _, err := sv.VectorLST(s, targets)
			if err != nil {
				b.Fatal(err)
			}
			_ = src.Dot(v)
			s += 1e-9 // new point defeats the solver's kernel memo
		}
	})
	b.Run("gauss-seidel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v, err := sv.DirectVectorLST(s, targets)
			if err != nil {
				b.Fatal(err)
			}
			_ = src.Dot(v)
			s += 1e-9
		}
	})
}

// BenchmarkEulerVsLaguerre compares the end-to-end cost of the
// two inverters on the same 10-t-point density: Euler needs 33 s-points
// per t-point, Laguerre a flat 400.
func BenchmarkEulerVsLaguerre(b *testing.B) {
	m := sys0(b)
	p2 := m.PlaceIndex("p2")
	targets := m.States(func(mk hydra.Marking) bool { return mk[p2] >= 18 })
	ts := make([]float64, 10)
	for i := range ts {
		ts[i] = 10 + 6*float64(i)
	}
	for _, method := range []string{"euler", "laguerre"} {
		b.Run(method, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := m.PassageDensity([]int{0}, targets, ts, &hydra.Options{Workers: 2, Method: method}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInterning measures kernel assembly with the interned
// distribution table against naive per-term transform evaluation.
func BenchmarkInterning(b *testing.B) {
	m := table2M.get(b, func() (*hydra.Model, error) { return hydra.VotingConfig(30, 10, 3) })
	model := m.SMP()
	u := model.NewKernelMatrix()
	s := complex(0.3, 1.7)
	b.Run("interned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			model.FillKernel(s, u)
			s += 0.0001i
		}
	})
	b.Run("naive", func(b *testing.B) {
		var sink complex128
		for i := 0; i < b.N; i++ {
			for st := 0; st < model.N(); st++ {
				model.Terms(st, func(t smp.Term) {
					sink += complex(t.Prob, 0) * t.Dist.LST(s)
				})
			}
			s += 0.0001i
		}
		if sink == 42 {
			b.Fatal("unreachable")
		}
	})
	b.ReportMetric(float64(model.NumDistributions()), "distinct-dists")
}

// BenchmarkCheckpoint measures the write-path overhead of
// checkpointing a pipeline run.
func BenchmarkCheckpoint(b *testing.B) {
	m := sys0(b)
	p2 := m.PlaceIndex("p2")
	targets := m.States(func(mk hydra.Marking) bool { return mk[p2] >= 18 })
	job, err := m.NewPassageJob("checkpoint-bench", []int{0}, targets, []float64{20, 30}, false, nil)
	if err != nil {
		b.Fatal(err)
	}
	model := m.SMP()
	newEval := func() pipeline.Evaluator {
		return pipeline.NewSolverEvaluator(model, passage.Options{})
	}
	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := pipeline.Run(job.Spec(), newEval, 2, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		dir := b.TempDir()
		for i := 0; i < b.N; i++ {
			ck, err := pipeline.OpenCheckpoint(fmt.Sprintf("%s/ck-%d.jsonl", dir, i))
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := pipeline.Run(job.Spec(), newEval, 2, ck); err != nil {
				b.Fatal(err)
			}
			ck.Close()
		}
	})
}

// BenchmarkKernelAssembly is the microbenchmark behind every s-point:
// filling U(s) over the fixed sparsity pattern.
func BenchmarkKernelAssembly(b *testing.B) {
	ss, err := voting.Build(voting.Config{CC: 60, MM: 25, NN: 4},
		voting.DefaultDurations(), petri.ExploreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	model := ss.Model
	u := model.NewKernelMatrix()
	s := complex(0.2, 3.0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.FillKernel(s, u)
	}
	b.ReportMetric(float64(model.KernelNNZ()), "nnz")
}

// BenchmarkSimulationWalks measures the validating simulator's raw
// throughput (passage walks per second).
func BenchmarkSimulationWalks(b *testing.B) {
	m := sys0(b)
	p2 := m.PlaceIndex("p2")
	targets := m.States(func(mk hydra.Marking) bool { return mk[p2] >= 18 })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.SimulatePassage([]int{0}, targets, &hydra.SimOptions{Replications: 100, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100, "walks/op")
}

// BenchmarkLaplaceInversion isolates the inverters on an analytic
// transform (no solver cost).
func BenchmarkLaplaceInversion(b *testing.B) {
	d := dist.NewErlang(2, 3)
	ts := []float64{0.5, 1, 1.5, 2, 2.5}
	for _, inv := range []lt.Inverter{lt.DefaultEuler(), lt.DefaultLaguerre()} {
		b.Run(inv.Name(), func(b *testing.B) {
			pts := inv.Points(ts)
			vals := make([]complex128, len(pts))
			for i, s := range pts {
				vals[i] = d.LST(s)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := inv.Invert(ts, vals); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPartitionCutQuality reports the communication volume of BFS
// versus random placement on the system-1 kernel — the quantity a
// hypergraph partitioner would minimise for a distributed-memory
// deployment.
func BenchmarkPartitionCutQuality(b *testing.B) {
	ss, err := voting.Build(voting.Config{CC: 30, MM: 10, NN: 3},
		voting.DefaultDurations(), petri.ExploreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	u := ss.Model.NewKernelMatrix()
	ss.Model.FillKernel(1, u)
	n := ss.Model.N()
	weights := make([]int, n)
	for i := range weights {
		weights[i] = u.RowNNZ(i) + 1
	}
	const parts = 8
	b.Run("bfs-contiguous", func(b *testing.B) {
		var cut int
		for i := 0; i < b.N; i++ {
			a := partition.AssignByOrder(partition.BFSOrder(u), weights, parts)
			cut = partition.CutEdges(u, a)
		}
		b.ReportMetric(float64(cut), "cut-edges")
	})
	b.Run("random", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		var cut int
		for i := 0; i < b.N; i++ {
			a := partition.AssignByOrder(r.Perm(n), weights, parts)
			cut = partition.CutEdges(u, a)
		}
		b.ReportMetric(float64(cut), "cut-edges")
	})
}
