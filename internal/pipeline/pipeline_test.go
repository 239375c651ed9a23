package pipeline

import (
	"fmt"
	"math"
	"math/cmplx"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hydra/internal/dist"
	"hydra/internal/lt"
	"hydra/internal/passage"
	"hydra/internal/smp"
)

func testModel(t *testing.T) *smp.Model {
	t.Helper()
	b := smp.NewBuilder(3)
	b.Add(0, 1, 1, dist.NewExponential(2))
	b.Add(1, 2, 1, dist.NewExponential(5))
	b.Add(2, 0, 1, dist.NewExponential(1))
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func densityJob(m *smp.Model, ts []float64) *Job {
	inv := lt.DefaultEuler()
	return &Job{
		SolveSpec: SolveSpec{
			Name:     "test-hypo",
			Quantity: PassageDensity,
			Targets:  []int{2},
			Points:   inv.Points(ts),
		},
		Sources: []int{0},
		Weights: []float64{1},
	}
}

func TestRunMatchesClosedFormEndToEnd(t *testing.T) {
	m := testModel(t)
	ts := []float64{0.2, 0.5, 1, 2}
	job := densityJob(m, ts)
	if err := job.Validate(m.N()); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	answered := make(map[complex128]int, len(job.Points))
	vecs, stats, err := Run(job.Spec(), func() Evaluator {
		return countingEvaluator{NewSolverEvaluator(m, passage.Options{}), &mu, answered}
	}, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Evaluated != len(job.Points) {
		t.Errorf("evaluated %d, want %d", stats.Evaluated, len(job.Points))
	}
	f, err := lt.DefaultEuler().Invert(ts, job.ReadVectors(vecs))
	if err != nil {
		t.Fatal(err)
	}
	for i, tt := range ts {
		want := 10.0 / 3 * (math.Exp(-2*tt) - math.Exp(-5*tt))
		if math.Abs(f[i]-want) > 1e-6 {
			t.Errorf("f(%v) = %v, want %v", tt, f[i], want)
		}
	}
	// Work distribution: the queue promises each point is answered by
	// exactly one worker and every evaluation is credited to one — not
	// that every worker gets work, which depends on scheduling.
	for _, s := range job.Points {
		if answered[s] != 1 {
			t.Errorf("s-point %v answered %d times, want 1", s, answered[s])
		}
	}
	var credited int
	for _, n := range stats.PerWorker {
		credited += n
	}
	if credited != stats.Evaluated {
		t.Errorf("per-worker tallies %v sum to %d, want Evaluated %d", stats.PerWorker, credited, stats.Evaluated)
	}
	if stats.Requeued != 0 {
		t.Errorf("requeued %d points in an in-process run", stats.Requeued)
	}
}

// countingEvaluator tallies every s-point it answers into a shared map.
type countingEvaluator struct {
	Evaluator
	mu       *sync.Mutex
	answered map[complex128]int
}

func (c countingEvaluator) EvaluateVector(s complex128, spec *SolveSpec) ([]complex128, error) {
	c.mu.Lock()
	c.answered[s]++
	c.mu.Unlock()
	return c.Evaluator.EvaluateVector(s, spec)
}

func TestCheckpointRestartComputesNothing(t *testing.T) {
	m := testModel(t)
	job := densityJob(m, []float64{0.5, 1.5})
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")

	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	vals1, stats1, err := Run(job.Spec(), func() Evaluator {
		return NewSolverEvaluator(m, passage.Options{})
	}, 2, ck)
	if err != nil {
		t.Fatal(err)
	}
	if stats1.FromCache != 0 || stats1.Evaluated != len(job.Points) {
		t.Fatalf("first run: %+v", stats1)
	}
	ck.Close()

	ck2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	vals2, stats2, err := Run(job.Spec(), func() Evaluator {
		return NewSolverEvaluator(m, passage.Options{})
	}, 2, ck2)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Evaluated != 0 || stats2.FromCache != len(job.Points) {
		t.Fatalf("restart run recomputed: %+v", stats2)
	}
	for i := range vals1 {
		if len(vals1[i]) != len(vals2[i]) {
			t.Fatalf("vector %d changed length across restart", i)
		}
		for k := range vals1[i] {
			if vals1[i][k] != vals2[i][k] {
				t.Fatalf("vector %d changed across restart", i)
			}
		}
	}
}

func TestCheckpointPartialResume(t *testing.T) {
	m := testModel(t)
	job := densityJob(m, []float64{0.5})
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-seed a third of the points as if a previous run was killed.
	eval := NewSolverEvaluator(m, passage.Options{})
	seeded := 0
	for idx := 0; idx < len(job.Points); idx += 3 {
		v, err := eval.EvaluateVector(job.Points[idx], job.Spec())
		if err != nil {
			t.Fatal(err)
		}
		if err := ck.Append(job.Spec(), idx, v); err != nil {
			t.Fatal(err)
		}
		seeded++
	}
	_, stats, err := Run(job.Spec(), func() Evaluator {
		return NewSolverEvaluator(m, passage.Options{})
	}, 2, ck)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FromCache != seeded {
		t.Errorf("FromCache = %d, want %d", stats.FromCache, seeded)
	}
	if stats.Evaluated != len(job.Points)-seeded {
		t.Errorf("Evaluated = %d, want %d", stats.Evaluated, len(job.Points)-seeded)
	}
	ck.Close()
}

func TestCheckpointIgnoresOtherJobs(t *testing.T) {
	m := testModel(t)
	jobA := densityJob(m, []float64{0.5})
	jobB := densityJob(m, []float64{0.5})
	jobB.Targets = []int{1} // different measure → different fingerprint
	if jobA.Fingerprint() == jobB.Fingerprint() {
		t.Fatal("distinct jobs share a fingerprint")
	}
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	if err := ck.Append(jobA.Spec(), 0, []complex128{42, 7}); err != nil {
		t.Fatal(err)
	}
	got, err := ck.Load(jobB.Spec())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("job B loaded %d foreign records", len(got))
	}
	gotA, err := ck.Load(jobA.Spec())
	if err != nil {
		t.Fatal(err)
	}
	if len(gotA) != 1 || len(gotA[0]) != 2 || gotA[0][0] != 42 || gotA[0][1] != 7 {
		t.Errorf("job A records = %v", gotA)
	}
}

func TestCheckpointToleratesTornTail(t *testing.T) {
	m := testModel(t)
	job := densityJob(m, []float64{0.5})
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Append(job.Spec(), 3, []complex128{1 + 2i}); err != nil {
		t.Fatal(err)
	}
	ck.Close()
	// Simulate a crash mid-write.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"job":"abc","idx":`)
	f.Close()

	ck2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	got, err := ck2.Load(job.Spec())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[3]) != 1 || got[3][0] != 1+2i {
		t.Errorf("recovered records = %v", got)
	}
}

func TestJobValidate(t *testing.T) {
	m := testModel(t)
	job := densityJob(m, []float64{1})
	if err := job.Validate(m.N()); err != nil {
		t.Fatal(err)
	}
	bad := *job
	bad.Targets = nil
	if bad.Validate(m.N()) == nil {
		t.Error("empty targets accepted")
	}
	bad = *job
	bad.Sources = []int{5}
	bad.Weights = []float64{1}
	if bad.Validate(m.N()) == nil {
		t.Error("out-of-range source accepted")
	}
	bad = *job
	bad.Points = nil
	if bad.Validate(m.N()) == nil {
		t.Error("no points accepted")
	}
	// Every quantity's series needs Re s > 0 at every point.
	bad = *job
	bad.Points = append([]complex128{1 + 1i, -0.5 + 3i}, job.Points...)
	for _, q := range []Quantity{PassageDensity, PassageCDF, TransientDist} {
		bad.Quantity = q
		if err := bad.Validate(m.N()); err == nil || !strings.Contains(err.Error(), "s-point 1") {
			t.Errorf("%v spec with a Re s < 0 point: err = %v, want it to name s-point 1", q, err)
		}
	}
}

func TestQuantityEvaluatorsAgreeWithSolver(t *testing.T) {
	m := testModel(t)
	sv := passage.NewSolver(m, passage.Options{})
	eval := NewSolverEvaluator(m, passage.Options{})
	s := complex128(0.4 + 1.1i)
	src := passage.SingleSource(0)

	for _, q := range []Quantity{PassageDensity, PassageCDF, TransientDist} {
		job := &Job{SolveSpec: SolveSpec{Quantity: q, Targets: []int{2}}, Sources: []int{0}, Weights: []float64{1}}
		vec, err := eval.EvaluateVector(s, job.Spec())
		if err != nil {
			t.Fatalf("%v: %v", q, err)
		}
		got := job.ReadPoint(vec)
		var want complex128
		switch q {
		case PassageDensity, PassageCDF:
			var vec []complex128
			vec, err = sv.DirectVectorLST(s, []int{2})
			want = src.Dot(vec)
			if q == PassageCDF {
				want /= s
			}
		case TransientDist:
			var vec []complex128
			vec, err = sv.TransientVectorLST(s, []int{2})
			if err == nil {
				want = vec[src.States[0]]
			}
		}
		if err != nil {
			t.Fatalf("%v solver: %v", q, err)
		}
		if cmplx.Abs(got-want) > 1e-12 {
			t.Errorf("%v: evaluator %v vs solver %v", q, got, want)
		}
	}
}

// failingEvaluator errors on every point.
type failingEvaluator struct{}

func (failingEvaluator) EvaluateVector(complex128, *SolveSpec) ([]complex128, error) {
	return nil, fmt.Errorf("synthetic evaluator failure")
}

func TestRunPropagatesEvaluatorErrors(t *testing.T) {
	m := testModel(t)
	job := densityJob(m, []float64{0.5})
	_, _, err := Run(job.Spec(), func() Evaluator { return failingEvaluator{} }, 2, nil)
	if err == nil || !strings.Contains(err.Error(), "synthetic evaluator failure") {
		t.Errorf("err = %v, want evaluator failure", err)
	}
}

// TestRunStatsMerge pins the aggregation semantics quantile searches
// rely on: named tallies merge by worker name, a mix of named and
// anonymous tallies degrades to an index merge whose counts still sum
// to Evaluated, and a run with no per-worker data leaves the
// accumulator's names alone.
func TestRunStatsMerge(t *testing.T) {
	perWorkerSum := func(s *RunStats) int {
		n := 0
		for _, v := range s.PerWorker {
			n += v
		}
		return n
	}

	named := &RunStats{Evaluated: 5, WorkerNames: []string{"a", "b"}, PerWorker: []int{3, 2}, Workers: 2}
	named.Merge(&RunStats{Evaluated: 4, WorkerNames: []string{"b", "c"}, PerWorker: []int{1, 3}, Workers: 2})
	if want := []string{"a", "b", "c"}; !reflect.DeepEqual(named.WorkerNames, want) {
		t.Errorf("named merge workers %v, want %v", named.WorkerNames, want)
	}
	if want := []int{3, 3, 3}; !reflect.DeepEqual(named.PerWorker, want) {
		t.Errorf("named merge tallies %v, want %v", named.PerWorker, want)
	}
	if named.Evaluated != 9 || perWorkerSum(named) != 9 || named.Workers != 3 {
		t.Errorf("named merge: evaluated %d, tally sum %d, workers %d", named.Evaluated, perWorkerSum(named), named.Workers)
	}

	// Anonymous accumulator + named other: counts survive, names don't.
	mixed := &RunStats{Evaluated: 10, PerWorker: []int{10}, Workers: 1}
	mixed.Merge(&RunStats{Evaluated: 5, WorkerNames: []string{"w1"}, PerWorker: []int{5}, Workers: 1})
	if perWorkerSum(mixed) != mixed.Evaluated {
		t.Errorf("mixed merge tallies %v sum to %d, want Evaluated %d", mixed.PerWorker, perWorkerSum(mixed), mixed.Evaluated)
	}
	if len(mixed.WorkerNames) != 0 {
		t.Errorf("mixed merge kept names %v for anonymous tallies", mixed.WorkerNames)
	}

	// Named accumulator + anonymous other: same degradation.
	mixed2 := &RunStats{Evaluated: 5, WorkerNames: []string{"w1"}, PerWorker: []int{5}, Workers: 1}
	mixed2.Merge(&RunStats{Evaluated: 10, PerWorker: []int{10}, Workers: 1})
	if perWorkerSum(mixed2) != mixed2.Evaluated || len(mixed2.WorkerNames) != 0 {
		t.Errorf("mixed merge (named += anonymous): tallies %v, names %v", mixed2.PerWorker, mixed2.WorkerNames)
	}

	// A fully-cached run (no per-worker data) must not erase names.
	cachedInto := &RunStats{Evaluated: 5, WorkerNames: []string{"w1"}, PerWorker: []int{5}, Workers: 1}
	cachedInto.Merge(&RunStats{FromCache: 7})
	if want := []string{"w1"}; !reflect.DeepEqual(cachedInto.WorkerNames, want) || cachedInto.FromCache != 7 {
		t.Errorf("cached merge: names %v, from_cache %d", cachedInto.WorkerNames, cachedInto.FromCache)
	}
}
