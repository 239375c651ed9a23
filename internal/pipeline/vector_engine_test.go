package pipeline

import (
	"math/cmplx"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"hydra/internal/passage"
)

// TestCheckpointIgnoresScalarV1Records pins the record-format version
// bump: a checkpoint file written by the scalar engine (v1 records,
// {"job","idx","re","im"} with no "v" field) must replay NOTHING into a
// vector load — ignored, not misread as vectors — while v2 records in
// the same file load normally.
func TestCheckpointIgnoresScalarV1Records(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mixed.ckpt")
	spec := cacheSpec("mixed", 3)
	fp := spec.Fingerprint()

	// Hand-write v1-era scalar records under the SAME fingerprint (the
	// worst case: key spaces are disjoint in practice, but even a
	// colliding key must not be misread) plus one foreign v1 record.
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"job":"` + fp + `","idx":0,"re":1.5,"im":-2.5}` + "\n")
	f.WriteString(`{"job":"deadbeefdeadbeefdeadbeefdeadbeef","idx":1,"re":3,"im":4}` + "\n")
	f.Close()

	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	got, err := ck.Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("vector load replayed %d scalar-era records: %v", len(got), got)
	}

	// A v2 record appended to the same file loads fine alongside them.
	if err := ck.Append(spec, 2, []complex128{7 + 8i, 9}); err != nil {
		t.Fatal(err)
	}
	got, err = ck.Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[2]) != 2 || got[2][0] != 7+8i || got[2][1] != 9 {
		t.Fatalf("v2 record did not survive the mixed file: %v", got)
	}
}

// TestFleetChunkedVectorFrames forces the worker to split every vector
// across multiple frames (FrameValues 2 on a 3-state model) and checks
// the master reassembles them into values identical to the in-process
// engine. This is the payload contract end to end.
func TestFleetChunkedVectorFrames(t *testing.T) {
	m := testModel(t)
	const fp = "fp-chunk"
	job := fleetJob(m, fp, []float64{0.3, 0.8})

	refVecs, _, err := Run(job.Spec(), func() Evaluator {
		return NewSolverEvaluator(m, passage.Options{})
	}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}

	fleet := testFleet(t, FleetOptions{BatchSize: 3})
	done := make(chan error, 1)
	go func() {
		done <- FleetWork(fleet.Addr().String(), []WorkerModel{{
			Fingerprint: fp, States: m.N(),
			Evaluator: NewSolverEvaluator(m, passage.Options{}),
		}}, WorkerOptions{Name: "chunky", FrameValues: 2})
	}()
	waitForWorkers(t, fleet, 1)

	vecs, stats, err := fleet.Execute(job.Spec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Evaluated != len(job.Points) {
		t.Errorf("evaluated %d, want %d", stats.Evaluated, len(job.Points))
	}
	for i := range vecs {
		if len(vecs[i]) != m.N() {
			t.Fatalf("point %d: reassembled vector has %d states, want %d", i, len(vecs[i]), m.N())
		}
		for k := range vecs[i] {
			if cmplx.Abs(vecs[i][k]-refVecs[i][k]) > 1e-12 {
				t.Fatalf("point %d state %d: chunked %v vs inproc %v", i, k, vecs[i][k], refVecs[i][k])
			}
		}
	}
	fleet.Close()
	if err := <-done; err != nil {
		t.Errorf("worker: %v", err)
	}
}

// TestInProcReusesEvaluators pins the quantile-search optimisation: one
// InProc backend reuses its evaluator pool across Execute calls instead
// of rebuilding solver workspaces per solve.
func TestInProcReusesEvaluators(t *testing.T) {
	m := testModel(t)
	var built atomic.Int64
	b := &InProc{
		NewEvaluator: func() Evaluator {
			built.Add(1)
			return NewSolverEvaluator(m, passage.Options{})
		},
		Workers: 2,
	}
	job := densityJob(m, []float64{0.5})
	for i := 0; i < 5; i++ {
		if _, _, err := b.Execute(job.Spec(), nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := built.Load(); n > 2 {
		t.Errorf("InProc built %d evaluators across 5 solves with 2 workers; the pool is not reusing them", n)
	}
}

// TestInProcExecuteConcurrent exercises the evaluator pool under
// concurrent Execute calls (the resident-server pattern).
func TestInProcExecuteConcurrent(t *testing.T) {
	m := testModel(t)
	b := &InProc{
		NewEvaluator: func() Evaluator {
			return NewSolverEvaluator(m, passage.Options{})
		},
		Workers: 2,
	}
	job := densityJob(m, []float64{0.4, 0.9})
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			_, _, err := b.Execute(job.Spec(), nil)
			errs <- err
		}()
	}
	deadline := time.After(30 * time.Second)
	for g := 0; g < 8; g++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("concurrent Execute calls did not finish")
		}
	}
}
