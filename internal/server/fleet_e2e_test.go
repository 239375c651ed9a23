package server

import (
	"fmt"
	"math"
	"net"
	"net/http"
	"testing"
	"time"

	"hydra"
	"hydra/internal/pipeline"
)

// TestFleetServeEndToEnd boots hydra-serve in fleet mode with four
// in-process-spawned TCP workers and exercises the service's promises
// over the wire: correct curves and quantiles computed by the fleet,
// every point answered once and credited to a worker, a full cache hit
// (zero re-evaluated points) on repeated requests, and fleet visibility
// in /v1/stats.
func TestFleetServeEndToEnd(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Small batches so the job's 99 s-points spread across all workers.
	fleet := pipeline.NewFleet(ln, pipeline.FleetOptions{BatchSize: 2, WaitTimeout: time.Minute})
	defer fleet.Close()
	_, ts := newTestServer(t, Config{Backend: fleet, MaxConcurrent: 4})

	// Each worker holds its own copy of the explored model, exactly as
	// separate hydra-worker processes would (sharing one *Model here
	// only shares the immutable state space; every RunWorker builds its
	// own solver workspace).
	workerModel, err := hydra.LoadSpec(threeStateSpec)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	workerDone := make(chan error, workers)
	for i := 0; i < workers; i++ {
		go func(i int) {
			workerDone <- workerModel.RunWorker(ln.Addr().String(), fmt.Sprintf("fleet-w%d", i), nil)
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(fleet.Snapshot().Connected) < workers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d workers joined", len(fleet.Snapshot().Connected), workers)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The upload's content-hash ID must be the fingerprint the workers
	// advertise, or the fleet could never route this model's jobs.
	info := uploadSpec(t, ts.URL, "chain", threeStateSpec)
	if info.ID != workerModel.Fingerprint() {
		t.Fatalf("registry ID %s != worker fingerprint %s", info.ID, workerModel.Fingerprint())
	}

	curveURL := fmt.Sprintf("%s/v1/models/%s/passage", ts.URL, info.ID)
	curveReq := map[string]any{
		"sources": []int{0}, "targets": []int{2},
		"times": []float64{0.5, 1.0, 1.5},
	}
	var first JobRecord
	if code := doJSON(t, "POST", curveURL, curveReq, &first); code != http.StatusOK {
		t.Fatalf("first passage request returned %d (error %s)", code, first.Error)
	}
	for i, tt := range first.Result.Times {
		want := 10.0 / 3 * (math.Exp(-2*tt) - math.Exp(-5*tt))
		if math.Abs(first.Result.Values[i]-want) > 1e-6 {
			t.Errorf("fleet f(%v) = %v, want %v", tt, first.Result.Values[i], want)
		}
	}
	// The scheduler promises each of the 99 s-points is answered exactly
	// once and credited to the worker that answered it, with nothing
	// requeued while every worker stays up. It does not promise that every
	// worker gets a batch, so that is not asserted.
	st := first.Result.Stats
	if st.Evaluated != 99 || st.FromCache != 0 {
		t.Errorf("first request evaluated %d points (%d from cache), want all 99 once", st.Evaluated, st.FromCache)
	}
	credited := 0
	for _, n := range st.PerWorker {
		credited += n
	}
	if credited != st.Evaluated || len(st.PerWorker) > workers {
		t.Errorf("per_worker %v credits %d points, want Evaluated %d over at most %d workers", st.PerWorker, credited, st.Evaluated, workers)
	}
	if st.Requeued != 0 {
		t.Errorf("requeued %d points with no worker lost", st.Requeued)
	}

	// The repeat must be a pure cache hit: zero re-evaluated points.
	var second JobRecord
	if code := doJSON(t, "POST", curveURL, curveReq, &second); code != http.StatusOK {
		t.Fatalf("second passage request returned %d", code)
	}
	if second.Result.Stats.Evaluated != 0 || second.Result.Stats.FromCache == 0 {
		t.Errorf("repeat stats %+v, want zero re-evaluated points", second.Result.Stats)
	}
	if !second.CacheHit {
		t.Error("repeat request not marked cache_hit")
	}
	for i := range first.Result.Values {
		if first.Result.Values[i] != second.Result.Values[i] {
			t.Errorf("cached value %d differs: %v vs %v", i, first.Result.Values[i], second.Result.Values[i])
		}
	}

	// Quantiles run their whole bisection through the fleet. The median
	// of the two-hop passage solves 5e^{-2t} - 2e^{-5t} = 1.5 at
	// t ≈ 0.5637.
	quantileURL := fmt.Sprintf("%s/v1/models/%s/quantile", ts.URL, info.ID)
	quantileReq := map[string]any{
		"sources": []int{0}, "targets": []int{2},
		"p": 0.5, "hint": 0.25,
	}
	var q1 JobRecord
	if code := doJSON(t, "POST", quantileURL, quantileReq, &q1); code != http.StatusOK {
		t.Fatalf("quantile request returned %d (error %s)", code, q1.Error)
	}
	const wantMedian = 0.5637
	if math.Abs(q1.Result.Quantile-wantMedian) > 0.02*wantMedian {
		t.Errorf("fleet median = %v, want ≈ %v", q1.Result.Quantile, wantMedian)
	}
	var q2 JobRecord
	if code := doJSON(t, "POST", quantileURL, quantileReq, &q2); code != http.StatusOK {
		t.Fatalf("repeated quantile request returned %d", code)
	}
	if q2.Result.Stats.Evaluated != 0 {
		t.Errorf("repeated quantile re-evaluated %d points, want 0", q2.Result.Stats.Evaluated)
	}
	if q2.Result.Quantile != q1.Result.Quantile {
		t.Errorf("repeated quantile %v differs from %v", q2.Result.Quantile, q1.Result.Quantile)
	}

	// The fleet is visible in /v1/stats.
	var stats statsResponse
	doJSON(t, "GET", ts.URL+"/v1/stats", nil, &stats)
	if stats.Fleet == nil {
		t.Fatal("/v1/stats omits the fleet section in fleet mode")
	}
	if len(stats.Fleet.Connected) != workers {
		t.Errorf("/v1/stats reports %d connected workers, want %d", len(stats.Fleet.Connected), workers)
	}

	// Closing the fleet dismisses every worker cleanly.
	fleet.Close()
	for i := 0; i < workers; i++ {
		if err := <-workerDone; err != nil {
			t.Errorf("worker: %v", err)
		}
	}
}

// TestFleetServeShardedEndToEnd boots hydra-serve in fleet mode with
// Config.Shard set (the -shard N flag) and two workers, so every solve
// splits into row blocks across the workers instead of farming whole
// s-points. The client-visible promises must hold unchanged — correct
// curve, cache hit on repeat — with the shard telemetry surfacing in
// the job's stats JSON.
func TestFleetServeShardedEndToEnd(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fleet := pipeline.NewFleet(ln, pipeline.FleetOptions{WaitTimeout: time.Minute})
	defer fleet.Close()
	_, ts := newTestServer(t, Config{Backend: fleet, Shard: 2})

	workerModel, err := hydra.LoadSpec(threeStateSpec)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 2
	workerDone := make(chan error, workers)
	for i := 0; i < workers; i++ {
		go func(i int) {
			workerDone <- workerModel.RunWorker(ln.Addr().String(), fmt.Sprintf("shard-w%d", i), nil)
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(fleet.Snapshot().Connected) < workers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d workers joined", len(fleet.Snapshot().Connected), workers)
		}
		time.Sleep(2 * time.Millisecond)
	}

	info := uploadSpec(t, ts.URL, "chain", threeStateSpec)
	curveURL := fmt.Sprintf("%s/v1/models/%s/passage", ts.URL, info.ID)
	curveReq := map[string]any{
		"sources": []int{0}, "targets": []int{2},
		"times": []float64{0.5, 1.0, 1.5},
	}
	var first JobRecord
	if code := doJSON(t, "POST", curveURL, curveReq, &first); code != http.StatusOK {
		t.Fatalf("sharded passage request returned %d (error %s)", code, first.Error)
	}
	for i, tt := range first.Result.Times {
		want := 10.0 / 3 * (math.Exp(-2*tt) - math.Exp(-5*tt))
		if math.Abs(first.Result.Values[i]-want) > 1e-6 {
			t.Errorf("sharded f(%v) = %v, want %v", tt, first.Result.Values[i], want)
		}
	}
	st := first.Result.Stats
	if st.Evaluated == 0 {
		t.Fatal("sharded request evaluated nothing")
	}
	if st.Shards != workers {
		t.Errorf("stats shards = %d, want %d", st.Shards, workers)
	}
	if st.ShardSweeps == 0 || st.ShardExchanged == 0 {
		t.Errorf("shard telemetry missing from stats JSON: sweeps %d, exchanged %d",
			st.ShardSweeps, st.ShardExchanged)
	}
	if len(st.PerWorker) != workers {
		t.Errorf("per_worker %v, want both shard holders credited", st.PerWorker)
	}

	// The repeat must be a pure cache hit — sharding changes where the
	// vectors are computed, not how they are keyed.
	var second JobRecord
	if code := doJSON(t, "POST", curveURL, curveReq, &second); code != http.StatusOK {
		t.Fatalf("repeat returned %d", code)
	}
	if second.Result.Stats.Evaluated != 0 || !second.CacheHit {
		t.Errorf("repeat of a sharded solve not served from cache: %+v", second.Result.Stats)
	}

	fleet.Close()
	for i := 0; i < workers; i++ {
		if err := <-workerDone; err != nil {
			t.Errorf("worker: %v", err)
		}
	}
}

// TestFleetServeWorkerLossMidRequest drives the fault path through the
// full HTTP stack: a worker dies while a request is in flight, the
// fleet requeues its batches onto the survivor, and the client still
// gets the correct curve (with the requeue visible in the stats).
func TestFleetServeWorkerLossMidRequest(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fleet := pipeline.NewFleet(ln, pipeline.FleetOptions{BatchSize: 1, WaitTimeout: time.Minute})
	defer fleet.Close()
	_, ts := newTestServer(t, Config{Backend: fleet})

	workerModel, err := hydra.LoadSpec(threeStateSpec)
	if err != nil {
		t.Fatal(err)
	}
	// The doomed worker is a slowed evaluator behind a one-shot
	// connection we sever after its first result; the survivor is
	// ordinary. Slowing the doomed worker guarantees the survivor cannot
	// drain the queue before the kill lands.
	doomedConn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	doomedDone := make(chan struct{})
	go func() {
		defer close(doomedDone)
		runDoomedWorker(t, doomedConn, workerModel)
	}()
	survivorDone := make(chan error, 1)
	go func() {
		survivorDone <- workerModel.RunWorker(ln.Addr().String(), "survivor", nil)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for len(fleet.Snapshot().Connected) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("workers did not join")
		}
		time.Sleep(2 * time.Millisecond)
	}

	info := uploadSpec(t, ts.URL, "chain", threeStateSpec)
	var rec JobRecord
	code := doJSON(t, "POST", fmt.Sprintf("%s/v1/models/%s/passage", ts.URL, info.ID), map[string]any{
		"sources": []int{0}, "targets": []int{2}, "times": []float64{0.5, 1.0},
	}, &rec)
	if code != http.StatusOK || rec.Status != StatusDone {
		t.Fatalf("request with a dying worker returned %d: %+v", code, rec)
	}
	for i, tt := range rec.Result.Times {
		want := 10.0 / 3 * (math.Exp(-2*tt) - math.Exp(-5*tt))
		if math.Abs(rec.Result.Values[i]-want) > 1e-6 {
			t.Errorf("f(%v) = %v, want %v", tt, rec.Result.Values[i], want)
		}
	}
	if rec.Result.Stats.Requeued == 0 {
		t.Error("stats report no requeued points despite the killed worker")
	}
	<-doomedDone
	fleet.Close()
	if err := <-survivorDone; err != nil {
		t.Errorf("survivor: %v", err)
	}
}

// dyingEvaluator severs its own connection on the first assignment it
// receives, so the master deterministically observes a worker death
// with that batch in flight and must requeue it.
type dyingEvaluator struct {
	conn net.Conn
}

func (e *dyingEvaluator) EvaluateVector(complex128, *pipeline.SolveSpec) ([]complex128, error) {
	e.conn.Close() // the reply attempt after this fails: a mid-batch kill
	return nil, nil
}

// runDoomedWorker serves the fleet protocol over conn until the dying
// evaluator kills the connection.
func runDoomedWorker(t *testing.T, conn net.Conn, m *hydra.Model) {
	t.Helper()
	err := pipeline.FleetWorkConn(conn, []pipeline.WorkerModel{{
		Fingerprint: m.Fingerprint(), States: m.NumStates(), Evaluator: &dyingEvaluator{conn: conn},
	}}, pipeline.WorkerOptions{Name: "doomed"})
	if err == nil {
		t.Error("doomed worker exited cleanly; the kill never landed")
	}
}
