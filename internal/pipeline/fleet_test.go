package pipeline

import (
	"encoding/gob"
	"errors"
	"fmt"
	"math/cmplx"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hydra/internal/leaktest"
	"hydra/internal/passage"
	"hydra/internal/smp"
)

// testFleet starts a fleet on loopback with small batches so work
// spreads across several assignments.
func testFleet(t *testing.T, opts FleetOptions) *Fleet {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := NewFleet(ln, opts)
	t.Cleanup(func() { f.Close() })
	return f
}

// fleetJob builds a density job tagged with a model fingerprint the
// fleet can route by.
func fleetJob(m *smp.Model, fp string, ts []float64) *Job {
	job := densityJob(m, ts)
	job.ModelFP = fp
	job.ModelStates = m.N()
	return job
}

func healthyWorkerModel(m *smp.Model, fp string) WorkerModel {
	return WorkerModel{
		Fingerprint: fp,
		States:      m.N(),
		Evaluator:   NewSolverEvaluator(m, passage.Options{}),
	}
}

// waitForWorkers blocks until n workers are connected (the fleet hands
// work to whoever is present, so tests that assert participation or
// inject faults first make sure their cast is on stage).
func waitForWorkers(t *testing.T, f *Fleet, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(f.Snapshot().Connected) < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d workers connected", len(f.Snapshot().Connected), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// rawWorker is a hand-driven fleet client for fault injection: the test
// controls exactly when it answers and when it drops dead.
type rawWorker struct {
	conn net.Conn
	kod  fleetCodec
	eval Evaluator
	spec *SolveSpec
}

func dialRaw(t *testing.T, addr, name string, ads []modelAd, eval Evaluator) *rawWorker {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	w := &rawWorker{conn: conn, kod: fleetCodec{enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}, eval: eval}
	if err := w.kod.enc.Encode(helloMsg{Version: ProtocolVersion, WorkerName: name, Models: ads}); err != nil {
		t.Fatalf("hello: %v", err)
	}
	var welcome welcomeMsg
	if err := w.kod.dec.Decode(&welcome); err != nil {
		t.Fatalf("welcome: %v", err)
	}
	if welcome.Reject != "" {
		t.Fatalf("handshake rejected: %s", welcome.Reject)
	}
	return w
}

// serveBatches answers up to maxPoints evaluated points, then invokes
// die. Returns how many points it answered.
func (w *rawWorker) serveBatches(maxPoints int, die func()) int {
	answered := 0
	for {
		msg, err := w.kod.recv()
		if err != nil {
			return answered
		}
		a, ok := msg.(assignBatchMsg)
		if !ok || a.Done {
			return answered
		}
		if a.Header != nil {
			w.spec = &SolveSpec{
				Name:     a.Header.Name,
				Quantity: a.Header.Quantity,
				Targets:  a.Header.Targets,
			}
		}
		if answered >= maxPoints {
			die() // batch received, never answered: in flight when we die
			return answered
		}
		res := resultFrameMsg{RunID: a.RunID, Last: true, Frames: make([]pointFrame, len(a.Indices))}
		for i, idx := range a.Indices {
			vec, err := w.eval.EvaluateVector(a.Points[i], w.spec)
			fr := pointFrame{Index: idx, Total: len(vec), Data: vec}
			if err != nil {
				fr = pointFrame{Index: idx, Err: err.Error()}
			}
			res.Frames[i] = fr
		}
		if err := w.kod.send(res); err != nil {
			return answered
		}
		answered += len(a.Indices)
	}
}

// TestFleetFaultInjection is the resilience contract of §4's
// architecture: a fleet job survives one worker being killed mid-batch
// and another disconnecting mid-run — the master requeues their
// in-flight assignments — and a healthy worker that joins mid-run
// finishes the job with values identical to a single-worker reference.
func TestFleetFaultInjection(t *testing.T) {
	m := testModel(t)
	ts := []float64{0.3, 0.8, 1.6}
	const fp = "fp-fault"
	job := fleetJob(m, fp, ts)
	noLeak := leaktest.Check(t)

	refVecs, _, err := Run(job.Spec(), func() Evaluator {
		return NewSolverEvaluator(m, passage.Options{})
	}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := job.ReadVectors(refVecs)

	fleet := testFleet(t, FleetOptions{BatchSize: 2, Logf: t.Logf})
	addr := fleet.Addr().String()
	ads := []modelAd{{Fingerprint: fp, States: m.N()}}

	// The killed worker answers 4 points, then drops the connection with
	// a batch in flight. The disconnecting worker answers 2 points, then
	// closes cleanly from its side mid-run. Both handshakes run on the
	// test goroutine (t.Fatal is only legal there); the spawned
	// goroutines just serve batches.
	killedWorker := dialRaw(t, addr, "killed", ads, NewSolverEvaluator(m, passage.Options{}))
	disconnectedWorker := dialRaw(t, addr, "disconnected", ads, NewSolverEvaluator(m, passage.Options{}))
	killed := make(chan int, 1)
	go func() {
		killed <- killedWorker.serveBatches(4, func() { killedWorker.conn.Close() })
	}()
	disconnected := make(chan int, 1)
	go func() {
		disconnected <- disconnectedWorker.serveBatches(2, func() {})
		disconnectedWorker.conn.Close()
	}()
	waitForWorkers(t, fleet, 2)

	type execResult struct {
		values [][]complex128
		stats  *RunStats
		err    error
	}
	execc := make(chan execResult, 1)
	go func() {
		values, stats, err := fleet.Execute(job.Spec(), nil)
		execc <- execResult{values, stats, err}
	}()

	// Both faulty workers must be gone before the healthy one joins, so
	// the healthy worker's arrival is a genuine mid-run join and the
	// faulty workers' lost batches can only complete through requeues.
	faultyPoints := <-killed + <-disconnected
	healthyDone := make(chan error, 1)
	go func() {
		healthyDone <- FleetWork(addr, []WorkerModel{healthyWorkerModel(m, fp)}, WorkerOptions{Name: "steady"})
	}()

	r := <-execc
	if r.err != nil {
		t.Fatalf("Execute: %v", r.err)
	}
	if faultyPoints >= len(job.Points) {
		t.Fatalf("faulty workers answered all %d points; the fault injection never engaged", len(job.Points))
	}
	if r.stats.Requeued == 0 {
		t.Error("master reported no requeued points despite two lost workers")
	}
	if r.stats.Evaluated != len(job.Points) {
		t.Errorf("evaluated %d points, want %d", r.stats.Evaluated, len(job.Points))
	}
	var steady bool
	for _, name := range r.stats.WorkerNames {
		if name == "steady" {
			steady = true
		}
	}
	if !steady {
		t.Errorf("healthy mid-run joiner absent from worker stats %v", r.stats.WorkerNames)
	}
	got := job.ReadVectors(r.values)
	for i := range got {
		if cmplx.Abs(got[i]-ref[i]) > 1e-12 {
			t.Fatalf("point %d: fleet %v vs reference %v", i, got[i], ref[i])
		}
	}
	fleet.Close()
	if err := <-healthyDone; err != nil {
		t.Errorf("healthy worker: %v", err)
	}
	noLeak()
}

// TestFleetServesManyModelsByFingerprint checks the registry scenario:
// one fleet, workers holding different models, and each job routed only
// to workers advertising its fingerprint.
func TestFleetServesManyModelsByFingerprint(t *testing.T) {
	m := testModel(t)
	fleet := testFleet(t, FleetOptions{BatchSize: 4})
	addr := fleet.Addr().String()

	done := make(chan error, 2)
	go func() {
		done <- FleetWork(addr, []WorkerModel{healthyWorkerModel(m, "fp-A")}, WorkerOptions{Name: "holds-A"})
	}()
	go func() {
		done <- FleetWork(addr, []WorkerModel{healthyWorkerModel(m, "fp-B")}, WorkerOptions{Name: "holds-B"})
	}()
	waitForWorkers(t, fleet, 2)

	jobA := fleetJob(m, "fp-A", []float64{0.5})
	jobB := fleetJob(m, "fp-B", []float64{0.9})
	valsA, statsA, err := fleet.Execute(jobA.Spec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	valsB, statsB, err := fleet.Execute(jobB.Spec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(statsA.WorkerNames) != 1 || statsA.WorkerNames[0] != "holds-A" {
		t.Errorf("model A evaluated by %v, want only holds-A", statsA.WorkerNames)
	}
	if len(statsB.WorkerNames) != 1 || statsB.WorkerNames[0] != "holds-B" {
		t.Errorf("model B evaluated by %v, want only holds-B", statsB.WorkerNames)
	}
	refVecs, _, err := Run(jobA.Spec(), func() Evaluator {
		return NewSolverEvaluator(m, passage.Options{})
	}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := jobA.ReadVectors(refVecs)
	gotA := jobA.ReadVectors(valsA)
	for i := range gotA {
		if cmplx.Abs(gotA[i]-ref[i]) > 1e-12 {
			t.Fatalf("point %d differs from reference", i)
		}
	}
	_ = valsB
	fleet.Close()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Errorf("worker: %v", err)
		}
	}
}

// TestFleetRejectsOtherVersions pins the master's half of the version
// contract: a hello announcing anything but ProtocolVersion — an absent
// field (0), the previous generation, a future one — is answered with a
// welcome whose Reject names both versions, and a worker reading that
// welcome fails with ErrHandshakeRejected.
func TestFleetRejectsOtherVersions(t *testing.T) {
	fleet := testFleet(t, FleetOptions{})
	for i, v := range []int{0, ProtocolVersion - 1, ProtocolVersion + 1} {
		conn, err := net.Dial("tcp", fleet.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		hello := helloMsg{Version: v, WorkerName: "stranger", Models: []modelAd{{Fingerprint: "x", States: 1}}}
		if err := gob.NewEncoder(conn).Encode(hello); err != nil {
			t.Fatal(err)
		}
		var welcome welcomeMsg
		if err := gob.NewDecoder(conn).Decode(&welcome); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{fmt.Sprintf("v%d", ProtocolVersion), fmt.Sprintf("v%d", v), "stranger"} {
			if !strings.Contains(welcome.Reject, want) {
				t.Errorf("v%d hello: reject reason %q missing %q", v, welcome.Reject, want)
			}
		}
		if got := fleet.Snapshot().Rejected; got != int64(i+1) {
			t.Errorf("fleet counted %d rejections after %d mismatched hellos", got, i+1)
		}
	}
}

// TestFleetWorkerRejectsOtherMasterVersion pins the worker's half: a
// master answering with a reject — or accepting under a different
// version — makes FleetWork fail with ErrHandshakeRejected, which
// reconnect loops treat as permanent.
func TestFleetWorkerRejectsOtherMasterVersion(t *testing.T) {
	m := testModel(t)
	for _, welcome := range []welcomeMsg{
		{Version: ProtocolVersion - 1},
		{Version: ProtocolVersion + 1, Reject: "master speaks wire protocol v6 but worker \"w\" announced v5"},
	} {
		master, worker := net.Pipe()
		go func() {
			defer master.Close()
			var hello helloMsg
			if err := gob.NewDecoder(master).Decode(&hello); err != nil {
				t.Errorf("fake master: hello: %v", err)
				return
			}
			if err := gob.NewEncoder(master).Encode(welcome); err != nil {
				t.Errorf("fake master: welcome: %v", err)
			}
		}()
		err := FleetWorkConn(worker, []WorkerModel{healthyWorkerModel(m, "fp")}, WorkerOptions{Name: "w"})
		if !errors.Is(err, ErrHandshakeRejected) {
			t.Fatalf("welcome %+v: worker returned %v, want ErrHandshakeRejected", welcome, err)
		}
		for _, want := range []string{fmt.Sprintf("v%d", welcome.Version), fmt.Sprintf("v%d", ProtocolVersion)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("welcome %+v: worker error %q does not name %s", welcome, err, want)
			}
		}
	}
}

// TestFleetCountsUndecodableHello covers connections that are not hydra
// workers at all (a port scanner, a truncated stream): the master counts
// and logs the drop, and keeps serving real workers.
func TestFleetCountsUndecodableHello(t *testing.T) {
	m := testModel(t)
	var logged atomic.Int64
	fleet := testFleet(t, FleetOptions{Logf: func(format string, args ...any) {
		if strings.Contains(format, "undecodable hello") {
			logged.Add(1)
		}
		t.Logf(format, args...)
	}})
	before := fleetRejected.Value()

	conn, err := net.Dial("tcp", fleet.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte(strings.Repeat("GET / HTTP/1.1\r\nHost: scanner\r\n\r\n", 16))); err != nil {
		t.Fatal(err)
	}
	// Half-close, so a decoder still waiting for the rest of a "message"
	// whose length it read out of the garbage sees the stream end.
	conn.(*net.TCPConn).CloseWrite()
	// The master hangs up on garbage without answering.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatalf("master answered a garbage hello with %d bytes", n)
	}
	conn.Close()
	if got := fleet.Snapshot().Rejected; got != 1 {
		t.Errorf("fleet counted %d rejections after a garbage hello, want 1", got)
	}
	if got := fleetRejected.Value() - before; got != 1 {
		t.Errorf("hydra_fleet_handshakes_rejected_total moved by %v, want 1", got)
	}
	if logged.Load() != 1 {
		t.Errorf("undecodable hello logged %d times, want 1", logged.Load())
	}

	done := make(chan error, 1)
	go func() {
		done <- FleetWork(fleet.Addr().String(), []WorkerModel{healthyWorkerModel(m, "fp")}, WorkerOptions{Name: "real"})
	}()
	waitForWorkers(t, fleet, 1)
	job := fleetJob(m, "fp", []float64{0.5})
	if _, stats, err := fleet.Execute(job.Spec(), nil); err != nil || stats.Evaluated != len(job.Points) {
		t.Errorf("fleet did not serve a real worker after the garbage hello: stats %+v, err %v", stats, err)
	}
	fleet.Close()
	if err := <-done; err != nil {
		t.Errorf("worker: %v", err)
	}
}

// TestFleetEvalErrorIsStructured checks that an evaluator failure
// aborts only the affected run — as a *PointError naming the worker and
// index — while the worker connection stays in the fleet.
func TestFleetEvalErrorIsStructured(t *testing.T) {
	m := testModel(t)
	const fp = "fp-err"
	fleet := testFleet(t, FleetOptions{BatchSize: 2})

	done := make(chan error, 1)
	go func() {
		done <- FleetWork(fleet.Addr().String(), []WorkerModel{{
			Fingerprint: fp, States: m.N(), Evaluator: failingEvaluator{},
		}}, WorkerOptions{Name: "brittle"})
	}()
	waitForWorkers(t, fleet, 1)

	job := fleetJob(m, fp, []float64{0.5})
	_, _, err := fleet.Execute(job.Spec(), nil)
	var pe *PointError
	if !errors.As(err, &pe) {
		t.Fatalf("Execute error %v is not a *PointError", err)
	}
	if pe.Worker != "brittle" {
		t.Errorf("PointError names worker %q, want brittle", pe.Worker)
	}
	if pe.Index < 0 || pe.Index >= len(job.Points) {
		t.Errorf("PointError index %d outside the job's %d points", pe.Index, len(job.Points))
	}
	if !strings.Contains(pe.Msg, "synthetic evaluator failure") {
		t.Errorf("PointError message %q lost the evaluator detail", pe.Msg)
	}
	// The worker survives its evaluation failure and is dismissed
	// cleanly when the fleet closes.
	if n := len(fleet.Snapshot().Connected); n != 1 {
		t.Errorf("%d workers connected after the failed run, want 1", n)
	}
	fleet.Close()
	if err := <-done; err != nil {
		t.Errorf("worker: %v", err)
	}
}

// leftPlaneProbe evaluates like a healthy solver but records any point
// it is handed outside Re s > 0.
type leftPlaneProbe struct {
	*SolverEvaluator
	reached atomic.Int32
}

func (p *leftPlaneProbe) EvaluateVector(s complex128, spec *SolveSpec) ([]complex128, error) {
	if !(real(s) > 0) {
		p.reached.Add(1)
	}
	return p.SolverEvaluator.EvaluateVector(s, spec)
}

// TestFleetWorkerRejectsLeftHalfPlanePoint checks the worker side of
// the half-plane guard: a spec that skipped SolveSpec.Validate (here
// handed to Fleet.Execute directly) still cannot put a solve at a point
// with Re s ≤ 0 — the worker answers that point with an error naming it
// and never evaluates it.
func TestFleetWorkerRejectsLeftHalfPlanePoint(t *testing.T) {
	m := testModel(t)
	const fp = "fp-halfplane"
	fleet := testFleet(t, FleetOptions{BatchSize: 4})
	probe := &leftPlaneProbe{SolverEvaluator: NewSolverEvaluator(m, passage.Options{})}
	done := make(chan error, 1)
	go func() {
		done <- FleetWork(fleet.Addr().String(), []WorkerModel{{
			Fingerprint: fp, States: m.N(), Evaluator: probe,
		}}, WorkerOptions{Name: "guarded"})
	}()
	waitForWorkers(t, fleet, 1)

	job := fleetJob(m, fp, []float64{0.5})
	job.Points[2] = complex(-0.5, 3)
	_, _, err := fleet.Execute(job.Spec(), nil)
	var pe *PointError
	if !errors.As(err, &pe) || pe.Index != 2 || !strings.Contains(pe.Msg, "Re s ≤ 0") {
		t.Fatalf("Execute error = %v, want a *PointError at index 2 naming Re s ≤ 0", err)
	}
	if n := probe.reached.Load(); n != 0 {
		t.Errorf("the evaluator was handed %d left half-plane points", n)
	}
	fleet.Close()
	if err := <-done; err != nil {
		t.Errorf("worker: %v", err)
	}
}

// TestFleetExecuteAfterCloseFails pins the terminal state.
func TestFleetExecuteAfterCloseFails(t *testing.T) {
	m := testModel(t)
	fleet := testFleet(t, FleetOptions{})
	fleet.Close()
	if _, _, err := fleet.Execute(fleetJob(m, "fp", []float64{0.5}).Spec(), nil); err == nil {
		t.Fatal("Execute succeeded on a closed fleet")
	}
}

// TestFleetWaitTimeout checks that a job for a model no worker holds
// fails with an actionable error once WaitTimeout passes, instead of
// hanging forever.
func TestFleetWaitTimeout(t *testing.T) {
	m := testModel(t)
	fleet := testFleet(t, FleetOptions{WaitTimeout: 200 * time.Millisecond})

	done := make(chan error, 1)
	go func() {
		done <- FleetWork(fleet.Addr().String(), []WorkerModel{healthyWorkerModel(m, "fp-other")}, WorkerOptions{Name: "bystander"})
	}()
	waitForWorkers(t, fleet, 1)

	_, _, err := fleet.Execute(fleetJob(m, "fp-wanted", []float64{0.5}).Spec(), nil)
	if err == nil || !strings.Contains(err.Error(), "fp-wanted") {
		t.Errorf("err = %v, want a no-capable-worker failure naming the model", err)
	}
	fleet.Close()
	<-done
}

// fleetBenchmarkEvaluator is a trivial evaluator for protocol-overhead
// measurements.
type fleetBenchmarkEvaluator struct{}

func (fleetBenchmarkEvaluator) EvaluateVector(s complex128, _ *SolveSpec) ([]complex128, error) {
	return []complex128{s * s}, nil
}

// BenchmarkFleetRoundTrip measures protocol overhead per point with a
// free evaluator: wire framing, batching and loopback latency only.
func BenchmarkFleetRoundTrip(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	fleet := NewFleet(ln, FleetOptions{BatchSize: 16})
	defer fleet.Close()
	done := make(chan error, 1)
	go func() {
		done <- FleetWork(ln.Addr().String(), []WorkerModel{{
			Fingerprint: "bench", States: 1, Evaluator: fleetBenchmarkEvaluator{},
		}}, WorkerOptions{Name: "bench"})
	}()
	for len(fleet.Snapshot().Connected) < 1 {
		time.Sleep(time.Millisecond)
	}
	points := make([]complex128, 256)
	for i := range points {
		points[i] = complex(float64(i), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := &SolveSpec{
			Name: fmt.Sprintf("bench-%d", i), Quantity: PassageDensity,
			Targets: []int{0},
			Points:  points, ModelFP: "bench", ModelStates: 1,
		}
		if _, _, err := fleet.Execute(spec, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fleet.Close()
	<-done
}

// TestFleetRequireModelRejectsMismatch pins the one-shot master
// behaviour: a fleet started for one specific model (Model.ServeMaster) rejects workers
// that do not hold it — readably and permanently — instead of letting
// them idle unrouted while the master waits forever.
func TestFleetRequireModelRejectsMismatch(t *testing.T) {
	m := testModel(t)
	fleet := testFleet(t, FleetOptions{RequireFingerprint: "fp-right", RequireStates: m.N()})

	err := FleetWork(fleet.Addr().String(), []WorkerModel{healthyWorkerModel(m, "fp-wrong")}, WorkerOptions{Name: "stranger"})
	if !errors.Is(err, ErrHandshakeRejected) {
		t.Fatalf("mismatched worker got %v, want ErrHandshakeRejected", err)
	}
	if !strings.Contains(err.Error(), "fp-right") {
		t.Errorf("reject %q does not name the required model", err)
	}

	done := make(chan error, 1)
	go func() {
		done <- FleetWork(fleet.Addr().String(), []WorkerModel{healthyWorkerModel(m, "fp-right")}, WorkerOptions{Name: "match"})
	}()
	waitForWorkers(t, fleet, 1)
	fleet.Close()
	if err := <-done; err != nil {
		t.Errorf("matching worker: %v", err)
	}
}
