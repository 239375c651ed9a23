package pipeline

import (
	"errors"
	"math/cmplx"
	"net"
	"strings"
	"testing"
	"time"

	"hydra/internal/dist"
	"hydra/internal/passage"
	"hydra/internal/smp"
)

// shardTestModel builds a model big enough that splitting it into 2-4
// row blocks is non-degenerate: a 12-state ring (irreducible) with
// extra cross edges and mixed firing-time distributions, the same shape
// the passage package's differential harness randomises over.
func shardTestModel(t testing.TB) *smp.Model {
	t.Helper()
	const n = 12
	b := smp.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.Add(i, (i+1)%n, 0.6, dist.NewExponential(1+float64(i%3)))
		b.Add(i, (i+5)%n, 0.3, dist.NewErlang(2, 1+i%2))
		b.Add(i, (i+9)%n, 0.1, dist.NewUniform(0.1, 0.9))
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// shardContour builds a short synthetic contour segment (nearby
// s-points at fixed real part — the shape the Euler inverters emit).
func shardContour(k int) []complex128 {
	pts := make([]complex128, k)
	for i := range pts {
		pts[i] = complex(1.1, 0.4+0.17*float64(i))
	}
	return pts
}

// shardWorkerModel wires a worker model that can both evaluate whole
// points and host shard blocks, exactly as RunWorkerWith does in
// production: the shard constructor builds a block-local solver with
// the same options as the fleet's conductor.
func shardWorkerModel(m *smp.Model, fp string, opts passage.Options) WorkerModel {
	return WorkerModel{
		Fingerprint:     fp,
		States:          m.N(),
		Evaluator:       NewSolverEvaluator(m, opts),
		NewShardPlanned: plannedShard(m, opts, func(sv *passage.ShardSolver) passage.ShardMember { return sv }),
	}
}

// plannedShard is the production shard constructor (what RunWorkerWith
// wires) with a hook to wrap the block-local solver in a fault injector.
func plannedShard(m *smp.Model, opts passage.Options, wrap func(*passage.ShardSolver) passage.ShardMember) func(*SolveSpec, int, int) (passage.ShardMember, passage.ShardPlacement, error) {
	return func(spec *SolveSpec, parts, part int) (passage.ShardMember, passage.ShardPlacement, error) {
		sv, pl, err := passage.NewPlannedShardSolver(m, opts, parts, part, spec.Targets)
		if sv == nil || err != nil {
			return nil, pl, err // keep the interface nil for surplus parts
		}
		return wrap(sv), pl, nil
	}
}

// shardSpec builds a sharded density spec over the model.
func shardSpec(m *smp.Model, fp string, points []complex128, hint int) *SolveSpec {
	return &SolveSpec{
		Name:        "shard-e2e",
		Quantity:    PassageDensity,
		Targets:     []int{3, 8},
		Points:      points,
		ModelFP:     fp,
		ModelStates: m.N(),
		ShardHint:   hint,
	}
}

// TestFleetShardEquivalence is the end-to-end differential property
// over the real wire: one warm-started solve sharded across three worker
// processes (in-process TCP) must reproduce the in-process sharded solve
// of the same plan to within far under solver tolerance — the wire
// carries the identical arithmetic in the identical order, just
// distributed. (The monolithic warm route refines by Gauss–Seidel and
// matches the sharded Jacobi sweep only to solver tolerance; the passage
// package tests that.)
func TestFleetShardEquivalence(t *testing.T) {
	m := shardTestModel(t)
	const fp = "fp-shard-eq"
	// ShardOverlapRows 1 forces overlapped (early-frame) exchange despite
	// the tiny test model, so the two-frame wire path is covered with
	// inner == 1 too.
	opts := passage.Options{WarmStart: true, ShardOverlapRows: 1}
	points := shardContour(6)
	spec := shardSpec(m, fp, points, 3)

	want, _, err := passage.SolveShardedPlanned(m, opts, 3, spec.Targets, points, spec.SegmentHint,
		passage.ShardTuning{Overlap: true})
	if err != nil {
		t.Fatal(err)
	}

	fleet := testFleet(t, FleetOptions{Logf: t.Logf, ShardOptions: opts})
	addr := fleet.Addr().String()
	for _, name := range []string{"s1", "s2", "s3"} {
		go FleetWork(addr, []WorkerModel{shardWorkerModel(m, fp, opts)}, WorkerOptions{Name: name})
	}
	waitForWorkers(t, fleet, 3)

	values, stats, err := fleet.Execute(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range points {
		if len(values[i]) != m.N() {
			t.Fatalf("point %d: vector of %d values, want %d", i, len(values[i]), m.N())
		}
		for j := 0; j < m.N(); j++ {
			if d := cmplx.Abs(values[i][j] - want[i][j]); d > 1e-12 {
				t.Errorf("point %d state %d: fleet %v vs in-process sharded %v (diff %g)", i, j, values[i][j], want[i][j], d)
			}
		}
	}
	if stats.Shards != 3 {
		t.Errorf("stats.Shards = %d, want 3", stats.Shards)
	}
	if stats.Workers != 3 {
		t.Errorf("stats.Workers = %d, want 3 (members %v)", stats.Workers, stats.WorkerNames)
	}
	if stats.Evaluated != len(points) {
		t.Errorf("stats.Evaluated = %d, want %d", stats.Evaluated, len(points))
	}
	if stats.ShardSweeps == 0 || stats.ShardExchanged == 0 {
		t.Errorf("sharded run recorded no distributed work: sweeps %d, exchanged %d",
			stats.ShardSweeps, stats.ShardExchanged)
	}
	if stats.WarmStarted == 0 {
		t.Error("contiguous sharded contour walk never warm-started")
	}
	if stats.Resharded != 0 {
		t.Errorf("healthy run resharded %d times", stats.Resharded)
	}
}

// killingShard wraps a shard member and kills the worker's whole
// connection after a fixed number of sweeps — from the master's point
// of view the worker drops dead mid-solve, with sub-vector exchanges
// already in flight.
type killingShard struct {
	passage.ShardMember
	conn   net.Conn
	after  int
	sweeps int
}

func (k *killingShard) SweepN(halo []complex128, inner int, early func([]complex128)) ([]complex128, float64, error) {
	k.sweeps++
	if k.sweeps == k.after {
		k.conn.Close()
	}
	return k.ShardMember.SweepN(halo, inner, early)
}

// TestFleetShardFaultReshard kills a shard-holding worker between
// sweeps and requires the conductor to re-shard across the survivors
// and still converge to the monolithic answer — no hang, no silent
// wrong result. Warm starts are off so every solve is cold and the
// surviving partition provably reproduces the reference bit-for-bit
// regardless of where the kill landed.
func TestFleetShardFaultReshard(t *testing.T) {
	m := shardTestModel(t)
	const fp = "fp-shard-kill"
	opts := passage.Options{}
	points := shardContour(4)
	spec := shardSpec(m, fp, points, 3)

	mono := passage.NewSolver(m, opts)
	want := make([][]complex128, len(points))
	for i, s := range points {
		v, _, err := mono.VectorLST(s, spec.Targets)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}

	fleet := testFleet(t, FleetOptions{Logf: t.Logf, ShardOptions: opts})
	addr := fleet.Addr().String()
	for _, name := range []string{"live1", "live2"} {
		go FleetWork(addr, []WorkerModel{shardWorkerModel(m, fp, opts)}, WorkerOptions{Name: name})
	}
	// The doomed worker hosts shard blocks that kill its connection
	// after the third sweep of the first point they serve.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	doomed := WorkerModel{
		Fingerprint: fp,
		States:      m.N(),
		Evaluator:   NewSolverEvaluator(m, opts),
		NewShardPlanned: plannedShard(m, opts, func(sv *passage.ShardSolver) passage.ShardMember {
			return &killingShard{ShardMember: sv, conn: conn, after: 3}
		}),
	}
	go FleetWorkConn(conn, []WorkerModel{doomed}, WorkerOptions{Name: "doomed"})
	waitForWorkers(t, fleet, 3)

	values, stats, err := fleet.Execute(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range points {
		for j := 0; j < m.N(); j++ {
			if d := cmplx.Abs(values[i][j] - want[i][j]); d > 1e-12 {
				t.Errorf("point %d state %d: resharded %v vs mono %v (diff %g)", i, j, values[i][j], want[i][j], d)
			}
		}
	}
	if stats.Resharded < 1 {
		t.Errorf("stats.Resharded = %d, want >= 1 (the doomed worker kills its connection mid-sweep)", stats.Resharded)
	}
	if stats.Evaluated != len(points) {
		t.Errorf("stats.Evaluated = %d, want %d", stats.Evaluated, len(points))
	}
}

// TestFleetShardDeadConnAtRecruitRetries covers the other way a member
// dies: while idle, between runs. An idle connection waits for work
// without reading its socket, so the master only discovers the death
// when recruiting writes the shard start — that failure must spend a
// re-shard attempt and solve on the survivor, not surface EOF to the
// caller (seen live as an HTTP 500 on the first request after killing
// an idle worker).
func TestFleetShardDeadConnAtRecruitRetries(t *testing.T) {
	m := shardTestModel(t)
	const fp = "fp-shard-idledead"
	opts := passage.Options{}
	points := shardContour(3)
	spec := shardSpec(m, fp, points, 2)

	mono := passage.NewSolver(m, opts)
	want := make([][]complex128, len(points))
	for i, s := range points {
		v, _, err := mono.VectorLST(s, spec.Targets)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}

	fleet := testFleet(t, FleetOptions{Logf: t.Logf, ShardOptions: opts})
	addr := fleet.Addr().String()
	go FleetWork(addr, []WorkerModel{shardWorkerModel(m, fp, opts)}, WorkerOptions{Name: "survivor"})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	go FleetWorkConn(conn, []WorkerModel{shardWorkerModel(m, fp, opts)}, WorkerOptions{Name: "idledead"})
	waitForWorkers(t, fleet, 2)

	// Kill the worker while it idles: the master-side connection stays
	// in the pool, so recruiting will deterministically pick it up and
	// hit the closed socket.
	conn.Close()

	values, stats, err := fleet.Execute(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range points {
		for j := 0; j < m.N(); j++ {
			if d := cmplx.Abs(values[i][j] - want[i][j]); d > 1e-12 {
				t.Errorf("point %d state %d: got %v want %v (diff %g)", i, j, values[i][j], want[i][j], d)
			}
		}
	}
	if stats.Evaluated != len(points) {
		t.Errorf("stats.Evaluated = %d, want %d", stats.Evaluated, len(points))
	}
	if stats.Resharded < 1 {
		t.Errorf("stats.Resharded = %d, want >= 1 (recruit must have hit the dead connection)", stats.Resharded)
	}
}

// failingShard answers every point open with an evaluation error —
// the connection stays healthy, only the math refuses.
type failingShard struct {
	passage.ShardMember
}

func (f *failingShard) BeginPoint(s complex128, warm bool) ([]complex128, error) {
	return nil, errors.New("synthetic shard evaluation failure")
}

// TestFleetShardEvalErrorStructured pins the failure contract: an
// evaluation error inside a shard member surfaces as a structured
// *PointError naming the failing index — promptly, with no hang and no
// re-shard storm (an evaluation error is not a lost member).
func TestFleetShardEvalErrorStructured(t *testing.T) {
	m := shardTestModel(t)
	const fp = "fp-shard-err"
	opts := passage.Options{}
	spec := shardSpec(m, fp, shardContour(2), 2)

	fleet := testFleet(t, FleetOptions{Logf: t.Logf, ShardOptions: opts})
	addr := fleet.Addr().String()
	broken := WorkerModel{
		Fingerprint: fp,
		States:      m.N(),
		Evaluator:   NewSolverEvaluator(m, opts),
		NewShardPlanned: plannedShard(m, opts, func(sv *passage.ShardSolver) passage.ShardMember {
			return &failingShard{ShardMember: sv}
		}),
	}
	for _, name := range []string{"b1", "b2"} {
		go FleetWork(addr, []WorkerModel{broken}, WorkerOptions{Name: name})
	}
	waitForWorkers(t, fleet, 2)

	done := make(chan error, 1)
	go func() {
		_, _, err := fleet.Execute(spec, nil)
		done <- err
	}()
	select {
	case err := <-done:
		var pe *PointError
		if !errors.As(err, &pe) {
			t.Fatalf("sharded eval failure returned %v (%T), want *PointError", err, err)
		}
		if pe.Index != 0 {
			t.Errorf("PointError.Index = %d, want 0 (the first pending point)", pe.Index)
		}
		if !strings.Contains(pe.Msg, "synthetic shard evaluation failure") {
			t.Errorf("PointError.Msg %q does not carry the worker's reason", pe.Msg)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sharded solve hung on an evaluation error")
	}
}

// TestFleetShardNoCapableWorker covers fleets whose workers cannot
// shard (their models carry no shard constructor): such a worker serves
// unsharded batch jobs, but a sharded spec fails readably — naming what
// it needs — instead of hanging or silently degrading.
func TestFleetShardNoCapableWorker(t *testing.T) {
	m := shardTestModel(t)
	const fp = "fp-shard-batchonly"
	fleet := testFleet(t, FleetOptions{WaitTimeout: 300 * time.Millisecond, Logf: t.Logf})
	go FleetWork(fleet.Addr().String(), []WorkerModel{healthyWorkerModel(m, fp)}, WorkerOptions{Name: "batch-only"})
	waitForWorkers(t, fleet, 1)

	// Sharded spec: no shard-capable worker exists, so recruiting must
	// time out with a message naming the requirement.
	_, _, err := fleet.Execute(shardSpec(m, fp, shardContour(2), 2), nil)
	if err == nil {
		t.Fatal("sharded solve succeeded with only a batch-only worker connected")
	}
	for _, wantSub := range []string{"shard-capable", fp} {
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("no-capable-worker error %q missing %q", err, wantSub)
		}
	}

	// The same fleet still routes unsharded work to that worker.
	job := fleetJob(m, fp, []float64{0.4, 1.1})
	vecs, stats, err := fleet.Execute(job.Spec(), nil)
	if err != nil {
		t.Fatalf("unsharded solve through the batch-only worker: %v", err)
	}
	if stats.Evaluated != len(job.Points) {
		t.Errorf("batch-only worker evaluated %d points, want %d", stats.Evaluated, len(job.Points))
	}
	mono := passage.NewSolver(m, passage.Options{})
	for i, s := range job.Points {
		want, _, err := mono.VectorLST(s, job.Targets)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if d := cmplx.Abs(vecs[i][j] - want[j]); d > 1e-12 {
				t.Errorf("point %d state %d: batch %v vs mono %v", i, j, vecs[i][j], want[j])
			}
		}
	}
}

// TestFleetShardBatchedEquivalence is the batched end-to-end differential
// property: three workers under multi-sweep batching (each halo
// exchange authorizes up to 8 local sweeps) plus overlapped exchange
// must still reproduce the monolithic solver within 1e-12. The
// convergence gate only accepts lock-step exchanges, so stale-halo
// batching can never smuggle in an under-converged answer.
func TestFleetShardBatchedEquivalence(t *testing.T) {
	m := shardTestModel(t)
	const fp = "fp-shard-batched"
	// Epsilon well under the 1e-12 differential gate: batched points run
	// the fixed-point iteration, which agrees with the monolithic series
	// only to within the convergence tolerance, not bitwise.
	opts := passage.Options{WarmStart: true, ShardInnerSweeps: 8, Epsilon: 1e-13, ShardOverlapRows: 1}
	points := shardContour(6)
	spec := shardSpec(m, fp, points, 3)

	mono := passage.NewSolver(m, passage.Options{WarmStart: true, Epsilon: 1e-13})
	want := make([][]complex128, len(points))
	for i, s := range points {
		v, _, err := mono.VectorLST(s, spec.Targets)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}

	fleet := testFleet(t, FleetOptions{Logf: t.Logf, ShardOptions: opts})
	addr := fleet.Addr().String()
	for _, name := range []string{"b1", "b2", "b3"} {
		go FleetWork(addr, []WorkerModel{shardWorkerModel(m, fp, opts)}, WorkerOptions{Name: name})
	}
	waitForWorkers(t, fleet, 3)

	values, stats, err := fleet.Execute(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range points {
		for j := 0; j < m.N(); j++ {
			if d := cmplx.Abs(values[i][j] - want[i][j]); d > 1e-12 {
				t.Errorf("point %d state %d: batched %v vs mono %v (diff %g)", i, j, values[i][j], want[i][j], d)
			}
		}
	}
	if stats.Shards != 3 {
		t.Errorf("stats.Shards = %d, want 3", stats.Shards)
	}
	if stats.Resharded != 0 {
		t.Errorf("healthy batched run resharded %d times", stats.Resharded)
	}
	if stats.ShardBoundary == 0 {
		t.Error("sharded run reported no boundary vertices — the exchange-tax telemetry is dark")
	}
	if stats.ShardExchanged == 0 || stats.ShardSweeps == 0 {
		t.Errorf("batched run recorded no distributed work: sweeps %d, exchanged %d",
			stats.ShardSweeps, stats.ShardExchanged)
	}
}

// TestFleetShardBatchedFaultReshard kills a worker in the middle
// of a multi-sweep batch with overlapped exchange active. The conductor
// must detect the loss (a torn early frame or a dead closing frame),
// re-shard over the survivors, restart the in-flight point cold, and
// still converge to the monolithic answer.
func TestFleetShardBatchedFaultReshard(t *testing.T) {
	m := shardTestModel(t)
	const fp = "fp-shard-batchkill"
	opts := passage.Options{ShardInnerSweeps: 8, Epsilon: 1e-13, ShardOverlapRows: 1}
	points := shardContour(4)
	spec := shardSpec(m, fp, points, 3)

	mono := passage.NewSolver(m, passage.Options{Epsilon: 1e-13})
	want := make([][]complex128, len(points))
	for i, s := range points {
		v, _, err := mono.VectorLST(s, spec.Targets)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}

	fleet := testFleet(t, FleetOptions{Logf: t.Logf, ShardOptions: opts})
	addr := fleet.Addr().String()
	for _, name := range []string{"bk1", "bk2"} {
		go FleetWork(addr, []WorkerModel{shardWorkerModel(m, fp, opts)}, WorkerOptions{Name: name})
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	doomed := WorkerModel{
		Fingerprint: fp,
		States:      m.N(),
		Evaluator:   NewSolverEvaluator(m, opts),
		NewShardPlanned: plannedShard(m, opts, func(sv *passage.ShardSolver) passage.ShardMember {
			return &killingShard{ShardMember: sv, conn: conn, after: 2}
		}),
	}
	go FleetWorkConn(conn, []WorkerModel{doomed}, WorkerOptions{Name: "doomed-batch"})
	waitForWorkers(t, fleet, 3)

	values, stats, err := fleet.Execute(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range points {
		for j := 0; j < m.N(); j++ {
			if d := cmplx.Abs(values[i][j] - want[i][j]); d > 1e-12 {
				t.Errorf("point %d state %d: resharded %v vs mono %v (diff %g)", i, j, values[i][j], want[i][j], d)
			}
		}
	}
	if stats.Resharded < 1 {
		t.Errorf("stats.Resharded = %d, want >= 1 (the doomed worker dies mid-batched-sweep)", stats.Resharded)
	}
	if stats.Evaluated != len(points) {
		t.Errorf("stats.Evaluated = %d, want %d", stats.Evaluated, len(points))
	}
}

// TestFleetShardSurplusMembersReleased recruits more workers than the
// model has useful blocks for (ShardHint beyond what ShardBlocks will
// split a tiny model into) and checks the solve still completes with
// the surplus members released back to batch duty.
func TestFleetShardSurplusMembersReleased(t *testing.T) {
	m := testModel(t) // 3 states: at most 2 blocks once the target row is pinned
	const fp = "fp-shard-surplus"
	opts := passage.Options{}
	spec := &SolveSpec{
		Name:        "shard-surplus",
		Quantity:    PassageDensity,
		Targets:     []int{2},
		Points:      shardContour(2),
		ModelFP:     fp,
		ModelStates: m.N(),
		ShardHint:   4,
	}
	fleet := testFleet(t, FleetOptions{Logf: t.Logf, ShardOptions: opts})
	addr := fleet.Addr().String()
	for _, name := range []string{"t1", "t2", "t3", "t4"} {
		go FleetWork(addr, []WorkerModel{shardWorkerModel(m, fp, opts)}, WorkerOptions{Name: name})
	}
	waitForWorkers(t, fleet, 4)

	values, stats, err := fleet.Execute(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	mono := passage.NewSolver(m, opts)
	for i, s := range spec.Points {
		want, _, err := mono.VectorLST(s, spec.Targets)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if d := cmplx.Abs(values[i][j] - want[j]); d > 1e-12 {
				t.Errorf("point %d state %d: %v vs %v", i, j, values[i][j], want[j])
			}
		}
	}
	if stats.Shards < 1 || stats.Shards > m.N() {
		t.Errorf("stats.Shards = %d for a %d-state model", stats.Shards, m.N())
	}
}

// TestShardOverlapGate pins the adaptive overlap decision: early-frame
// exchange doubles the per-round message count, so it only engages on
// blocks big enough to hide the relay behind interior compute, with 0
// meaning the default threshold and negative values disabling it.
func TestShardOverlapGate(t *testing.T) {
	cases := []struct {
		minRows, rowsPer int
		want             bool
	}{
		{0, passage.DefaultShardOverlapRows - 1, false},
		{0, passage.DefaultShardOverlapRows, true},
		{1, 1, true},
		{500, 499, false},
		{500, 500, true},
		{-1, 1 << 30, false},
	}
	for _, c := range cases {
		if got := shardOverlap(c.minRows, c.rowsPer); got != c.want {
			t.Errorf("shardOverlap(%d, %d) = %v, want %v", c.minRows, c.rowsPer, got, c.want)
		}
	}
}
