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
// production.
func shardWorkerModel(m *smp.Model, fp string, opts passage.Options) WorkerModel {
	return WorkerModel{
		Fingerprint:     fp,
		States:          m.N(),
		Evaluator:       NewSolverEvaluator(m, opts),
		NewShardPlanned: plannedShard(m, func(sv *passage.ShardSolver) passage.ShardMember { return sv }),
	}
}

// plannedShard is the production shard constructor (what RunWorkerWith
// wires) with a hook to wrap the block-local solver in a fault injector.
func plannedShard(m *smp.Model, wrap func(*passage.ShardSolver) passage.ShardMember) func(*SolveSpec, int, int) (passage.ShardMember, passage.ShardPlacement, error) {
	return func(spec *SolveSpec, parts, part int) (passage.ShardMember, passage.ShardPlacement, error) {
		sv, pl, err := passage.NewPlannedShardSolver(m, parts, part, spec.Targets)
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
// over the real wire: one solve sharded across three worker processes
// (in-process TCP) must reproduce both the in-process sharded solve of
// the same plan and the monolithic cold series bitwise — the wire
// carries the identical arithmetic in the identical order, just
// distributed — and take exactly the monolithic number of sweeps.
func TestFleetShardEquivalence(t *testing.T) {
	m := shardTestModel(t)
	const fp = "fp-shard-eq"
	points := shardContour(6)
	spec := shardSpec(m, fp, points, 3)

	planned, _, err := passage.SolveShardedPlanned(m, passage.Options{}, 3, spec.Targets, points)
	if err != nil {
		t.Fatal(err)
	}
	mono := passage.NewSolver(m, passage.Options{})
	want := make([][]complex128, len(points))
	var monoSweeps int64
	for i, s := range points {
		if want[i], _, err = mono.VectorLST(s, spec.Targets); err != nil {
			t.Fatal(err)
		}
		monoSweeps += int64(mono.LastSweeps())
	}

	fleet := testFleet(t, FleetOptions{Logf: t.Logf})
	addr := fleet.Addr().String()
	for _, name := range []string{"s1", "s2", "s3"} {
		go FleetWork(addr, []WorkerModel{shardWorkerModel(m, fp, passage.Options{})}, WorkerOptions{Name: name})
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
			if values[i][j] != planned[i][j] {
				t.Errorf("point %d state %d: fleet %v vs in-process sharded %v", i, j, values[i][j], planned[i][j])
			}
			if values[i][j] != want[i][j] {
				t.Errorf("point %d state %d: fleet %v vs monolithic cold %v", i, j, values[i][j], want[i][j])
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
	if stats.ShardSweeps != monoSweeps {
		t.Errorf("stats.ShardSweeps = %d, want the monolithic series' %d", stats.ShardSweeps, monoSweeps)
	}
	if stats.ShardExchanged == 0 || stats.ShardBoundary == 0 {
		t.Errorf("sharded run recorded no exchange: exchanged %d, boundary %d",
			stats.ShardExchanged, stats.ShardBoundary)
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

func (k *killingShard) Sweep(halo []complex128) ([]complex128, float64, error) {
	k.sweeps++
	if k.sweeps == k.after {
		k.conn.Close()
	}
	return k.ShardMember.Sweep(halo)
}

// TestFleetShardFaultReshard kills a shard-holding worker between
// sweeps and requires the conductor to re-shard across the survivors
// and still converge to the monolithic answer — no hang, no silent
// wrong result. Every sharded solve is the cold series, so the
// surviving partition reproduces the reference bit-for-bit regardless
// of where the kill landed.
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

	fleet := testFleet(t, FleetOptions{Logf: t.Logf})
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
		NewShardPlanned: plannedShard(m, func(sv *passage.ShardSolver) passage.ShardMember {
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

	fleet := testFleet(t, FleetOptions{Logf: t.Logf})
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

func (f *failingShard) BeginPoint(s complex128) ([]complex128, error) {
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

	fleet := testFleet(t, FleetOptions{Logf: t.Logf})
	addr := fleet.Addr().String()
	broken := WorkerModel{
		Fingerprint: fp,
		States:      m.N(),
		Evaluator:   NewSolverEvaluator(m, opts),
		NewShardPlanned: plannedShard(m, func(sv *passage.ShardSolver) passage.ShardMember {
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
	fleet := testFleet(t, FleetOptions{Logf: t.Logf})
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
