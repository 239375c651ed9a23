package pipeline

import (
	"hydra/internal/obs"
)

// Process-wide instruments on obs.Default. The solver, fleet master
// and fleet worker exist once per process (or share the process's
// registry deliberately — several Fleets in one test binary sum into
// the same cells), so these live here rather than per-instance.
var (
	// Solver hot path, recorded by SolverEvaluator for every backend
	// (the in-process pool and fleet workers alike).
	solvePointDuration = obs.Default.NewHistogramVec("hydra_solve_point_duration_seconds",
		"Wall time of one s-point transform evaluation.", obs.DefBuckets, "quantity")
	solveKernelFill = obs.Default.NewHistogram("hydra_solve_kernel_fill_seconds",
		"Wall time assembling the kernel matrix U(s) (memoised fills are not observed).", obs.DefBuckets)
	solveDepth = obs.Default.NewHistogramVec("hydra_solve_iteration_depth",
		"Iteration depth per solve: transition depth r for iterative LSTs, Gauss-Seidel sweeps for direct/transient solves.",
		obs.DepthBuckets, "quantity")
	solveWarmStarts = obs.Default.NewCounterVec("hydra_solve_warm_starts_total",
		"Solves seeded from a neighbouring s-point's solution (WarmStart on).", "quantity")
	solveSweepsSaved = obs.Default.NewCounterVec("hydra_solve_sweeps_saved_total",
		"Estimated iteration sweeps avoided by warm starts, vs the segment's cold baseline.", "quantity")

	// Fleet master.
	fleetWorkersConnected = obs.Default.NewGauge("hydra_fleet_workers_connected",
		"Currently connected fleet workers.")
	fleetAccepted = obs.Default.NewCounter("hydra_fleet_handshakes_accepted_total",
		"Worker handshakes accepted.")
	fleetRejected = obs.Default.NewCounter("hydra_fleet_handshakes_rejected_total",
		"Worker handshakes rejected (version or model mismatch, undecodable hello).")
	fleetRequeued = obs.Default.NewCounter("hydra_fleet_requeued_points_total",
		"Points returned to the queue after a worker loss.")
	fleetRunsActive = obs.Default.NewGauge("hydra_fleet_runs_active",
		"Fleet solves currently executing.")
	fleetWireVersion = obs.Default.NewGauge("hydra_fleet_wire_protocol_version",
		"Fleet wire protocol version this binary speaks.")
	fleetAssignedPoints = obs.Default.NewCounterVec("hydra_fleet_assigned_points_total",
		"Points assigned, by worker.", "worker")
	fleetCompletedPoints = obs.Default.NewCounterVec("hydra_fleet_completed_points_total",
		"Points completed, by worker.", "worker")
	fleetBatchDuration = obs.Default.NewHistogramVec("hydra_fleet_batch_duration_seconds",
		"Assignment round-trip (send batch to last result frame), by worker.", obs.DefBuckets, "worker")
	fleetWorkerIdle = obs.Default.NewCounterVec("hydra_fleet_worker_idle_seconds_total",
		"Seconds a connected worker spent waiting for work, by worker.", "worker")

	// Sharded solves: one kernel split across several workers.
	fleetShardSessions = obs.Default.NewCounter("hydra_fleet_shard_sessions_total",
		"Shard sessions built (recruited member sets, including re-shards).")
	fleetShardMembers = obs.Default.NewGauge("hydra_fleet_shard_members",
		"Worker connections currently serving as shard members.")
	fleetShardSweeps = obs.Default.NewCounter("hydra_fleet_shard_sweeps_total",
		"Distributed sweeps conducted across shard members.")
	fleetShardReshards = obs.Default.NewCounter("hydra_fleet_shard_reshards_total",
		"Shard sessions rebuilt after losing a member mid-run.")
	// The exchange tax, measurable in production: how much of a sharded
	// solve is moving sub-vectors versus sweeping rows.
	shardBoundaryVertices = obs.Default.NewGauge("hydra_shard_boundary_vertices",
		"Boundary vertices (states whose values cross blocks each exchange) of the latest shard session.")
	shardExchangedValues = obs.Default.NewCounter("hydra_shard_exchanged_values_total",
		"Complex sub-vector values exchanged between shard blocks.")
	shardExchangeSeconds = obs.Default.NewCounter("hydra_shard_exchange_seconds_total",
		"Wall seconds sharded solves spent on halo exchange beyond the slowest member's compute.")
	shardComputeSeconds = obs.Default.NewCounter("hydra_shard_compute_seconds_total",
		"Summed member compute seconds inside sharded solves.")

	// Fleet worker process (the other end of the wire).
	workerAssignments = obs.Default.NewCounter("hydra_worker_assignments_total",
		"Assignment batches received from the master.")
	workerPoints = obs.Default.NewCounter("hydra_worker_points_total",
		"s-points evaluated.")
	workerPointErrors = obs.Default.NewCounter("hydra_worker_point_errors_total",
		"s-point evaluations that returned an error.")
	workerBatchDuration = obs.Default.NewHistogram("hydra_worker_batch_duration_seconds",
		"Wall time evaluating one assignment batch.", obs.DefBuckets)
	workerWireVersion = obs.Default.NewGauge("hydra_worker_wire_protocol_version",
		"Wire protocol version of the last successful handshake.")
	// WorkerReconnects is incremented by resident worker loops
	// (cmd/hydra-worker) on every redial after a lost connection.
	WorkerReconnects = obs.Default.NewCounter("hydra_worker_reconnects_total",
		"Reconnect attempts after a lost master connection.")
)
