package pipeline

import (
	"encoding/gob"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"strconv"
	"time"

	"hydra/internal/obs"
	"hydra/internal/passage"
)

// ErrHandshakeRejected reports a master that refused this worker's
// handshake — a version mismatch or a model the master will not accept.
// The condition is permanent for a given pair of binaries and models,
// so reconnect loops should give up rather than redial (errors.Is
// distinguishes it from transient connection failures).
var ErrHandshakeRejected = errors.New("pipeline: master rejected handshake")

// WorkerModel is one model a fleet worker holds locally and advertises
// in its handshake: the fingerprint masters route by, the state count
// cross-checked per solve, and the evaluator that does the work. A
// worker process may hold several models and serve whichever solves
// match.
type WorkerModel struct {
	Fingerprint string
	States      int
	Evaluator   Evaluator

	// NewShardPlanned builds the member for block part of the
	// deterministic boundary-minimizing partition of the spec's kernel
	// into parts blocks, for sharded solves: the master conducts the
	// distributed sweep, this member fills and iterates only its block.
	// The placement is computed worker-side because the master holds no
	// kernel; it reports the block's position in the planned ordering
	// (and the ordering itself). A nil member with a nil error marks a
	// surplus part. Nil means the model cannot be sharded; a worker none
	// of whose models shard serves only whole-point batches.
	// RunWorkerWith wires passage.NewPlannedShardSolver in here.
	NewShardPlanned func(spec *SolveSpec, parts, part int) (passage.ShardMember, passage.ShardPlacement, error)
}

// WorkerOptions tunes a fleet worker.
type WorkerOptions struct {
	// Name identifies the worker in master-side diagnostics.
	Name string
	// DialTimeout bounds the connection attempt (default 10s).
	DialTimeout time.Duration
	// FrameValues caps how many complex values a fleet worker packs into
	// one result message before starting a new frame (default 1<<15).
	// Masters reassemble any chunking, so this is purely a message-size
	// policy; tests shrink it to exercise multi-frame vectors.
	FrameValues int
	// Logger receives the worker's structured log lines (handshake
	// outcome, per-batch debug records carrying the master's trace ID).
	// Nil discards them.
	Logger *slog.Logger
	// Tracer records worker-side spans, correlated with the master's by
	// the trace ID travelling on run headers. Nil drops them.
	Tracer *obs.Tracer
}

// logger returns the configured logger or a discarding one.
func (o WorkerOptions) logger() *slog.Logger {
	if o.Logger != nil {
		return o.Logger
	}
	return slog.New(slog.DiscardHandler)
}

// FleetWork connects to a fleet master, advertises the given models,
// and serves until the master shuts the fleet down (nil return) or the
// connection fails (error — callers that want a resident worker
// reconnect with backoff, which is what cmd/hydra-worker's -reconnect
// flag does). The worker serves two kinds of work over one connection:
// assignment batches (whole s-points, vectors streamed back as chunked
// frames) and shard memberships (the worker holds one row block of a
// solve's kernel and answers the master's sweep messages).
func FleetWork(addr string, models []WorkerModel, opts WorkerOptions) error {
	if opts.DialTimeout == 0 {
		opts.DialTimeout = 10 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		return fmt.Errorf("pipeline: dialing master: %w", err)
	}
	return FleetWorkConn(conn, models, opts)
}

// FleetWorkConn is FleetWork over an already-established connection —
// for callers that own their transport (tunnels, tests injecting
// faults). The connection is closed before returning.
func FleetWorkConn(conn net.Conn, models []WorkerModel, opts WorkerOptions) error {
	defer conn.Close()
	if len(models) == 0 {
		return errors.New("pipeline: fleet worker needs at least one model")
	}
	frameValues := opts.FrameValues
	if frameValues < 1 {
		frameValues = defaultFrameValues
	}
	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)

	hello := helloMsg{Version: ProtocolVersion, WorkerName: opts.Name}
	for _, m := range models {
		hello.Models = append(hello.Models, modelAd{Fingerprint: m.Fingerprint, States: m.States})
		// Shard capability is announced up front, so the master never
		// recruits a worker into a sharded run it would have to refuse.
		hello.Shard = hello.Shard || m.NewShardPlanned != nil
	}
	// The handshake is bare gob in both directions — that is what lets
	// mixed-generation pairs exchange readable rejects.
	if err := enc.Encode(hello); err != nil {
		return fmt.Errorf("pipeline: hello: %w", err)
	}
	var welcome welcomeMsg
	if err := dec.Decode(&welcome); err != nil {
		return fmt.Errorf("pipeline: welcome: %w", err)
	}
	switch {
	case welcome.Reject != "":
		return fmt.Errorf("%w: %s", ErrHandshakeRejected, welcome.Reject)
	case welcome.Version != ProtocolVersion:
		return fmt.Errorf("%w: master speaks wire protocol v%d but this worker speaks v%d; deploy matching hydra binaries",
			ErrHandshakeRejected, welcome.Version, ProtocolVersion)
	}
	log := opts.logger()
	workerWireVersion.Set(float64(welcome.Version))
	log.Info("fleet handshake accepted",
		"worker", opts.Name, "master", conn.RemoteAddr().String(),
		"wire_version", welcome.Version, "models", len(models))

	// Post-handshake traffic travels in gob interface envelopes: the
	// registered wire name rides with each message, so batch and shard
	// messages interleave on one stream.
	w := &fleetWorker{
		opts:        opts,
		models:      models,
		log:         log,
		frameValues: frameValues,
		send:        func(msg any) error { return enc.Encode(&msg) },
		runs:        make(map[int64]*workerRun),
		shards:      make(map[int64]*workerShardRun),
	}
	for {
		var msg any
		if err := dec.Decode(&msg); err != nil {
			return fmt.Errorf("pipeline: receiving from master: %w", err)
		}
		done, err := w.handle(msg)
		if err != nil || done {
			return err
		}
	}
}

// fleetWorker is the post-handshake state of one fleet connection.
type fleetWorker struct {
	opts        WorkerOptions
	models      []WorkerModel
	log         *slog.Logger
	frameValues int
	send        func(msg any) error
	runs        map[int64]*workerRun
	shards      map[int64]*workerShardRun
}

// workerShardRun is the worker-side state of one shard membership: the
// block-holding member plus the bookkeeping the reply messages need.
type workerShardRun struct {
	member  passage.ShardMember
	spec    *SolveSpec
	curIdx  int
	planErr string // a failed SetBoundary, reported on the next point open
}

// computeNS extracts the member's pure compute time when it reports one.
func (sr *workerShardRun) computeNS() int64 {
	if rep, ok := sr.member.(passage.ShardComputeReporter); ok {
		return rep.LastComputeNS()
	}
	return 0
}

// handle dispatches one enveloped master message. It returns done=true
// on a clean dismissal.
func (w *fleetWorker) handle(msg any) (done bool, err error) {
	switch m := msg.(type) {
	case assignBatchMsg:
		if m.Done {
			w.log.Info("fleet master dismissed worker", "worker", w.opts.Name)
			return true, nil
		}
		return false, w.handleBatch(m)
	case shardStartMsg:
		return false, w.handleShardStart(m)
	case shardPlanMsg:
		if sr := w.shards[m.RunID]; sr != nil {
			if err := sr.member.SetBoundary(m.Boundary); err != nil {
				sr.planErr = err.Error()
			}
		}
		return false, nil // fire-and-forget: errors surface on the next point open
	case shardPointMsg:
		return false, w.handleShardPoint(m)
	case shardSweepMsg:
		return false, w.handleShardSweep(m)
	case shardEndMsg:
		delete(w.shards, m.RunID)
		return false, nil
	default:
		return false, fmt.Errorf("pipeline: master sent unexpected %T", msg)
	}
}

// specFromHeader rebuilds the worker-side SolveSpec a run header
// describes (the s-values travel separately, per assignment or point).
func specFromHeader(h *runHeaderMsg) *SolveSpec {
	return &SolveSpec{
		Name:        h.Name,
		Quantity:    h.Quantity,
		Targets:     h.Targets,
		ModelFP:     h.ModelFP,
		ModelStates: h.ModelStates,
		TraceID:     h.TraceID,
	}
}

// handleShardStart accepts (or readably refuses) hosting one block of a
// sharded solve, derived from the worker-side boundary-minimizing plan.
func (w *fleetWorker) handleShardStart(m shardStartMsg) error {
	refuse := func(reason string) error {
		return w.send(shardReadyMsg{RunID: m.RunID, Err: reason})
	}
	if m.Header == nil {
		return refuse("shard start carried no run header")
	}
	wm, err := matchWorkerModel(w.models, m.Header)
	if err != nil {
		return refuse(err.Error())
	}
	if wm.NewShardPlanned == nil {
		return refuse(fmt.Sprintf("model %q on this worker has no shard constructor", m.Header.ModelFP))
	}
	spec := specFromHeader(m.Header)
	member, placement, err := wm.NewShardPlanned(spec, m.Parts, m.Part)
	if err != nil {
		return refuse(err.Error())
	}
	if member == nil {
		// Surplus part: the plan yielded fewer blocks than workers.
		return w.send(shardReadyMsg{RunID: m.RunID})
	}
	w.shards[m.RunID] = &workerShardRun{member: member, spec: spec}
	w.log.Info("hosting shard block",
		"worker", w.opts.Name, "trace_id", spec.TraceID, "spec", spec.Name,
		"part", m.Part, "parts", m.Parts, "lo", placement.Lo, "hi", placement.Hi,
		"halo", len(member.HaloColumns()), "permuted", placement.Perm != nil)
	return w.send(shardReadyMsg{
		RunID: m.RunID, HaloCols: member.HaloColumns(),
		Lo: placement.Lo, Hi: placement.Hi, PermRows: placement.Perm,
	})
}

// handleShardPoint opens one s-point on the local block and answers the
// seed's boundary values as the Seq-0 delta.
func (w *fleetWorker) handleShardPoint(m shardPointMsg) error {
	sr := w.shards[m.RunID]
	if sr == nil {
		return w.send(shardDeltaMsg{RunID: m.RunID, Err: fmt.Sprintf("worker holds no shard of run %d", m.RunID)})
	}
	if sr.planErr != "" {
		return w.send(shardDeltaMsg{RunID: m.RunID, Err: "boundary plan failed: " + sr.planErr})
	}
	sr.curIdx = m.Index
	begin := sr.member.BeginPoint
	if m.Batch {
		begin = sr.member.BeginPointFP
	}
	boundary, err := begin(m.S, m.Warm)
	if err != nil {
		workerPointErrors.Inc()
		return w.send(shardDeltaMsg{RunID: m.RunID, Err: err.Error()})
	}
	return w.send(shardDeltaMsg{RunID: m.RunID, Seq: 0, Boundary: boundary, ComputeNS: sr.computeNS()})
}

// handleShardSweep runs one exchange's sweeps over the local block — or,
// on Finish, closes the point and answers with the block's slice of the
// converged vector. An Early request ships the boundary rows in an
// early frame while the interior still sweeps, and is always answered
// with exactly two deltas — the early frame first, then the closing
// frame carrying the increment norm — even when the member errors, so
// the master's reply accounting never desyncs.
func (w *fleetWorker) handleShardSweep(m shardSweepMsg) error {
	sr := w.shards[m.RunID]
	if sr == nil {
		if m.Finish {
			return w.send(shardBlockMsg{RunID: m.RunID, Err: fmt.Sprintf("worker holds no shard of run %d", m.RunID)})
		}
		return w.send(shardDeltaMsg{RunID: m.RunID, Seq: m.Seq, Err: fmt.Sprintf("worker holds no shard of run %d", m.RunID)})
	}
	if m.Finish {
		data, err := sr.member.Finish(m.Halo)
		if err != nil {
			workerPointErrors.Inc()
			return w.send(shardBlockMsg{RunID: m.RunID, Index: sr.curIdx, Err: err.Error()})
		}
		workerPoints.Inc()
		return w.send(shardBlockMsg{RunID: m.RunID, Index: sr.curIdx, Data: data, ComputeNS: sr.computeNS()})
	}
	if !m.Early {
		boundary, norm, err := sr.member.SweepN(m.Halo, m.Inner, nil)
		if err != nil {
			workerPointErrors.Inc()
			return w.send(shardDeltaMsg{RunID: m.RunID, Seq: m.Seq, Err: err.Error()})
		}
		return w.send(shardDeltaMsg{RunID: m.RunID, Seq: m.Seq, Boundary: boundary, Norm: norm, ComputeNS: sr.computeNS()})
	}
	earlySent := false
	var sendErr error
	_, norm, err := sr.member.SweepN(m.Halo, m.Inner, func(b []complex128) {
		earlySent = true
		sendErr = w.send(shardDeltaMsg{RunID: m.RunID, Seq: m.Seq, Boundary: b, Early: true})
	})
	if sendErr != nil {
		return sendErr // transport failure: the relay is gone anyway
	}
	if err != nil {
		workerPointErrors.Inc()
		if !earlySent {
			if serr := w.send(shardDeltaMsg{RunID: m.RunID, Seq: m.Seq, Early: true, Err: err.Error()}); serr != nil {
				return serr
			}
		}
		return w.send(shardDeltaMsg{RunID: m.RunID, Seq: m.Seq, Err: err.Error()})
	}
	return w.send(shardDeltaMsg{RunID: m.RunID, Seq: m.Seq, Norm: norm, ComputeNS: sr.computeNS()})
}

// handleBatch evaluates one assignment batch, streaming each point's
// transform vector back as frames no larger than frameValues complex
// values; the final message of the batch sets Last so the master knows
// the stream is over, and carries the batch's phase attribution for
// Stats.Phases.
func (w *fleetWorker) handleBatch(a assignBatchMsg) error {
	if len(a.Points) != len(a.Indices) {
		return fmt.Errorf("pipeline: master assigned %d points for %d indices", len(a.Points), len(a.Indices))
	}
	for _, id := range a.Forget {
		delete(w.runs, id)
	}
	wr := w.runs[a.RunID]
	if wr == nil {
		if a.Header == nil {
			return fmt.Errorf("pipeline: master assigned unknown run %d without a header", a.RunID)
		}
		wm, err := matchWorkerModel(w.models, a.Header)
		if err != nil {
			return err
		}
		wr = &workerRun{spec: specFromHeader(a.Header), eval: wm.Evaluator}
		w.runs[a.RunID] = wr
	}
	workerAssignments.Inc()
	batchStart := time.Now()
	reporter, _ := wr.eval.(PhaseReporter)
	warmer, _ := wr.eval.(WarmReporter)
	var phaseNS map[string]int64
	var depth, warmStarts, sweepsSaved int64
	out := frameStream{send: w.send, runID: a.RunID, budget: w.frameValues}
	for i, idx := range a.Indices {
		if err := checkPoint(wr.spec.Quantity, idx, a.Points[i]); err != nil {
			workerPointErrors.Inc()
			if serr := out.sendError(idx, err.Error()); serr != nil {
				return serr
			}
			continue
		}
		vec, err := wr.eval.EvaluateVector(a.Points[i], wr.spec)
		if reporter != nil {
			fill, solve, d := reporter.LastPhases()
			if phaseNS == nil {
				phaseNS = make(map[string]int64, 2)
			}
			phaseNS[PhaseKernelFill] += fill.Nanoseconds()
			phaseNS[PhaseSolve] += solve.Nanoseconds()
			depth += int64(d)
		}
		if warmer != nil {
			if wrm, s := warmer.LastWarmStart(); wrm {
				warmStarts++
				sweepsSaved += int64(s)
			}
		}
		if err != nil {
			workerPointErrors.Inc()
			if serr := out.sendError(idx, err.Error()); serr != nil {
				return serr
			}
			continue
		}
		workerPoints.Inc()
		if serr := out.sendVector(idx, vec); serr != nil {
			return serr
		}
	}
	if err := out.finish(phaseNS, depth, warmStarts, sweepsSaved); err != nil {
		return err
	}
	batchTime := time.Since(batchStart)
	workerBatchDuration.Observe(batchTime.Seconds())
	w.opts.Tracer.Record(obs.Span{
		TraceID: wr.spec.TraceID, Name: "worker.batch", Worker: w.opts.Name,
		Start: batchStart, Duration: batchTime,
		Attrs: map[string]string{"spec": wr.spec.Name, "points": strconv.Itoa(len(a.Indices))},
	})
	w.log.Debug("evaluated assignment batch",
		"worker", w.opts.Name, "trace_id", wr.spec.TraceID, "spec", wr.spec.Name,
		"points", len(a.Indices), "duration", batchTime)
	return nil
}

// frameStream packs point vectors into resultFrameMsg messages,
// flushing whenever the pending payload reaches the budget.
type frameStream struct {
	send    func(msg any) error
	runID   int64
	budget  int
	pending []pointFrame
	load    int // complex values buffered in pending
}

// flush sends the buffered frames (last marks the end of the batch
// and carries the batch's phase attribution and warm-start tally).
func (fs *frameStream) flush(last bool, phaseNS map[string]int64, depth, warm, saved int64) error {
	if !last && len(fs.pending) == 0 {
		return nil
	}
	msg := resultFrameMsg{RunID: fs.runID, Last: last, Frames: fs.pending}
	if last {
		msg.PhaseNS = phaseNS
		msg.TotalDepth = depth
		msg.WarmStarts = warm
		msg.SweepsSaved = saved
	}
	if err := fs.send(msg); err != nil {
		return fmt.Errorf("pipeline: sending result frames: %w", err)
	}
	fs.pending = nil
	fs.load = 0
	return nil
}

// add buffers one frame and flushes when the budget fills.
func (fs *frameStream) add(fr pointFrame) error {
	fs.pending = append(fs.pending, fr)
	fs.load += len(fr.Data)
	if fs.load >= fs.budget {
		return fs.flush(false, nil, 0, 0, 0)
	}
	return nil
}

// sendVector chunks one point's vector across frames.
func (fs *frameStream) sendVector(idx int, vec []complex128) error {
	total := len(vec)
	if total == 0 {
		return fs.add(pointFrame{Index: idx, Total: 0})
	}
	for off := 0; off < total; off += fs.budget {
		end := off + fs.budget
		if end > total {
			end = total
		}
		if err := fs.add(pointFrame{Index: idx, Offset: off, Total: total, Data: vec[off:end]}); err != nil {
			return err
		}
	}
	return nil
}

// sendError reports one point's evaluation failure.
func (fs *frameStream) sendError(idx int, msg string) error {
	return fs.add(pointFrame{Index: idx, Err: msg})
}

// finish flushes whatever remains with the Last marker, attaching the
// batch's phase attribution and warm-start tally.
func (fs *frameStream) finish(phaseNS map[string]int64, depth, warm, saved int64) error {
	return fs.flush(true, phaseNS, depth, warm, saved)
}

// workerRun is the worker-side state of one master run.
type workerRun struct {
	spec *SolveSpec
	eval Evaluator
}

// matchWorkerModel resolves a run header against the advertised models:
// by fingerprint when the solve names one, by state count otherwise.
// The master only routes matching solves, so a miss here is a protocol
// error.
func matchWorkerModel(models []WorkerModel, h *runHeaderMsg) (WorkerModel, error) {
	for _, m := range models {
		if h.ModelFP != "" {
			if m.Fingerprint == h.ModelFP && (h.ModelStates == 0 || m.States == h.ModelStates) {
				return m, nil
			}
			continue
		}
		if h.ModelStates == 0 || m.States == h.ModelStates {
			return m, nil
		}
	}
	return WorkerModel{}, fmt.Errorf("pipeline: master assigned a job for model %q (%d states) this worker does not hold",
		h.ModelFP, h.ModelStates)
}
