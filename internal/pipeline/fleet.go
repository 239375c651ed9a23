package pipeline

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"sync"
	"time"

	"hydra/internal/obs"
)

// The fleet wire protocol. A worker opens with a bare-gob hello and the
// master answers with a bare-gob welcome — accepting, or carrying a
// readable reject; everything after the handshake travels in gob
// interface envelopes, so batch and shard messages share one stream:
//
//   - a run header describes a source-free SolveSpec (no sources or
//     weights travel — the vector answer is source-independent);
//   - assignments carry batches of s-points, and each evaluated point
//     returns the full source-indexed transform vector as *chunked
//     frames*: a vector larger than the frame budget is split across
//     several frame messages (Offset/Total reassembly on the master), so
//     a million-state vector never has to materialise as one gob message;
//   - a worker that fails mid-frame-stream has exactly its unfinished
//     points requeued;
//   - a sharded solve recruits idle connections as shard members (see
//     fleetshard.go) and returns them to batch duty afterwards.

// ProtocolVersion is the one fleet wire protocol generation this binary
// speaks. Workers announce theirs in the hello and the master accepts
// exactly its own; any change to the message set bumps it, so a
// mismatched pair of binaries meets a readable reject instead of a
// decode error.
const ProtocolVersion = 6

// helloMsg opens a fleet connection (worker → master). The handshake
// field names Version, WorkerName and Reject are frozen across protocol
// generations — gob matches fields by name — so mixed-version
// handshakes always decode and reject readably.
type helloMsg struct {
	Version    int
	WorkerName string
	Models     []modelAd
	// Shard announces that the worker hosts row blocks of sharded solves
	// (some model of its carries a planned shard constructor); without it
	// the worker serves whole s-point batches only.
	Shard bool
}

// modelAd advertises one model a worker holds.
type modelAd struct {
	Fingerprint string
	States      int
}

// welcomeMsg answers the hello (master → worker). Version is always the
// master's own; a non-empty Reject refuses the worker and says why.
type welcomeMsg struct {
	Version int
	Reject  string
}

// runHeaderMsg describes a solve once per (worker, run): everything
// an evaluator needs except the s-values themselves. Note the absence
// of sources/weights — runs are SolveSpecs. TraceID carries the
// originating request's ID so worker-side spans and log lines
// correlate with the master's.
type runHeaderMsg struct {
	Name        string
	ModelFP     string
	ModelStates int
	Quantity    Quantity
	Targets     []int
	TraceID     string
}

// assignBatchMsg carries up to BatchSize s-points (master → worker).
// Header is set on the first batch of a run sent to this worker; Forget
// lists runs that have ended so the worker can drop their state. Done
// tells the worker the fleet is shutting down.
type assignBatchMsg struct {
	Done    bool
	RunID   int64
	Header  *runHeaderMsg
	Forget  []int64
	Indices []int
	Points  []complex128
}

// pointFrame is one chunk of one evaluated s-point's vector (worker →
// master). Total is the full vector length; Data holds the values at
// [Offset, Offset+len(Data)). A non-empty Err reports the evaluator's
// failure for that index (no data travels) without tearing down the
// connection: the master aborts the affected run, the worker keeps
// serving other jobs.
type pointFrame struct {
	Index  int
	Offset int
	Total  int
	Data   []complex128
	Err    string
}

// resultFrameMsg carries a batch of frames answering one assignment
// (worker → master). A worker streams as many of these as the frame
// budget requires and sets Last on the final one. The Last message
// also carries the batch's phase attribution (nanoseconds keyed by
// phase name), summed iteration depth, and the warm-start tally
// (solves seeded from a neighbouring s-point, and the sweeps that
// saved) when the worker's evaluator reports them.
type resultFrameMsg struct {
	RunID       int64
	Last        bool
	Frames      []pointFrame
	PhaseNS     map[string]int64
	TotalDepth  int64
	WarmStarts  int64
	SweepsSaved int64
}

// defaultFrameValues is how many complex values travel per result
// message before the worker starts a new frame message (512 KiB of
// payload). Masters accept any chunking, so this is worker-side policy.
const defaultFrameValues = 1 << 15

// FleetOptions tunes a Fleet.
type FleetOptions struct {
	// BatchSize is how many s-points travel per assignment message
	// (default 8). Larger batches amortize gob round-trips; smaller ones
	// spread work more evenly and lose less to a dying worker.
	BatchSize int
	// IdleTimeout bounds how long the master waits for a single frame
	// message before declaring the connection dead (default 10 minutes —
	// a batch of points on a million-state model is legitimately slow).
	IdleTimeout time.Duration
	// WaitTimeout bounds how long Execute tolerates having zero
	// connected workers capable of its solve before failing it. Zero
	// means wait indefinitely: the master idles until workers arrive.
	WaitTimeout time.Duration
	// RequireFingerprint/RequireStates, when set, make the handshake
	// reject workers that do not advertise a matching model — the
	// one-shot master behaviour, where a mismatched worker should fail
	// loudly on its own console rather than idle unrouted forever. An
	// empty fingerprint matches by state count alone and zero states by
	// fingerprint alone; resident fleets leave both unset and accept any
	// model a registry might serve.
	RequireFingerprint string
	RequireStates      int
	// Logf receives diagnostics (rejected handshakes, requeues). Nil
	// discards them.
	Logf func(format string, args ...any)
}

func (o FleetOptions) withDefaults() FleetOptions {
	if o.BatchSize < 1 {
		o.BatchSize = 8
	}
	if o.IdleTimeout == 0 {
		o.IdleTimeout = 10 * time.Minute
	}
	return o
}

// Fleet is the resident master of the distributed pipeline (§4) and the
// TCP Backend implementation: it accepts hydra-worker connections on a
// listener and keeps them alive across solves, so a resident service
// plus K worker processes serves repeated traffic with near-linear
// speedup — workers never exchange data with each other (§5.3.3).
//
// Execute may be called concurrently; every connected worker that holds
// a solve's model pulls batches from it, and a worker that dies or
// disconnects mid-batch has its in-flight points requeued for the
// others. Workers that join mid-run are handed work immediately.
type Fleet struct {
	opts FleetOptions
	ln   net.Listener

	mu       sync.Mutex
	cond     *sync.Cond     // signals pending work / shutdown to worker loops
	connWG   sync.WaitGroup // live serveConn goroutines
	conns    map[*fleetConn]struct{}
	runs     map[int64]*fleetRun
	runOrder []int64         // ascending registration order, for fair dispatch
	recruits []*shardRecruit // open calls for shard members (sharded runs)
	nextRun  int64
	closed   bool
	closedCh chan struct{}
	accepted int64
	rejected int64
}

// fleetConn is the master-side state of one worker connection.
type fleetConn struct {
	name      string
	conn      net.Conn
	shardOK   bool           // the worker hosts shard blocks
	models    map[string]int // fingerprint → state count
	started   map[int64]bool // runs this worker has the header of
	assigned  int            // points handed to this worker (lifetime)
	completed int            // points it answered (lifetime)
}

// fleetCodec frames post-handshake traffic for one worker connection:
// every message travels in a gob interface envelope, so the registered
// wire name rides with it and a connection can interleave batch
// assignments with shard traffic. The handshake itself is bare: that is
// what keeps mixed-generation rejects readable.
type fleetCodec struct {
	enc *gob.Encoder
	dec *gob.Decoder
}

// send writes one enveloped message.
func (k *fleetCodec) send(msg any) error { return k.enc.Encode(&msg) }

// recv reads one enveloped message.
func (k *fleetCodec) recv() (any, error) {
	var msg any
	err := k.dec.Decode(&msg)
	return msg, err
}

// fleetRun is one Execute in progress.
type fleetRun struct {
	id       int64
	spec     *SolveSpec
	header   runHeaderMsg
	pending  []int // unassigned point indices (guarded by Fleet.mu)
	requeued int   // points returned to pending after a worker loss
	results  chan fleetResult
	done     chan struct{} // closed when Execute stops consuming results
	ended    bool
}

// pointResultVec is one fully reassembled point answer.
type pointResultVec struct {
	Index int
	Vec   []complex128
	Err   string
}

// fleetResult is one answered batch routed back to Execute, with the
// worker's phase attribution and warm-start tally for the batch.
type fleetResult struct {
	worker  string
	points  []pointResultVec
	phaseNS map[string]int64
	depth   int64
	warm    int64
	saved   int64
}

// NewFleet starts a fleet master accepting workers on ln. The listener
// is owned by the fleet from here on; Close closes it.
func NewFleet(ln net.Listener, opts FleetOptions) *Fleet {
	f := &Fleet{
		opts:     opts.withDefaults(),
		ln:       ln,
		conns:    make(map[*fleetConn]struct{}),
		runs:     make(map[int64]*fleetRun),
		closedCh: make(chan struct{}),
	}
	f.cond = sync.NewCond(&f.mu)
	fleetWireVersion.Set(ProtocolVersion)
	go f.acceptLoop()
	return f
}

// Addr returns the address workers should dial.
func (f *Fleet) Addr() net.Addr { return f.ln.Addr() }

// Close shuts the fleet down: the listener stops accepting, solves
// still executing fail with a "fleet closed" error, and every worker is
// dismissed with a Done message so FleetWork returns nil. A worker that
// stays unresponsive past closeGrace has its connection torn down
// instead.
func (f *Fleet) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	close(f.closedCh)
	f.mu.Unlock()
	f.cond.Broadcast()
	err := f.ln.Close()

	// Let the connection loops dismiss their workers; force-close
	// whatever is still mid-batch after the grace period.
	done := make(chan struct{})
	go func() {
		f.connWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(closeGrace):
		f.mu.Lock()
		for c := range f.conns {
			c.conn.Close()
		}
		f.mu.Unlock()
		<-done
	}
	return err
}

// closeGrace is how long Close waits for workers to be dismissed
// cleanly before tearing their connections down.
const closeGrace = 5 * time.Second

func (f *Fleet) logf(format string, args ...any) {
	if f.opts.Logf != nil {
		f.opts.Logf(format, args...)
	}
}

func (f *Fleet) acceptLoop() {
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			return
		}
		// The closed check under the lock keeps connWG.Add from racing
		// Close's Wait on a connection accepted mid-shutdown.
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			conn.Close()
			continue
		}
		f.connWG.Add(1)
		f.mu.Unlock()
		go func() {
			defer f.connWG.Done()
			f.serveConn(conn)
		}()
	}
}

// Execute implements Backend: it farms the spec's uncached s-points out
// to every connected worker holding the spec's model, requeueing
// batches lost to failed workers, until all vectors are in. A spec
// carrying a ShardHint instead splits each solve's kernel into row
// blocks across several workers (executeSharded); transient solves and
// specs without a known state count always take the batch path.
func (f *Fleet) Execute(spec *SolveSpec, cache Cache) ([][]complex128, *RunStats, error) {
	if spec.ShardHint > 1 && spec.Quantity != TransientDist && spec.ModelStates > 0 {
		return f.executeSharded(spec, cache)
	}
	start := time.Now()
	values := make([][]complex128, len(spec.Points))
	have := make([]bool, len(spec.Points))
	stats := &RunStats{}
	if cache != nil {
		cached, err := cache.Load(spec)
		if err != nil {
			return nil, nil, err
		}
		for idx, v := range cached {
			values[idx] = v
			have[idx] = true
			stats.FromCache++
		}
	}
	var pending []int
	for idx := range spec.Points {
		if !have[idx] {
			pending = append(pending, idx)
		}
	}
	if len(pending) == 0 {
		stats.WallTime = time.Since(start)
		return values, stats, nil
	}

	run := &fleetRun{
		spec: spec,
		header: runHeaderMsg{
			Name:        spec.Name,
			ModelFP:     spec.ModelFP,
			ModelStates: spec.ModelStates,
			Quantity:    spec.Quantity,
			Targets:     spec.Targets,
			TraceID:     spec.TraceID,
		},
		pending: pending,
		results: make(chan fleetResult, 64),
		done:    make(chan struct{}),
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, nil, errors.New("pipeline: fleet is closed")
	}
	f.nextRun++
	run.id = f.nextRun
	f.runs[run.id] = run
	f.runOrder = append(f.runOrder, run.id)
	f.mu.Unlock()
	f.cond.Broadcast()
	fleetRunsActive.Inc()
	defer f.unregister(run)
	runSpan := obs.DefaultTracer.StartSpan(spec.TraceID, "fleet.run").
		SetAttr("spec", spec.Name).SetAttr("points", strconv.Itoa(len(pending)))
	defer runSpan.End()

	perWorker := make(map[string]int)
	remaining := len(pending)
	var firstErr error
	idleSince := time.Now()
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for remaining > 0 && firstErr == nil {
		select {
		case r := <-run.results:
			idleSince = time.Now()
			for name, ns := range r.phaseNS {
				stats.AddPhase(name, time.Duration(ns))
			}
			stats.TotalDepth += r.depth
			stats.WarmStarted += int(r.warm)
			stats.SweepsSaved += r.saved
			for _, pr := range r.points {
				if pr.Err != "" {
					if firstErr == nil {
						firstErr = &PointError{Worker: r.worker, Index: pr.Index, Msg: pr.Err}
					}
					continue
				}
				if pr.Index < 0 || pr.Index >= len(values) || have[pr.Index] {
					continue // duplicate after a requeue race; first result wins
				}
				values[pr.Index] = pr.Vec
				have[pr.Index] = true
				remaining--
				stats.Evaluated++
				perWorker[r.worker]++
				if cache != nil {
					if err := cache.Append(spec, pr.Index, pr.Vec); err != nil && firstErr == nil {
						firstErr = err
					}
				}
			}
		case <-f.closedCh:
			firstErr = errors.New("pipeline: fleet closed while the job was running")
		case <-tick.C:
			if f.opts.WaitTimeout > 0 && time.Since(idleSince) > f.opts.WaitTimeout {
				if n := f.capableConns(run); n == 0 {
					firstErr = fmt.Errorf("pipeline: no connected worker holds model %q after %v (connect hydra-worker processes with the model loaded)",
						spec.ModelFP, f.opts.WaitTimeout)
				} else {
					idleSince = time.Now() // capable workers exist; IdleTimeout polices them
				}
			}
		}
	}
	requeued := f.unregister(run)
	if cache != nil {
		if err := cache.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, nil, firstErr
	}
	names := make([]string, 0, len(perWorker))
	for name := range perWorker {
		names = append(names, name)
	}
	sort.Strings(names)
	stats.Workers = len(names)
	stats.WorkerNames = names
	stats.PerWorker = make([]int, len(names))
	for i, name := range names {
		stats.PerWorker[i] = perWorker[name]
	}
	stats.Requeued = requeued
	stats.WallTime = time.Since(start)
	return values, stats, nil
}

// unregister removes a run from dispatch and stops result delivery. It
// is idempotent and returns the run's requeue count.
func (f *Fleet) unregister(run *fleetRun) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !run.ended {
		run.ended = true
		fleetRunsActive.Dec()
		close(run.done)
		delete(f.runs, run.id)
		order := f.runOrder[:0]
		for _, id := range f.runOrder {
			if id != run.id {
				order = append(order, id)
			}
		}
		f.runOrder = order
	}
	return run.requeued
}

// requeue returns indices a lost worker had in flight to the run's
// pending queue (a no-op if the run already ended). The queue stays
// sorted so dispatch keeps handing out contiguous contour segments.
func (f *Fleet) requeue(run *fleetRun, indices []int, worker string) {
	if len(indices) == 0 {
		return
	}
	f.mu.Lock()
	live := f.runs[run.id] == run
	if live {
		run.pending = append(run.pending, indices...)
		sort.Ints(run.pending)
		run.requeued += len(indices)
	}
	f.mu.Unlock()
	if live {
		fleetRequeued.Add(float64(len(indices)))
		f.logf("pipeline: requeued %d points of run %d lost to worker %q", len(indices), run.id, worker)
		f.cond.Broadcast()
	}
}

// serves reports whether a connection's advertised models cover a run.
// An empty spec fingerprint falls back to the state-count check; a zero
// state count (hand-built specs) matches any worker.
func (c *fleetConn) serves(r *fleetRun) bool {
	return c.servesHeader(&r.header)
}

// servesHeader is the model-match check shared by batch dispatch and
// shard recruiting.
func (c *fleetConn) servesHeader(h *runHeaderMsg) bool {
	if h.ModelFP != "" {
		states, ok := c.models[h.ModelFP]
		return ok && (h.ModelStates == 0 || states == h.ModelStates)
	}
	if h.ModelStates == 0 {
		return true
	}
	for _, states := range c.models {
		if states == h.ModelStates {
			return true
		}
	}
	return false
}

// capableConns counts connected workers that could serve the run.
func (f *Fleet) capableConns(run *fleetRun) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for c := range f.conns {
		if c.serves(run) {
			n++
		}
	}
	return n
}

// nextBatch blocks until the connection has work (or the fleet closes,
// returning a nil run). Shard recruiting takes priority: an idle
// shard-capable connection matching an open recruit is enlisted as a
// shard member (fourth return) instead of receiving a batch. Otherwise
// it pops a contiguous contour segment from the front of the oldest
// servable run's sorted queue — whole segments on one worker are what
// let a prepared model warm-start each solve from its neighbour — and
// collects the IDs of ended runs the worker still remembers.
func (f *Fleet) nextBatch(c *fleetConn) (*fleetRun, []int, []int64, *shardMemberConn) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if f.closed {
			return nil, nil, nil, nil
		}
		if c.shardOK {
			for _, rec := range f.recruits {
				if rec.need > 0 && !rec.taken[c] && c.servesHeader(rec.header) {
					rec.need--
					rec.taken[c] = true
					smc := &shardMemberConn{
						c:    c,
						req:  make(chan shardRequest),
						done: make(chan struct{}),
					}
					rec.members <- smc // buffered to the recruit's full size
					return nil, nil, nil, smc
				}
			}
		}
		for _, id := range f.runOrder {
			r := f.runs[id]
			if r == nil || len(r.pending) == 0 || !c.serves(r) {
				continue
			}
			n := f.batchCapLocked(r)
			p := r.pending
			hint := r.spec.SegmentHint
			take := 1
			for take < n && take < len(p) && p[take] == p[take-1]+1 {
				if hint > 0 && p[take]%hint == 0 {
					break // next contour block: the s-value jumps here
				}
				take++
			}
			batch := append([]int(nil), p[:take]...)
			r.pending = p[take:]
			c.assigned += take
			var forget []int64
			for id := range c.started {
				if _, live := f.runs[id]; !live {
					forget = append(forget, id)
				}
			}
			return r, batch, forget, nil
		}
		f.cond.Wait()
	}
}

// batchCapLocked returns the assignment-size cap for a run: the spec's
// contour block when known (one t-point's worth of s-points), else the
// configured BatchSize, shrunk to the capable workers' fair share of
// the remaining queue so a short run still spreads across the fleet.
// Callers hold f.mu.
func (f *Fleet) batchCapLocked(r *fleetRun) int {
	n := r.spec.SegmentHint
	if n <= 0 {
		n = f.opts.BatchSize
	}
	capable := 0
	for c := range f.conns {
		if c.serves(r) {
			capable++
		}
	}
	if capable > 1 {
		if fair := (len(r.pending) + capable - 1) / capable; fair < n {
			n = fair
		}
	}
	if n < 1 {
		n = 1
	}
	return n
}

// vectorLimit bounds the vector length a worker may announce for a run:
// the spec's state count, or for hand-built specs without one, the
// largest model the worker itself advertised.
func (c *fleetConn) vectorLimit(h *runHeaderMsg) int {
	if h.ModelStates > 0 {
		return h.ModelStates
	}
	limit := 0
	for fp, states := range c.models {
		if (h.ModelFP == "" || fp == h.ModelFP) && states > limit {
			limit = states
		}
	}
	return limit
}

// collectFrames reads result-frame messages for one assignment until
// the worker marks the stream Last, reassembling chunked vectors. It
// returns the completed point results and the assigned indices that
// never completed (to requeue). A frame that breaks the protocol — an
// index outside the assignment, a Total beyond the model's state count,
// a chunk that is not the contiguous continuation of its vector — is an
// error like a transport failure: the stream cannot be trusted, so the
// caller drops the connection.
func (f *Fleet) collectFrames(c *fleetConn, kod *fleetCodec, run *fleetRun, indices []int) (out fleetResult, missing []int, err error) {
	type assembly struct {
		vec      []complex128
		received int
	}
	out.worker = c.name
	limit := c.vectorLimit(&run.header)
	assemblies := make(map[int]*assembly, len(indices))
	done := make(map[int]bool, len(indices))
	for _, idx := range indices {
		done[idx] = false
	}
	// finish reports whatever the batch left unanswered as missing.
	finish := func(err error) (fleetResult, []int, error) {
		for _, idx := range indices {
			if !done[idx] {
				missing = append(missing, idx)
			}
		}
		return out, missing, err
	}
	for {
		c.conn.SetReadDeadline(time.Now().Add(f.opts.IdleTimeout))
		msg, err := kod.recv()
		if err != nil {
			return finish(err)
		}
		res, ok := msg.(resultFrameMsg)
		if !ok {
			return finish(fmt.Errorf("pipeline: worker %q sent %T where result frames were expected", c.name, msg))
		}
		if res.RunID != run.id {
			return finish(fmt.Errorf("pipeline: worker %q answered run %d with frames for run %d", c.name, run.id, res.RunID))
		}
		for name, ns := range res.PhaseNS {
			if out.phaseNS == nil {
				out.phaseNS = make(map[string]int64, len(res.PhaseNS))
			}
			out.phaseNS[name] += ns
		}
		out.depth += res.TotalDepth
		out.warm += res.WarmStarts
		out.saved += res.SweepsSaved
		for _, fr := range res.Frames {
			if answered, assigned := done[fr.Index]; !assigned || answered {
				return finish(fmt.Errorf("pipeline: worker %q sent a frame for point %d, which this batch is not waiting for", c.name, fr.Index))
			}
			if fr.Err != "" {
				out.points = append(out.points, pointResultVec{Index: fr.Index, Err: fr.Err})
				done[fr.Index] = true
				continue
			}
			a := assemblies[fr.Index]
			if a == nil {
				if fr.Total < 0 || fr.Total > limit {
					return finish(fmt.Errorf("pipeline: worker %q announced a %d-value vector for point %d of a %d-state model", c.name, fr.Total, fr.Index, limit))
				}
				a = &assembly{vec: make([]complex128, fr.Total)}
				assemblies[fr.Index] = a
			}
			// Chunks must arrive as a contiguous ascending stream: each
			// frame's Offset is exactly the prefix received so far. A
			// duplicate, overlapping or gapped chunk would otherwise let
			// the value count reach Total with holes still zero-filled.
			if fr.Total != len(a.vec) || fr.Offset != a.received || len(fr.Data) > len(a.vec)-a.received {
				return finish(fmt.Errorf("pipeline: worker %q sent chunk [%d,%d) of %d for point %d after %d of %d values",
					c.name, fr.Offset, fr.Offset+len(fr.Data), fr.Total, fr.Index, a.received, len(a.vec)))
			}
			copy(a.vec[fr.Offset:], fr.Data)
			a.received += len(fr.Data)
			if a.received == len(a.vec) {
				out.points = append(out.points, pointResultVec{Index: fr.Index, Vec: a.vec})
				done[fr.Index] = true
				delete(assemblies, fr.Index)
			}
		}
		if res.Last {
			return finish(nil)
		}
	}
}

// serveConn drives one worker connection: versioned handshake, then a
// lock-step assign-batch/frame-stream loop until the fleet closes or
// the connection fails (which requeues whatever was in flight).
func (f *Fleet) serveConn(conn net.Conn) {
	defer conn.Close()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)

	countReject := func() {
		f.mu.Lock()
		f.rejected++
		f.mu.Unlock()
		fleetRejected.Inc()
	}
	var hello helloMsg
	conn.SetReadDeadline(time.Now().Add(f.opts.IdleTimeout))
	if err := dec.Decode(&hello); err != nil {
		// Not a hydra worker (a port scanner, a truncated stream): there
		// is nobody to answer, but the operator should see it happened.
		countReject()
		f.logf("pipeline: dropping connection from %s: undecodable hello: %v", conn.RemoteAddr(), err)
		return
	}
	reject := func(reason string) {
		countReject()
		f.logf("pipeline: rejecting worker %q from %s: %s", hello.WorkerName, conn.RemoteAddr(), reason)
		conn.SetWriteDeadline(time.Now().Add(f.opts.IdleTimeout))
		enc.Encode(welcomeMsg{Version: ProtocolVersion, Reject: reason})
	}
	if hello.Version != ProtocolVersion {
		reject(fmt.Sprintf("master speaks wire protocol v%d but worker %q announced v%d; deploy matching hydra binaries",
			ProtocolVersion, hello.WorkerName, hello.Version))
		return
	}
	if len(hello.Models) == 0 {
		reject(fmt.Sprintf("worker %q advertised no models", hello.WorkerName))
		return
	}
	if f.opts.RequireFingerprint != "" || f.opts.RequireStates != 0 {
		ok := false
		for _, ad := range hello.Models {
			if (f.opts.RequireFingerprint == "" || ad.Fingerprint == f.opts.RequireFingerprint) &&
				(f.opts.RequireStates == 0 || ad.States == f.opts.RequireStates) {
				ok = true
				break
			}
		}
		if !ok {
			reject(fmt.Sprintf("worker %q does not hold the master's model %q (%d states); start it with the same model",
				hello.WorkerName, f.opts.RequireFingerprint, f.opts.RequireStates))
			return
		}
	}
	conn.SetWriteDeadline(time.Now().Add(f.opts.IdleTimeout))
	if err := enc.Encode(welcomeMsg{Version: ProtocolVersion}); err != nil {
		return
	}

	c := &fleetConn{
		name:    hello.WorkerName,
		conn:    conn,
		shardOK: hello.Shard,
		models:  make(map[string]int, len(hello.Models)),
		started: make(map[int64]bool),
	}
	kod := &fleetCodec{enc: enc, dec: dec}
	for _, ad := range hello.Models {
		c.models[ad.Fingerprint] = ad.States
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		// The conn never entered f.conns, so Close's force-close cannot
		// reach it: bound the farewell by the grace period, not the
		// residual IdleTimeout deadline.
		conn.SetWriteDeadline(time.Now().Add(closeGrace))
		kod.send(assignBatchMsg{Done: true})
		return
	}
	f.conns[c] = struct{}{}
	f.accepted++
	f.mu.Unlock()
	fleetAccepted.Inc()
	fleetWorkersConnected.Inc()
	defer fleetWorkersConnected.Dec()
	defer func() {
		f.mu.Lock()
		delete(f.conns, c)
		f.mu.Unlock()
	}()

	for {
		idleStart := time.Now()
		run, indices, forget, member := f.nextBatch(c)
		fleetWorkerIdle.With(c.name).Add(time.Since(idleStart).Seconds())
		if member != nil {
			// The connection serves as a shard member until the conductor
			// releases it (resume batches) or the transport fails (tear
			// down; the conductor re-shards without this worker).
			if err := f.serveMember(c, kod, member); err != nil {
				return
			}
			continue
		}
		if run == nil {
			conn.SetWriteDeadline(time.Now().Add(f.opts.IdleTimeout))
			kod.send(assignBatchMsg{Done: true})
			return
		}
		msg := assignBatchMsg{
			RunID:   run.id,
			Forget:  forget,
			Indices: indices,
			Points:  make([]complex128, len(indices)),
		}
		for i, idx := range indices {
			msg.Points[i] = run.spec.Points[idx]
		}
		if !c.started[run.id] {
			h := run.header
			msg.Header = &h
		}
		conn.SetWriteDeadline(time.Now().Add(f.opts.IdleTimeout))
		if err := kod.send(msg); err != nil {
			f.requeue(run, indices, c.name)
			return
		}
		fleetAssignedPoints.With(c.name).Add(float64(len(indices)))
		c.started[run.id] = true
		for _, id := range forget {
			delete(c.started, id)
		}
		batchStart := time.Now()
		res, missing, err := f.collectFrames(c, kod, run, indices)
		batchTime := time.Since(batchStart)
		fleetBatchDuration.With(c.name).Observe(batchTime.Seconds())
		fleetCompletedPoints.With(c.name).Add(float64(len(res.points)))
		obs.DefaultTracer.Record(obs.Span{
			TraceID: run.header.TraceID, Name: "fleet.batch", Worker: c.name,
			Start: batchStart, Duration: batchTime,
			Attrs: map[string]string{"points": strconv.Itoa(len(indices))},
		})
		f.requeue(run, missing, c.name)
		f.mu.Lock()
		c.completed += len(res.points)
		f.mu.Unlock()
		if len(res.points) > 0 || len(res.phaseNS) > 0 {
			select {
			case run.results <- res:
			case <-run.done:
				// The run ended (completed elsewhere, aborted, or the caller
				// gave up); drop the late batch — results are idempotent.
			}
		}
		if err != nil {
			f.logf("pipeline: dropping worker %q: %v", c.name, err)
			return
		}
	}
}

// FleetWorkerInfo describes one connected worker for stats endpoints.
type FleetWorkerInfo struct {
	Name      string   `json:"name"`
	Models    []string `json:"models"` // advertised fingerprints
	Assigned  int      `json:"assigned"`
	Completed int      `json:"completed"`
}

// FleetStats is a point-in-time snapshot of fleet state.
type FleetStats struct {
	Connected  []FleetWorkerInfo `json:"connected"`
	Accepted   int64             `json:"accepted"` // handshakes accepted (lifetime)
	Rejected   int64             `json:"rejected"` // handshakes rejected (lifetime)
	ActiveRuns int               `json:"active_runs"`
}

// Snapshot returns the fleet's current workers and counters.
func (f *Fleet) Snapshot() FleetStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := FleetStats{Accepted: f.accepted, Rejected: f.rejected, ActiveRuns: len(f.runs)}
	for c := range f.conns {
		info := FleetWorkerInfo{Name: c.name, Assigned: c.assigned, Completed: c.completed}
		for fp := range c.models {
			info.Models = append(info.Models, fp)
		}
		sort.Strings(info.Models)
		s.Connected = append(s.Connected, info)
	}
	sort.Slice(s.Connected, func(i, j int) bool { return s.Connected[i].Name < s.Connected[j].Name })
	return s
}
