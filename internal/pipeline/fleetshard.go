package pipeline

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"hydra/internal/obs"
	"hydra/internal/passage"
)

// This file is the master side of a sharded solve: one SolveSpec's
// kernel is split into contiguous row blocks of a boundary-minimizing
// state ordering, each hosted by a different connected worker, and the
// master conducts the distributed sweep of passage.ShardSession over
// the wire. The arithmetic itself lives in internal/passage — the
// remote member proxy here only moves sub-vectors.

// shardStartMsg assigns one block of a sharded run to a worker (master
// → worker). Header is always set: shard membership is independent of
// any batch assignments the worker served before. The master holds no
// kernel, so it names only the block — Part of Parts — and the worker
// computes the deterministic boundary-minimizing partition of (model,
// Parts, targets) itself and answers with its placement.
type shardStartMsg struct {
	RunID  int64
	Header *runHeaderMsg
	Parts  int // total block count of the planned partition
	Part   int // this worker's block index in [0, Parts)
}

// shardReadyMsg answers a shard start (worker → master): a readable
// refusal, or the block's placement — positions [Lo, Hi) of the planned
// ordering, with PermRows listing the original state per position (nil
// for the identity ordering) — and its halo, the sorted out-of-block
// columns its rows read, which the conductor must deliver before every
// sweep. Lo == Hi reports a surplus part — the plan yielded fewer
// blocks than workers — and the master releases the member.
type shardReadyMsg struct {
	RunID    int64
	HaloCols []int
	Err      string
	Lo, Hi   int
	PermRows []int
}

// shardPlanMsg distributes the boundary ledger (master → worker):
// the sorted rows of this worker's block that other blocks read. Every
// seed and sweep reply carries values for exactly these rows, in order.
type shardPlanMsg struct {
	RunID    int64
	Boundary []int
}

// shardPointMsg opens one s-point of a sharded run (master →
// worker); Index correlates the eventual block result. The worker
// answers with a Seq-0 delta carrying the seed's boundary values.
type shardPointMsg struct {
	RunID int64
	Index int
	S     complex128
}

// shardSweepMsg drives one sweep (master → worker): the halo values
// gathered from the other blocks, in the member's HaloCols order.
// Finish closes the converged point instead — the worker answers with
// its block of the result vector rather than a delta.
type shardSweepMsg struct {
	RunID  int64
	Seq    int
	Halo   []complex128
	Finish bool
}

// shardDeltaMsg answers a point open (Seq 0) or a sweep (worker →
// master): the block's new boundary values and its contribution to the
// global increment max-norm — the per-sweep convergence reduction.
// ComputeNS attributes the block's pure compute time so the master's
// critical-path accounting excludes wire latency.
type shardDeltaMsg struct {
	RunID     int64
	Seq       int
	Boundary  []complex128
	Norm      float64
	ComputeNS int64
	Err       string
}

// shardBlockMsg answers a finishing sweep (worker → master): the
// block's slice of the converged answer vector for point Index. Blocks
// are 1/K of one vector and travel whole — chunking, if ever needed,
// would be a protocol revision.
type shardBlockMsg struct {
	RunID     int64
	Index     int
	Data      []complex128
	ComputeNS int64
	Err       string
}

// shardEndMsg releases a worker from a sharded run (master →
// worker): the worker drops the block state. No reply travels.
type shardEndMsg struct {
	RunID int64
}

// errShardMemberLost marks a shard member whose connection failed
// mid-session — the signal for the conductor to re-shard the remaining
// workers rather than fail the run. Evaluation errors travel in Err
// fields and are never wrapped with this.
var errShardMemberLost = errors.New("pipeline: shard member lost")

// maxShardAttempts bounds how many times one s-point survives losing a
// member: the conductor rebuilds the session this many times before
// the run fails with the underlying error.
const maxShardAttempts = 3

// shardRecruitWindow is how long recruiting keeps waiting for more
// members once the first has volunteered.
const shardRecruitWindow = 500 * time.Millisecond

// shardRequest is one conductor→member message relayed by serveMember.
// A nil reply channel marks fire-and-forget messages (plan, end);
// otherwise exactly one worker message answers it. The reply channel is
// buffered so the relay never blocks on a conductor that bailed early.
type shardRequest struct {
	msg   any
	reply chan shardReply
}

type shardReply struct {
	msg any
	err error
}

// shardRecruit is an open call for shard members, matched by idle
// shard-capable connections inside nextBatch.
type shardRecruit struct {
	header  *runHeaderMsg
	need    int
	taken   map[*fleetConn]bool
	members chan *shardMemberConn
}

// shardMemberConn hands one worker connection to a shard conductor:
// requests sent on req are relayed over the wire by the connection's
// serveMember loop; done closes when the connection leaves member mode
// (release or transport failure).
type shardMemberConn struct {
	c    *fleetConn
	req  chan shardRequest
	done chan struct{}
}

// post sends a fire-and-forget message to the member.
func (smc *shardMemberConn) post(msg any) error {
	select {
	case smc.req <- shardRequest{msg: msg}:
		return nil
	case <-smc.done:
		return fmt.Errorf("%w: worker %q", errShardMemberLost, smc.c.name)
	}
}

// roundTrip sends a message and waits for the worker's reply.
func (smc *shardMemberConn) roundTrip(msg any) (any, error) {
	reply := make(chan shardReply, 1)
	select {
	case smc.req <- shardRequest{msg: msg, reply: reply}:
	case <-smc.done:
		return nil, fmt.Errorf("%w: worker %q", errShardMemberLost, smc.c.name)
	}
	select {
	case rep := <-reply:
		return rep.msg, rep.err
	case <-smc.done:
		// The reply may have been delivered just before done closed.
		select {
		case rep := <-reply:
			return rep.msg, rep.err
		default:
		}
		return nil, fmt.Errorf("%w: worker %q", errShardMemberLost, smc.c.name)
	}
}

// serveMember relays one shard membership's traffic over this worker
// connection: serveConn loops here for the life of the membership. A
// clean release (the conductor closing req) returns nil and the
// connection resumes pulling batches; a transport failure returns the
// error and the connection is torn down (the conductor sees
// errShardMemberLost and re-shards).
func (f *Fleet) serveMember(c *fleetConn, kod *fleetCodec, smc *shardMemberConn) error {
	defer close(smc.done)
	fleetShardMembers.Inc()
	defer fleetShardMembers.Dec()
	for req := range smc.req {
		c.conn.SetWriteDeadline(time.Now().Add(f.opts.IdleTimeout))
		if err := kod.send(req.msg); err != nil {
			err = fmt.Errorf("%w: worker %q: %v", errShardMemberLost, c.name, err)
			if req.reply != nil {
				req.reply <- shardReply{err: err}
			}
			return err
		}
		if req.reply == nil {
			continue
		}
		// The reply channel is buffered, so a conductor that stopped
		// reading after an error can never block the relay.
		c.conn.SetReadDeadline(time.Now().Add(f.opts.IdleTimeout))
		msg, err := kod.recv()
		if err != nil {
			err = fmt.Errorf("%w: worker %q: %v", errShardMemberLost, c.name, err)
			req.reply <- shardReply{err: err}
			return err
		}
		req.reply <- shardReply{msg: msg}
	}
	return nil
}

// remoteShardMember adapts one recruited worker connection to the
// passage.ShardMember contract, so the fleet conductor reuses
// passage.ShardSession verbatim — the same lock-step loop and
// convergence gauge the differential harness proves against the
// monolithic solver.
type remoteShardMember struct {
	smc    *shardMemberConn
	runID  int64
	name   string
	lo, hi int
	halo   []int
	seq    int
	curIdx int
	lastNS int64
}

// desync builds the lost-member error for a reply that broke protocol:
// the connection's stream position is unknown, so re-sharding without
// this worker is the only safe continuation.
func (m *remoteShardMember) desync(detail string) error {
	return fmt.Errorf("%w: worker %q answered out of protocol (%s)", errShardMemberLost, m.name, detail)
}

func (m *remoteShardMember) Range() (int, int)    { return m.lo, m.hi }
func (m *remoteShardMember) HaloColumns() []int   { return m.halo }
func (m *remoteShardMember) LastComputeNS() int64 { return m.lastNS }

func (m *remoteShardMember) SetBoundary(rows []int) error {
	return m.smc.post(shardPlanMsg{RunID: m.runID, Boundary: rows})
}

func (m *remoteShardMember) BeginPoint(s complex128) ([]complex128, error) {
	m.seq = 0
	d, err := m.delta(shardPointMsg{RunID: m.runID, Index: m.curIdx, S: s}, "point open")
	return d.Boundary, err
}

func (m *remoteShardMember) Sweep(halo []complex128) ([]complex128, float64, error) {
	m.seq++
	d, err := m.delta(shardSweepMsg{RunID: m.runID, Seq: m.seq, Halo: halo}, "sweep")
	return d.Boundary, d.Norm, err
}

// delta sends msg and validates the reply: a delta for this run at the
// current sequence number. An Err field is the worker's evaluation
// failure, not a lost member.
func (m *remoteShardMember) delta(msg any, what string) (shardDeltaMsg, error) {
	rep, err := m.smc.roundTrip(msg)
	if err != nil {
		return shardDeltaMsg{}, err
	}
	d, ok := rep.(shardDeltaMsg)
	if !ok || d.RunID != m.runID || d.Seq != m.seq {
		return shardDeltaMsg{}, m.desync(fmt.Sprintf("%T answering %s %d", rep, what, m.seq))
	}
	if d.Err != "" {
		return shardDeltaMsg{}, fmt.Errorf("worker %q: %s", m.name, d.Err)
	}
	m.lastNS = d.ComputeNS
	return d, nil
}

func (m *remoteShardMember) Finish(halo []complex128) ([]complex128, error) {
	rep, err := m.smc.roundTrip(shardSweepMsg{RunID: m.runID, Seq: m.seq + 1, Halo: halo, Finish: true})
	if err != nil {
		return nil, err
	}
	b, ok := rep.(shardBlockMsg)
	if !ok || b.RunID != m.runID {
		return nil, m.desync(fmt.Sprintf("%T answering finish", rep))
	}
	if b.Err != "" {
		return nil, fmt.Errorf("worker %q: %s", m.name, b.Err)
	}
	if b.Index != m.curIdx {
		return nil, m.desync(fmt.Sprintf("block for point %d while solving %d", b.Index, m.curIdx))
	}
	m.lastNS = b.ComputeNS
	return b.Data, nil
}

// fleetShardSession is one recruited set of workers conducting one
// sharded run: the passage session plus the wire-side handles needed
// to drive and release it. perm, set when the plan chose a non-identity
// ordering, lists the original state per planned position; the
// conductor iterates in planned space and maps each converged vector
// back before anyone else sees it.
type fleetShardSession struct {
	runID   int64
	ss      *passage.ShardSession
	members []*remoteShardMember
	smcs    []*shardMemberConn
	perm    []int
}

// solvePoint solves one s-point across the shards, tagging every
// member with the point index first so block results correlate.
func (s *fleetShardSession) solvePoint(idx int, sp complex128) ([]complex128, int, error) {
	for _, m := range s.members {
		m.curIdx = idx
	}
	v, sweeps, err := s.ss.SolvePoint(sp)
	if err == nil && s.perm != nil {
		mapped := make([]complex128, len(v))
		for pos, orig := range s.perm {
			mapped[orig] = v[pos]
		}
		v = mapped
	}
	return v, sweeps, err
}

// release ends every membership: a best-effort end message lets live
// workers drop their block state, then closing req returns their
// connections to batch duty.
func (s *fleetShardSession) release() {
	for _, smc := range s.smcs {
		smc.post(shardEndMsg{RunID: s.runID})
		close(smc.req)
	}
}

// fold accumulates the session's distributed-work counters into stats.
func (s *fleetShardSession) fold(stats *RunStats) {
	st := s.ss.Stats()
	stats.ShardSweeps += st.Sweeps
	stats.ShardExchanged += st.Exchanged
	stats.ShardComputeNS += st.ComputeNS
	stats.ShardCriticalNS += st.CriticalNS
	stats.ShardExchangeNS += st.ExchangeNS
	if len(s.members) > stats.Shards {
		stats.Shards = len(s.members)
	}
	if st.Boundary > stats.ShardBoundary {
		stats.ShardBoundary = st.Boundary
	}
	fleetShardSweeps.Add(float64(st.Sweeps))
	shardBoundaryVertices.Set(float64(st.Boundary))
	shardExchangedValues.Add(float64(st.Exchanged))
	shardExchangeSeconds.Add(float64(st.ExchangeNS) / 1e9)
	shardComputeSeconds.Add(float64(st.ComputeNS) / 1e9)
}

// finishRecruit closes an open recruit: it leaves the recruit list,
// and any member that volunteered after the conductor stopped
// collecting is released back to batch duty.
func (f *Fleet) finishRecruit(rec *shardRecruit) {
	f.mu.Lock()
	rec.need = 0
	keep := f.recruits[:0]
	for _, r := range f.recruits {
		if r != rec {
			keep = append(keep, r)
		}
	}
	f.recruits = keep
	f.mu.Unlock()
	for {
		select {
		case smc := <-rec.members:
			close(smc.req)
		default:
			return
		}
	}
}

// recruitSession enlists up to spec.ShardHint shard-capable workers and
// builds the conducting session. Every member computes the
// deterministic boundary-minimizing plan of (model, parts, targets)
// itself and reports its placement; the master — which holds no kernel
// — only validates that the placements tile the state space and
// assembles the permutation. At least one member makes a session; zero
// shard-capable workers within WaitTimeout is a readable failure (a
// WaitTimeout of zero waits indefinitely, like the batch path).
func (f *Fleet) recruitSession(spec *SolveSpec, header *runHeaderMsg) (*fleetShardSession, error) {
	want := spec.ShardHint
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, errors.New("pipeline: fleet is closed")
	}
	f.nextRun++
	runID := f.nextRun
	rec := &shardRecruit{
		header:  header,
		need:    want,
		taken:   make(map[*fleetConn]bool, want),
		members: make(chan *shardMemberConn, want),
	}
	f.recruits = append(f.recruits, rec)
	f.mu.Unlock()
	f.cond.Broadcast()
	defer f.finishRecruit(rec)

	// live holds the recruits not yet released; fail releases them all.
	live := make(map[*shardMemberConn]bool, want)
	release := func(smc *shardMemberConn) {
		smc.post(shardEndMsg{RunID: runID})
		close(smc.req)
		delete(live, smc)
	}
	fail := func(err error) (*fleetShardSession, error) {
		for smc := range live {
			release(smc)
		}
		return nil, err
	}
	// A nil deadline channel waits indefinitely for the first member.
	var deadlineC <-chan time.Time
	if f.opts.WaitTimeout > 0 {
		deadline := time.NewTimer(f.opts.WaitTimeout)
		defer deadline.Stop()
		deadlineC = deadline.C
	}
	var smcs []*shardMemberConn
collect:
	for len(smcs) < want {
		var window <-chan time.Time
		if len(smcs) > 0 {
			window = time.After(shardRecruitWindow)
		}
		select {
		case smc := <-rec.members:
			smcs = append(smcs, smc)
			live[smc] = true
		case <-window:
			break collect
		case <-deadlineC:
			if len(smcs) > 0 {
				break collect
			}
			return fail(fmt.Errorf("pipeline: no shard-capable worker holds model %q after %v: sharded solves need hydra-worker processes whose model can be sharded",
				spec.ModelFP, f.opts.WaitTimeout))
		case <-f.closedCh:
			return fail(errors.New("pipeline: fleet closed while recruiting shard members"))
		}
	}

	parts := len(smcs)
	type placed struct {
		smc   *shardMemberConn
		ready shardReadyMsg
	}
	var placements []placed
	for w, smc := range smcs {
		rep, err := smc.roundTrip(shardStartMsg{RunID: runID, Header: header, Parts: parts, Part: w})
		if err != nil {
			return fail(err)
		}
		ready, ok := rep.(shardReadyMsg)
		if !ok || ready.RunID != runID {
			return fail(fmt.Errorf("%w: worker %q answered shard start with %T", errShardMemberLost, smc.c.name, rep))
		}
		if ready.Err != "" {
			return fail(fmt.Errorf("pipeline: worker %q cannot host block %d/%d of model %q: %s",
				smc.c.name, w, parts, spec.ModelFP, ready.Err))
		}
		if ready.Lo == ready.Hi {
			// Surplus part: the plan yielded fewer blocks than workers.
			release(smc)
			continue
		}
		placements = append(placements, placed{smc: smc, ready: ready})
	}
	if len(placements) == 0 {
		return fail(fmt.Errorf("pipeline: planned shard recruiting of model %q produced no blocks", spec.ModelFP))
	}
	sort.Slice(placements, func(i, j int) bool { return placements[i].ready.Lo < placements[j].ready.Lo })

	// The workers computed their plans independently; a divergence (a
	// version skew, a corrupted model) must fail loudly here, not as a
	// silently wrong answer.
	n := spec.ModelStates
	permuted := placements[0].ready.PermRows != nil
	pos := 0
	var perm []int
	if permuted {
		perm = make([]int, 0, n)
	}
	for _, p := range placements {
		if p.ready.Lo != pos || p.ready.Hi <= p.ready.Lo || p.ready.Hi > n {
			return fail(fmt.Errorf("pipeline: planned shard placements do not tile model %q (gap at position %d)", spec.ModelFP, pos))
		}
		if (p.ready.PermRows != nil) != permuted || (permuted && len(p.ready.PermRows) != p.ready.Hi-p.ready.Lo) {
			return fail(fmt.Errorf("pipeline: worker %q answered an inconsistent planned ordering for model %q", p.smc.c.name, spec.ModelFP))
		}
		pos = p.ready.Hi
		if permuted {
			perm = append(perm, p.ready.PermRows...)
		}
	}
	if pos != n {
		return fail(fmt.Errorf("pipeline: planned shard placements cover %d of %d states of model %q", pos, n, spec.ModelFP))
	}
	if permuted {
		seen := make([]bool, n)
		for _, orig := range perm {
			if orig < 0 || orig >= n || seen[orig] {
				return fail(fmt.Errorf("pipeline: planned shard ordering of model %q is not a permutation", spec.ModelFP))
			}
			seen[orig] = true
		}
	}

	members := make([]*remoteShardMember, len(placements))
	ifaces := make([]passage.ShardMember, len(placements))
	keep := make([]*shardMemberConn, len(placements))
	for w, p := range placements {
		members[w] = &remoteShardMember{
			smc: p.smc, runID: runID, name: p.smc.c.name,
			lo: p.ready.Lo, hi: p.ready.Hi, halo: p.ready.HaloCols,
		}
		ifaces[w] = members[w]
		keep[w] = p.smc
	}
	// The conductor judges convergence with the solver defaults, as the
	// in-process and batch routes do.
	ss, err := passage.NewShardSession(n, ifaces, passage.Options{})
	if err != nil {
		return fail(err)
	}
	fleetShardSessions.Inc()
	return &fleetShardSession{runID: runID, ss: ss, members: members, smcs: keep, perm: perm}, nil
}

// executeSharded is Execute's sharded path: instead of farming whole
// s-points to workers, each s-point is solved once across a recruited
// set of workers, each holding one row block of the kernel. Points run
// sequentially in index order, each by the cold series. A member lost
// mid-session triggers a re-shard over the surviving workers (the
// in-flight point restarts); an evaluation error is a *PointError,
// exactly as on the batch path.
func (f *Fleet) executeSharded(spec *SolveSpec, cache Cache) ([][]complex128, *RunStats, error) {
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

	header := &runHeaderMsg{
		Name:        spec.Name,
		ModelFP:     spec.ModelFP,
		ModelStates: spec.ModelStates,
		Quantity:    spec.Quantity,
		Targets:     spec.Targets,
		TraceID:     spec.TraceID,
	}
	span := obs.DefaultTracer.StartSpan(spec.TraceID, "fleet.shard").
		SetAttr("spec", spec.Name).SetAttr("points", strconv.Itoa(len(pending))).
		SetAttr("shard_hint", strconv.Itoa(spec.ShardHint)).SetAttr("strategy", "planned")
	defer span.End()

	var sess *fleetShardSession
	defer func() {
		if sess != nil {
			sess.fold(stats)
			sess.release()
		}
		// Runs before the deferred span.End: the exchange/compute split,
		// measurable per solve without scraping /metrics.
		span.SetAttr("boundary_vertices", strconv.Itoa(stats.ShardBoundary)).
			SetAttr("exchanged_values", strconv.FormatInt(stats.ShardExchanged, 10)).
			SetAttr("exchange_seconds", strconv.FormatFloat(float64(stats.ShardExchangeNS)/1e9, 'g', 6, 64)).
			SetAttr("compute_seconds", strconv.FormatFloat(float64(stats.ShardComputeNS)/1e9, 'g', 6, 64))
	}()
	perWorker := make(map[string]int)
	attempts := 0
	var firstErr error
solve:
	for _, idx := range pending {
		for {
			if sess == nil {
				s2, err := f.recruitSession(spec, header)
				if err != nil {
					// A worker that died while idle is only discovered when
					// recruiting writes to its connection, so member loss
					// during recruit spends a re-shard attempt exactly like
					// loss mid-solve (the dead connection is torn down by the
					// failed exchange, so the retry recruits only survivors).
					if errors.Is(err, errShardMemberLost) && attempts < maxShardAttempts {
						attempts++
						stats.Resharded++
						fleetShardReshards.Inc()
						f.logf("pipeline: sharded run %q lost a member while recruiting (%v); retrying (attempt %d/%d)",
							spec.Name, err, attempts, maxShardAttempts)
						continue
					}
					firstErr = err
					break solve
				}
				sess = s2
			}
			vec, sweeps, err := sess.solvePoint(idx, spec.Points[idx])
			if err == nil {
				attempts = 0
				if spec.Quantity == PassageCDF {
					for i := range vec {
						vec[i] /= spec.Points[idx]
					}
				}
				values[idx] = vec
				have[idx] = true
				stats.Evaluated++
				stats.TotalDepth += int64(sweeps)
				for _, m := range sess.members {
					perWorker[m.name]++
				}
				if cache != nil {
					if err := cache.Append(spec, idx, vec); err != nil {
						firstErr = err
						break solve
					}
				}
				break
			}
			if errors.Is(err, errShardMemberLost) && attempts < maxShardAttempts {
				attempts++
				stats.Resharded++
				fleetShardReshards.Inc()
				f.logf("pipeline: sharded run %q lost a member (%v); re-sharding (attempt %d/%d)",
					spec.Name, err, attempts, maxShardAttempts)
				sess.fold(stats)
				sess.release()
				sess = nil
				continue
			}
			firstErr = &PointError{Worker: "shard", Index: idx, Msg: err.Error()}
			break solve
		}
	}
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
	stats.WallTime = time.Since(start)
	return values, stats, nil
}
