package pipeline

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// RunStats reports what a run did — used by the Table 2 reproduction.
type RunStats struct {
	Evaluated   int           // s-points computed this run
	FromCache   int           // s-points restored from the checkpoint
	Workers     int           // worker count
	WallTime    time.Duration // total time inside Run
	PerWorker   []int         // evaluations per worker
	WorkerNames []string      // names aligned with PerWorker (fleet runs)
	Requeued    int           // points reassigned after a worker loss (fleet runs)
	TotalDepth  int64         // summed iteration depths (0 if unknown)
	WarmStarted int           // solves seeded from a neighbouring s-point (WarmStart on)
	SweepsSaved int64         // estimated sweeps avoided by warm starts (0 if unknown)
	// Sharded-run counters: zero on batch and in-process runs.
	Shards          int   // row blocks the kernel was split into (max across sessions)
	Resharded       int   // sessions rebuilt after losing a shard member
	ShardSweeps     int64 // distributed sweeps, one halo exchange each
	ShardExchanged  int64 // complex boundary/halo values moved between blocks
	ShardComputeNS  int64 // summed member compute time (ns)
	ShardCriticalNS int64 // per-sweep max member compute, summed (ns) — the sharded critical path
	ShardExchangeNS int64 // per-round wall beyond the slowest member's compute, summed (ns) — the exchange tax
	ShardBoundary   int   // boundary vertices whose values cross blocks per exchange (max across sessions)
	// Phases attributes the run's evaluator time: summed across
	// workers, keyed "kernel_fill" and "solve" here, with the read-time
	// "invert" phase added by callers that run the inverter. Summed CPU
	// time, not wall time — with W workers it can exceed WallTime.
	Phases map[string]time.Duration
}

// Canonical phase names: the solver-side split reported by backends
// plus the read-time inversion added by ReadRun callers.
const (
	PhaseKernelFill = "kernel_fill"
	PhaseSolve      = "solve"
	PhaseInvert     = "invert"
)

// AddPhase accumulates d into the named phase (no-op for d <= 0).
func (s *RunStats) AddPhase(name string, d time.Duration) {
	if d <= 0 {
		return
	}
	if s.Phases == nil {
		s.Phases = make(map[string]time.Duration)
	}
	s.Phases[name] += d
}

// Merge folds another run's counters into s — used by searches (e.g. a
// quantile bisection) that aggregate many pipeline runs into one
// reported stat. Per-worker tallies merge by name when both sides carry
// names (or are empty); when either side holds anonymous tallies the
// merge falls back to by-index and drops the names, so the per-worker
// counts always sum to Evaluated regardless of which backends produced
// the runs.
func (s *RunStats) Merge(o *RunStats) {
	if o == nil {
		return
	}
	s.Evaluated += o.Evaluated
	s.FromCache += o.FromCache
	s.WallTime += o.WallTime
	s.Requeued += o.Requeued
	s.TotalDepth += o.TotalDepth
	s.WarmStarted += o.WarmStarted
	s.SweepsSaved += o.SweepsSaved
	s.Resharded += o.Resharded
	s.ShardSweeps += o.ShardSweeps
	s.ShardExchanged += o.ShardExchanged
	s.ShardComputeNS += o.ShardComputeNS
	s.ShardCriticalNS += o.ShardCriticalNS
	s.ShardExchangeNS += o.ShardExchangeNS
	if o.Shards > s.Shards {
		s.Shards = o.Shards
	}
	if o.ShardBoundary > s.ShardBoundary {
		s.ShardBoundary = o.ShardBoundary
	}
	for name, d := range o.Phases {
		s.AddPhase(name, d)
	}
	if len(o.PerWorker) == 0 {
		if o.Workers > s.Workers {
			s.Workers = o.Workers
		}
		return
	}
	sNamed := len(s.WorkerNames) == len(s.PerWorker)
	oNamed := len(o.WorkerNames) == len(o.PerWorker)
	if sNamed && oNamed && len(o.WorkerNames) > 0 {
		byName := make(map[string]int, len(s.WorkerNames))
		for i, name := range s.WorkerNames {
			byName[name] = s.PerWorker[i]
		}
		for i, name := range o.WorkerNames {
			byName[name] += o.PerWorker[i]
		}
		names := make([]string, 0, len(byName))
		for name := range byName {
			names = append(names, name)
		}
		sort.Strings(names)
		s.WorkerNames = names
		s.PerWorker = make([]int, len(names))
		for i, name := range names {
			s.PerWorker[i] = byName[name]
		}
		s.Workers = len(names)
		return
	}
	s.WorkerNames = nil
	for i, n := range o.PerWorker {
		if i < len(s.PerWorker) {
			s.PerWorker[i] += n
		} else {
			s.PerWorker = append(s.PerWorker, n)
		}
	}
	if o.Workers > s.Workers {
		s.Workers = o.Workers
	}
}

// Run evaluates every s-point of the spec with an in-process worker
// pool, mirroring the master/worker split: the master goroutine owns
// the queue and the cache, each worker owns one Evaluator (its own
// kernel matrices), and vector results stream back over a channel.
//
// newEval is called once per worker; cache may be nil for an uncached
// run (a *Checkpoint, a *MemoryCache or a *Tiered all satisfy Cache).
func Run(spec *SolveSpec, newEval func() Evaluator, workers int, cache Cache) ([][]complex128, *RunStats, error) {
	if workers < 1 {
		return nil, nil, fmt.Errorf("pipeline: need at least one worker")
	}
	start := time.Now()
	values := make([][]complex128, len(spec.Points))
	have := make([]bool, len(spec.Points))
	stats := &RunStats{Workers: workers, PerWorker: make([]int, workers)}

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

	type result struct {
		idx    int
		worker int
		v      []complex128
		err    error
		fill   time.Duration
		solve  time.Duration
		depth  int
		warm   bool
		saved  int
	}
	// Work travels as contiguous contour segments, not single indices:
	// a worker that owns a whole run of neighbouring s-points reuses its
	// prepared model across them and can warm-start each solve from the
	// previous point's solution. Results still stream back per point.
	work := make(chan []int)
	results := make(chan result)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			eval := newEval()
			reporter, _ := eval.(PhaseReporter)
			warmer, _ := eval.(WarmReporter)
			for seg := range work {
				for _, idx := range seg {
					v, err := eval.EvaluateVector(spec.Points[idx], spec)
					r := result{idx: idx, worker: w, v: v, err: err}
					if reporter != nil {
						r.fill, r.solve, r.depth = reporter.LastPhases()
					}
					if warmer != nil {
						r.warm, r.saved = warmer.LastWarmStart()
					}
					results <- r
				}
			}
		}(w)
	}
	go func() {
		for _, seg := range contourSegments(spec, have, workers) {
			work <- seg
		}
		close(work)
		wg.Wait()
		close(results)
	}()

	var firstErr error
	for r := range results {
		if r.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("pipeline: point %d (s=%v): %w", r.idx, spec.Points[r.idx], r.err)
			}
			continue
		}
		values[r.idx] = r.v
		have[r.idx] = true
		stats.Evaluated++
		stats.PerWorker[r.worker]++
		stats.AddPhase(PhaseKernelFill, r.fill)
		stats.AddPhase(PhaseSolve, r.solve)
		stats.TotalDepth += int64(r.depth)
		if r.warm {
			stats.WarmStarted++
			stats.SweepsSaved += int64(r.saved)
		}
		if cache != nil {
			if err := cache.Append(spec, r.idx, r.v); err != nil && firstErr == nil {
				firstErr = err
			}
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
	for idx, ok := range have {
		if !ok {
			return nil, nil, fmt.Errorf("pipeline: point %d never computed", idx)
		}
	}
	stats.WallTime = time.Since(start)
	return values, stats, nil
}

// contourSegments groups the spec's pending point indices into
// contiguous runs for segment dispatch. Segments are capped at the
// spec's SegmentHint (one t-point's contour block; 8 when unknown) and
// never straddle a block boundary — the s-value jumps between blocks,
// so a warm iterate carried across one would seed from a non-neighbour.
// The cap also shrinks to the workers' fair share so a short run still
// keeps the whole pool busy.
func contourSegments(spec *SolveSpec, have []bool, workers int) [][]int {
	pending := 0
	for _, ok := range have {
		if !ok {
			pending++
		}
	}
	if pending == 0 {
		return nil
	}
	hint := spec.SegmentHint
	segCap := hint
	if segCap <= 0 {
		segCap = 8
	}
	if fair := (pending + workers - 1) / workers; fair < segCap {
		segCap = fair
	}
	if segCap < 1 {
		segCap = 1
	}
	var segs [][]int
	var seg []int
	flush := func() {
		if len(seg) > 0 {
			segs = append(segs, seg)
			seg = nil
		}
	}
	for idx := range spec.Points {
		if have[idx] {
			flush()
			continue
		}
		if len(seg) >= segCap || (hint > 0 && idx%hint == 0) {
			flush()
		}
		seg = append(seg, idx)
	}
	flush()
	return segs
}
