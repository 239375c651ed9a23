package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"hydra"
	"hydra/benchmark/specs"
	"hydra/internal/obs"
	"hydra/internal/passage"
)

const fleetWorkers = 2

// loopbackFleet is a resident fleet master with in-process workers over
// loopback TCP — hydra.NewFleet and Model.RunWorkerWith, not the
// one-shot ServeMaster path.
type loopbackFleet struct {
	fleet *hydra.Fleet
	wg    sync.WaitGroup
	errs  []error
}

func startFleet(m *hydra.Model, workers int) (*loopbackFleet, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lf := &loopbackFleet{fleet: hydra.NewFleet(ln, hydra.FleetOptions{}), errs: make([]error, workers)}
	for i := 0; i < workers; i++ {
		lf.wg.Add(1)
		go func(i int) {
			defer lf.wg.Done()
			lf.errs[i] = m.RunWorkerWith(ln.Addr().String(), hydra.WorkerOptions{Name: fmt.Sprintf("w%d", i)}, nil)
		}(i)
	}
	for deadline := time.Now().Add(30 * time.Second); len(lf.fleet.Snapshot().Connected) < workers; {
		if time.Now().After(deadline) {
			lf.stop()
			return nil, fmt.Errorf("only %d of %d workers joined the fleet", len(lf.fleet.Snapshot().Connected), workers)
		}
		time.Sleep(time.Millisecond)
	}
	return lf, nil
}

// stop closes the master, which dismisses the workers, waits for them,
// and returns the first worker error.
func (lf *loopbackFleet) stop() error {
	lf.fleet.Close()
	lf.wg.Wait()
	for _, err := range lf.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fleetWork is a density curve solved on a 2-worker loopback fleet:
// point-farmed with a master checkpoint file (farm-8k) or sharded into
// row blocks (shard-106k).
type fleetWork struct {
	r          *Run
	size       specs.Voting
	tPoints    int
	shard      int
	checkpoint bool

	v     *votingModel
	call  curveCall
	lf    *loopbackFleet
	fresh bool // lf has served no repetition yet

	last      curveOut
	lastWall  time.Duration
	ckptPath  string
	ckptBytes int64
	batches   float64 // traced repetition: assignments sent
	batchSecs float64 // traced repetition: summed assignment round trips
	refWall   time.Duration
}

func (f *fleetWork) Setup() error {
	v, err := buildVoting(f.r.Trace, f.size)
	if err != nil {
		return err
	}
	f.v = v
	rng := specs.NewRand(f.r.Seed, 1)
	if f.tPoints == 1 {
		f.call = curveCall{kind: "density", times: []float64{specs.Jitter(rng, v.mean, 0.02)}}
	} else {
		f.call = curveCall{kind: "density", times: specs.Grid(rng, 0.3*v.mean, v.mean+3*v.sd, f.tPoints, 0.10)}
	}
	end := f.r.Trace.Begin("fleet.connect")
	err = f.connect()
	end()
	if err != nil {
		return err
	}
	if f.shard > 1 {
		// Workers derive their blocks from this memoized plan; computing
		// it here keeps shard planning in set-up, where a resident fleet
		// pays it once.
		end := f.r.Trace.Begin("passage.PlanShardBlocks")
		passage.PlanShardBlocks(v.m.SMP(), f.shard, v.targets)
		end()
	}
	return nil
}

func (f *fleetWork) connect() error {
	f.Close()
	lf, err := startFleet(f.v.m, fleetWorkers)
	if err != nil {
		return err
	}
	f.lf, f.fresh = lf, true
	return nil
}

func (f *fleetWork) Close() {
	if f.lf != nil {
		if err := f.lf.stop(); err != nil {
			f.r.Check(false, "fleet worker: %v", err)
		}
		f.lf = nil
	}
}

func (f *fleetWork) Rep(tr *Tracer) (Rep, error) {
	// Fresh caches: workers keep prepared solver state per connection,
	// so every repetition gets new workers and a new checkpoint file.
	if !f.fresh {
		if err := f.connect(); err != nil {
			return Rep{}, err
		}
	}
	f.fresh = false
	opts := &hydra.Options{Backend: f.lf.fleet, Shard: f.shard}
	if f.checkpoint {
		dir, err := f.r.Scratch()
		if err != nil {
			return Rep{}, err
		}
		if f.ckptPath != "" {
			os.Remove(f.ckptPath)
		}
		f.ckptPath = filepath.Join(dir, "master.ckpt")
		opts.CheckpointPath = f.ckptPath
	}
	var before fleetBatches
	if tr != nil {
		before = scrapeFleetBatches()
	}
	t0 := time.Now()
	out, err := runCall(tr, f.v, f.call, opts)
	wall := time.Since(t0)
	if err != nil {
		return Rep{}, err
	}
	if tr != nil {
		after := scrapeFleetBatches()
		f.batches, f.batchSecs = after.count-before.count, after.sum-before.sum
	}
	if f.checkpoint {
		if st, err := os.Stat(f.ckptPath); err == nil {
			f.ckptBytes = st.Size()
		}
	}
	f.last, f.lastWall = out, wall
	return Rep{Wall: wall, Work: float64(out.run.Stats.Evaluated)}, nil
}

func (f *fleetWork) Verify() {
	r := f.r
	st := f.last.run.Stats
	r.Check(st.Requeued == 0, "fleet requeued %d points with no worker lost", st.Requeued)
	if f.shard > 1 {
		r.Check(st.Shards == f.shard, "solve ran on %d shards, want %d", st.Shards, f.shard)
	}
	checkPoints(r, f.v, f.last, specs.NewRand(r.Seed, 2), 4)

	// Check (3): the in-process curve of the same spec. The traced pass
	// runs it on one worker, which is also the mono arm of the fleet
	// efficiency and shard speed-up ratios.
	workers := fleetWorkers
	if r.Layer != nil {
		workers = 1
	}
	t0 := time.Now()
	ref, err := f.v.m.PassageDensity(f.v.sources, f.v.targets, f.call.times, &hydra.Options{Workers: workers})
	f.refWall = time.Since(t0)
	if r.Op(err, "in-process reference curve") {
		checkSameCurve(r, "fleet", f.last.result.Values, ref.Values)
	}
}

func (f *fleetWork) Layers() {
	r, v, st := f.r, f.v, f.last.run.Stats
	v.setFrontEndLayers(r)
	setSweeps(r, st)
	probeFrontEnd(r, v, false)
	probeKernel(r, v, f.last.run.Spec.Points)
	probeInverter(r, f.last)
	// A ratio of walls is a speed-up only when the workers had a core each.
	measured := fleetWorkers <= runtime.NumCPU()

	if f.shard > 1 {
		r.Set("pipeline.shard.compute_s", time.Duration(st.ShardComputeNS).Seconds())
		r.Set("pipeline.shard.exchange_s", time.Duration(st.ShardExchangeNS).Seconds())
		r.Set("pipeline.shard.exchanged_values", float64(st.ShardExchanged))
		r.Set("pipeline.shard.sweeps", float64(st.ShardSweeps))
		if measured {
			r.Set("pipeline.shard.speedup_vs_mono", f.refWall.Seconds()/f.lastWall.Seconds())
		}
		probePartition(r, v, f.shard)
		return
	}

	r.Set("pipeline.fleet.batches", f.batches)
	if f.batches > 0 {
		r.Set("pipeline.fleet.batch_rtt_ms_mean", f.batchSecs/f.batches*1e3)
	}
	r.Set("pipeline.fleet.requeued", float64(st.Requeued))
	r.Set("pipeline.fleet.wire_mb", float64(st.Evaluated)*float64(v.m.NumStates())*16/(1<<20))
	if measured {
		r.Set("pipeline.fleet.efficiency", f.refWall.Seconds()/(fleetWorkers*f.lastWall.Seconds()))
	}
	if f.checkpoint && f.ckptBytes > 0 {
		r.Set("pipeline.checkpoint.write_mb_per_s", float64(f.ckptBytes)/(1<<20)/f.lastWall.Seconds())
		r.Set("pipeline.checkpoint.bytes_per_point", float64(f.ckptBytes)/float64(max(st.Evaluated, 1)))
		end := r.Trace.Begin("pipeline.checkpoint.replay")
		t0 := time.Now()
		replay, err := v.m.RunSpec(f.last.job.Spec(), nil, &hydra.Options{CheckpointPath: f.ckptPath})
		d := time.Since(t0)
		end()
		if r.Op(err, "checkpoint replay") {
			r.Check(replay.Stats.Evaluated == 0 && replay.Stats.FromCache == len(f.last.run.Spec.Points),
				"checkpoint replay evaluated %d points and restored %d of %d", replay.Stats.Evaluated, replay.Stats.FromCache, len(f.last.run.Spec.Points))
			r.Set("pipeline.checkpoint.replay_s", d.Seconds())
		}
	}
}

// fleetBatches is the master's assignment round-trip histogram, summed
// over workers.
type fleetBatches struct{ count, sum float64 }

// scrapeFleetBatches reads hydra_fleet_batch_duration_seconds from the
// process-wide registry's text exposition, as a /metrics scrape would.
func scrapeFleetBatches() fleetBatches {
	var buf bytes.Buffer
	if _, err := obs.Default.WriteTo(&buf); err != nil {
		return fleetBatches{}
	}
	return fleetBatches{
		count: scrapeSum(buf.String(), "hydra_fleet_batch_duration_seconds_count"),
		sum:   scrapeSum(buf.String(), "hydra_fleet_batch_duration_seconds_sum"),
	}
}

// scrapeSum adds up every sample of one metric name (any label set) in
// Prometheus text format.
func scrapeSum(text, name string) float64 {
	var total float64
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, name)
		if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		if i := strings.LastIndexByte(rest, ' '); i >= 0 {
			if v, err := strconv.ParseFloat(rest[i+1:], 64); err == nil {
				total += v
			}
		}
	}
	return total
}

func newFarm8k(r *Run) workload {
	f := &fleetWork{r: r, size: specs.Farm8k, tPoints: 8, checkpoint: true}
	if r.Tiny {
		f.size, f.tPoints = specs.Tiny, 2
	}
	return f
}

func newShard106k(r *Run) workload {
	f := &fleetWork{r: r, size: specs.System1, tPoints: 1, shard: fleetWorkers}
	if r.Tiny {
		f.size = specs.Tiny
	}
	return f
}
