package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hydra"
	"hydra/benchmark/specs"
	"hydra/internal/server"
)

const (
	serveClients = 2 // closed loop: each client waits for its reply
	// serveRelTol is how closely an HTTP answer must match the library's
	// answer to the same request. The oracle solves with the server's
	// own options (one worker, warm starts), so the two walk each contour
	// in the same order; a different worker count would move deep-tail
	// quantiles by ~1e-6 through the warm-start order alone.
	serveRelTol = 1e-6
)

// wireRequest is a generated request rendered for the wire.
type wireRequest struct {
	specs.Request
	path string
	body []byte
}

// reply is what a client kept of one response.
type reply struct {
	ms     float64
	status int
	body   []byte
	err    error
}

// serve is the served-path workload: an in-process server behind
// httptest, the 2,061-state model uploaded with its quantile surface
// prewarmed, and a seeded closed-loop mix of resident hits, result-cache
// hits and cold misses from two clients.
type serve struct {
	r    *Run
	size specs.Voting
	mix  specs.MixConfig

	v       *votingModel
	reqs    []wireRequest
	pool    [][]float64
	srv     *server.Server
	ts      *httptest.Server
	client  *http.Client
	modelID string
	uploadS float64
	fresh   bool
	replies []reply
}

var serveSourceSets = [][]int{{0}, {1}, {0, 1}, {2}, {0, 1, 2}}

func (s *serve) Setup() error {
	s.Close()
	v, err := buildVoting(s.r.Trace, s.size)
	if err != nil {
		return err
	}
	s.v = v
	if s.reqs == nil {
		if err := s.generate(); err != nil {
			return err
		}
	}
	return s.start(s.r.Trace)
}

// generate draws the request stream from the seed and renders it; it
// depends on the model only through the target set and the mean.
func (s *serve) generate() error {
	cfg := s.mix
	cfg.SourceSets, cfg.Mean = serveSourceSets, s.v.mean
	reqs, pool := specs.Mix(specs.NewRand(s.r.Seed, 1), cfg)
	s.pool = pool
	s.reqs = make([]wireRequest, len(reqs))
	for i, q := range reqs {
		w := wireRequest{Request: q}
		var body map[string]any
		switch q.Class {
		case specs.ClassHit:
			queries := make([]map[string]any, len(q.Levels))
			for k, p := range q.Levels {
				queries[k] = map[string]any{"sources": q.Sources, "p": p}
			}
			w.path, body = "/quantile", map[string]any{"targets": s.v.targets, "queries": queries}
		case specs.ClassCached:
			w.path, body = "/passage", map[string]any{"sources": q.Sources, "targets": s.v.targets, "times": q.Times, "cdf": true}
		case specs.ClassMiss:
			w.path, body = "/passage", map[string]any{"sources": q.Sources, "targets": s.v.targets, "times": q.Times}
		}
		var err error
		if w.body, err = json.Marshal(body); err != nil {
			return err
		}
		s.reqs[i] = w
	}
	return nil
}

// start brings up a fresh server, uploads the model with its surface
// prewarm, and waits until the surface is resident.
func (s *serve) start(tr *Tracer) error {
	end := tr.Begin("server.New")
	// One solver goroutine per computation, two computations at once:
	// with two clients that is at most two busy goroutines.
	srv, err := server.New(server.Config{Workers: 1, MaxConcurrent: serveClients})
	end()
	if err != nil {
		return err
	}
	s.srv = srv
	s.ts = httptest.NewServer(srv.Handler())
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, MaxConnsPerHost: serveClients}}

	upload, err := json.Marshal(map[string]any{
		"voting_config": map[string]int{"cc": s.size.CC, "mm": s.size.MM, "nn": s.size.NN},
		"prewarm":       []map[string]any{{"targets": s.v.targets}},
	})
	if err != nil {
		return err
	}
	end = tr.Begin("server.upload")
	t0 := time.Now()
	rep := s.do(http.MethodPost, "/v1/models", upload)
	s.uploadS = time.Since(t0).Seconds()
	end()
	if rep.err != nil || rep.status != http.StatusCreated {
		return fmt.Errorf("model upload: HTTP %d %s %v", rep.status, rep.body, rep.err)
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rep.body, &info); err != nil {
		return err
	}
	s.modelID = info.ID
	end = tr.Begin("server.prewarm")
	defer end()
	for deadline := time.Now().Add(2 * time.Minute); srv.Scheduler().Stats().SurfaceBuilds == 0; {
		if time.Now().After(deadline) {
			return fmt.Errorf("surface prewarm never completed")
		}
		time.Sleep(time.Millisecond)
	}
	s.fresh = true
	return nil
}

func (s *serve) Close() {
	if s.ts != nil {
		s.client.CloseIdleConnections()
		s.ts.Close()
		s.srv.Close()
		s.ts, s.srv = nil, nil
	}
}

// do sends one request and reads the whole reply.
func (s *serve) do(method, path string, body []byte) reply {
	t0 := time.Now()
	req, err := http.NewRequest(method, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return reply{err: err, ms: time.Since(t0).Seconds() * 1e3}
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	return reply{ms: time.Since(t0).Seconds() * 1e3, status: resp.StatusCode, body: buf, err: err}
}

func (s *serve) Rep(tr *Tracer) (Rep, error) {
	if !s.fresh {
		s.Close()
		if err := s.start(tr); err != nil {
			return Rep{}, err
		}
	}
	s.fresh = false
	replies := make([]reply, len(s.reqs))
	prefix := "/v1/models/" + s.modelID
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.reqs) {
					return
				}
				replies[i] = s.do(http.MethodPost, prefix+s.reqs[i].path, s.reqs[i].body)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)

	lats := make([]float64, len(replies))
	for i, rep := range replies {
		lats[i] = rep.ms
		// Every request is one attempted operation; anything but a 2xx
		// reply fails it.
		if rep.err != nil || rep.status/100 != 2 {
			s.r.Check(false, "request %d (%s): HTTP %d %v %.200s", i, s.reqs[i].Class, rep.status, rep.err, rep.body)
		} else {
			s.r.Check(true, "")
		}
	}
	s.replies = replies
	return Rep{Wall: wall, Work: float64(len(replies)), Latencies: lats}, nil
}

// jobReply is the part of a /v1 job record the oracles read.
type jobReply struct {
	Result *struct {
		Values    []float64 `json:"values"`
		Quantiles []float64 `json:"quantiles"`
	} `json:"result"`
}

// sameValues reports whether got matches want to serveRelTol of the
// larger magnitude (absolute near zero).
func sameValues(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		tol := serveRelTol * max(1, math.Abs(want[i]))
		if !(math.Abs(got[i]-want[i]) <= tol) {
			return false
		}
	}
	return true
}

// libraryOptions are the options the server's scheduler solves with.
func libraryOptions() *hydra.Options {
	opts := &hydra.Options{Method: "euler", Workers: 1}
	opts.Solver.WarmStart = true
	return opts
}

// Verify is check (5): every reply equals the library's answer to the
// same request, and the surface agrees with a bisection search.
func (s *serve) Verify() {
	r, v := s.r, s.v
	opts := libraryOptions()
	end := r.Trace.Begin("hydra.PassageSurface")
	t0 := time.Now()
	surf, err := v.m.PassageSurface("bench-surface", v.targets, nil, opts)
	buildS := time.Since(t0).Seconds()
	end()
	if !r.Op(err, "library surface") {
		return
	}
	r.Set("surface.build_s", buildS)
	r.Set("surface.solves", float64(surf.Solves()))
	r.Set("surface.grid_points", float64(len(surf.Times())))
	rng := specs.NewRand(r.Seed, 3)
	s.checkReplies(surf, opts, rng)
	s.checkSurface(surf, opts, rng)
}

// checkReplies compares all hits with the surface built here, all
// pooled CDF replies with one library solve per grid, and a seeded tenth
// of the misses with their own library solves (each costs what the miss
// did).
func (s *serve) checkReplies(surf *hydra.Surface, opts *hydra.Options, rng *rand.Rand) {
	r, v := s.r, s.v
	cdf := make([][]*hydra.Result, len(s.pool)) // per pooled grid, one curve per source set
	for i, rep := range s.replies {
		if rep.err != nil || rep.status/100 != 2 {
			continue // already counted as a failed operation
		}
		q := s.reqs[i]
		if q.Class == specs.ClassMiss && rng.IntN(10) != 0 {
			continue
		}
		var got jobReply
		if err := json.Unmarshal(rep.body, &got); err != nil || got.Result == nil {
			r.Check(false, "request %d (%s): unreadable reply %.200s", i, q.Class, rep.body)
			continue
		}
		var have, want []float64
		var err error
		switch q.Class {
		case specs.ClassHit:
			have, want = got.Result.Quantiles, make([]float64, len(q.Levels))
			for k, p := range q.Levels {
				if want[k], err = surf.Quantile(q.Sources, p); err != nil {
					break
				}
			}
		case specs.ClassCached:
			have = got.Result.Values
			if cdf[q.Pool] == nil {
				cdf[q.Pool], err = v.m.PassageCDFMulti(serveSourceSets, v.targets, q.Times, opts)
			}
			if err == nil {
				want = cdf[q.Pool][q.Set].Values
			}
		case specs.ClassMiss:
			have = got.Result.Values
			var res *hydra.Result
			if res, err = v.m.PassageDensity(q.Sources, v.targets, q.Times, opts); err == nil {
				want = res.Values
			}
		}
		r.Check(err == nil && sameValues(have, want), "request %d (%s): reply %v, library answer %v %v (contract %.0e relative)", i, q.Class, have, want, err, serveRelTol)
	}
}

// checkSurface compares one surface read, at a seeded level and source
// set, with a bisection search for the same quantile, and times both.
func (s *serve) checkSurface(surf *hydra.Surface, opts *hydra.Options, rng *rand.Rand) {
	r, v := s.r, s.v
	p := []float64{0.5, 0.9, 0.95, 0.99}[rng.IntN(4)]
	src := serveSourceSets[rng.IntN(len(serveSourceSets))]
	fromSurface, err := surf.Quantile(src, p)
	if !r.Op(err, "Surface.Quantile") {
		return
	}
	const reads = 20000
	t0 := time.Now()
	for i := 0; i < reads; i++ {
		surf.Quantile(src, p)
	}
	r.Set("surface.read_ns", float64(time.Since(t0).Nanoseconds())/reads)
	end := r.Trace.Begin("hydra.PassageQuantile")
	t0 = time.Now()
	bisected, err := v.m.PassageQuantile(src, v.targets, p, v.mean, opts)
	r.Set("surface.bisect_s", time.Since(t0).Seconds())
	end()
	if r.Op(err, "PassageQuantile") {
		rel := math.Abs(fromSurface-bisected) / bisected
		r.Set("surface.vs_bisect_rel_err", rel)
		r.Check(rel <= momentRelTol, "Surface.Quantile(p=%v) = %.6g, bisection %.6g (contract %.0e relative)", p, fromSurface, bisected, momentRelTol)
	}
}

func (s *serve) Layers() {
	r := s.r
	s.v.setFrontEndLayers(r)
	r.Set("server.upload_s", s.uploadS)

	byClass := make(map[string][]float64)
	for i, rep := range s.replies {
		byClass[s.reqs[i].Class] = append(byClass[s.reqs[i].Class], rep.ms)
	}
	r.Set("server.hit_p50_ms", median(byClass[specs.ClassHit]))
	r.Set("server.hit_p99_ms", quantile(byClass[specs.ClassHit], 0.99))
	r.Set("server.cached_p50_ms", median(byClass[specs.ClassCached]))
	r.Set("server.miss_p50_ms", median(byClass[specs.ClassMiss]))
	r.Set("server.miss_p90_ms", quantile(byClass[specs.ClassMiss], 0.9))

	// One /v1/stats and one /metrics scrape of the server that just
	// served the traced repetition.
	var stats struct {
		Scheduler server.SchedulerStats `json:"scheduler"`
	}
	rep := s.do(http.MethodGet, "/v1/stats", nil)
	if r.Op(rep.err, "GET /v1/stats") && r.Op(json.Unmarshal(rep.body, &stats), "decode /v1/stats") {
		sc := stats.Scheduler
		r.Set("server.cache_hit_frac", float64(sc.CacheHits+sc.SurfaceHits)/float64(len(s.replies)))
		r.Set("server.coalesced", float64(sc.Coalesced))
	}
	rep = s.do(http.MethodGet, "/metrics", nil)
	r.Check(rep.err == nil && rep.status == http.StatusOK && strings.Contains(string(rep.body), "# TYPE hydra_"),
		"GET /metrics: HTTP %d %v", rep.status, rep.err)

	floor := make([]float64, 200)
	for i := range floor {
		floor[i] = s.do(http.MethodGet, "/healthz", nil).ms
	}
	r.Set("server.http_floor_us", median(floor)*1e3)
}

func newServeMix2k(r *Run) workload {
	s := &serve{r: r, size: specs.System0, mix: specs.MixConfig{
		Requests: 6000, CachedFrac: 0.10, MissFrac: 0.05, Levels: 8, PoolGrids: 16, PoolTimes: 2,
	}}
	if r.Tiny {
		s.size = specs.Tiny
		s.mix.Requests, s.mix.PoolGrids = 200, 4
	}
	return s
}
