package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"time"

	"hydra"
)

// surfaceFingerprint keys the resident-surface LRU and the build
// coalescing flight: one surface per (model, canonical target set,
// method). Sources and probability levels are deliberately absent — a
// surface answers every weighting and every level, which is the whole
// point of building it.
func surfaceFingerprint(modelID string, targets []int, method string) string {
	h := sha256.New()
	h.Write([]byte("surface\x00" + modelID + "\x00" + method + "\x00"))
	canon := hydra.CanonicalStates(targets)
	_ = binary.Write(h, binary.LittleEndian, int64(len(canon)))
	for _, v := range canon {
		_ = binary.Write(h, binary.LittleEndian, int64(v))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// surfaceCache is a small LRU of built quantile surfaces. A surface is
// a few KB of grid plus its per-weighting columns — cheap to hold, very
// expensive to rebuild — so the cap is generous relative to how many
// distinct (model, targets, method) triples a deployment queries. The
// underlying s-point vectors also live in the tiered result cache, so
// an evicted surface rebuilds from cached points, not from the solver.
type surfaceCache struct {
	max     int
	ll      *list.List // front = most recent
	entries map[string]*list.Element
}

type surfaceEntry struct {
	fp string
	s  *hydra.Surface
}

func newSurfaceCache(max int) *surfaceCache {
	if max < 1 {
		max = 64
	}
	return &surfaceCache{max: max, ll: list.New(), entries: make(map[string]*list.Element)}
}

// get returns the resident surface for fp, promoting it. Callers hold
// the scheduler mutex.
func (c *surfaceCache) get(fp string) (*hydra.Surface, bool) {
	el, ok := c.entries[fp]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*surfaceEntry).s, true
}

// put inserts (or refreshes) a surface and evicts past the cap,
// returning how many residents the cache now holds. Callers hold the
// scheduler mutex.
func (c *surfaceCache) put(fp string, s *hydra.Surface) int {
	if el, ok := c.entries[fp]; ok {
		el.Value.(*surfaceEntry).s = s
		c.ll.MoveToFront(el)
		return c.ll.Len()
	}
	c.entries[fp] = c.ll.PushFront(&surfaceEntry{fp: fp, s: s})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*surfaceEntry).fp)
	}
	return c.ll.Len()
}

// surface returns the quantile CDF surface for (model, targets, method),
// building it at most once: a resident surface is a hit; a miss
// coalesces concurrent builders under the surface fingerprint so one
// adaptive-grid solve serves every waiter. The build runs through the
// tiered result cache, so a rebuild after eviction or restart replays
// its grid stages from cached s-points. Returns the surface, whether
// this caller coalesced onto another's build, and whether it was a
// resident hit.
func (s *Scheduler) surface(m *hydra.Model, modelID string, targets []int, method string, workers int, reqID string) (*hydra.Surface, bool, bool, error) {
	fp := surfaceFingerprint(modelID, targets, method)
	s.mu.Lock()
	if surf, ok := s.surfaces.get(fp); ok {
		s.mu.Unlock()
		s.metrics.surfaceHits.Inc()
		return surf, false, true, nil
	}
	s.mu.Unlock()

	opts := s.surfaceOptions(method, workers)
	name := modelID + ":passage-cdf"

	val, coalesced, err := s.runShared("surface|"+fp,
		func(v any) *hydra.RunStats {
			if surf, ok := v.(*hydra.Surface); ok {
				return surf.Stats()
			}
			return nil
		},
		func() (any, error) {
			start := time.Now()
			surf, err := m.PassageSurface(name, targets, s.cache.Pipeline(), opts)
			if err != nil {
				return nil, err
			}
			s.metrics.surfaceBuilds.Inc()
			s.metrics.surfaceBuildSeconds.Observe(time.Since(start).Seconds())
			s.mu.Lock()
			resident := s.surfaces.put(fp, surf)
			s.mu.Unlock()
			s.metrics.surfacesResident.Set(float64(resident))
			return surf, nil
		})
	if err != nil {
		return nil, coalesced, false, err
	}
	return val.(*hydra.Surface), coalesced, false, nil
}

// surfaceOptions is jobOptions for a surface build. Surfaces are built
// from concrete-method grid runs; "auto" would re-select the inverter
// per stage, so it and the default become Euler, the paper's
// discontinuity-safe choice.
func (s *Scheduler) surfaceOptions(method string, workers int) *hydra.Options {
	opts := s.jobOptions(method, workers)
	if opts.Method == "" || opts.Method == "auto" {
		opts.Method = "euler"
	}
	return opts
}

// checkSurface rejects what a surface build would fail on for the
// request's sake — an unknown or invalid method, a bad target set —
// before the build's flight, so the failure is a 400 and never occupies
// a computation slot. It builds the one-point spec a single quantile
// request validates (see RunQuantile).
func (s *Scheduler) checkSurface(m *hydra.Model, modelID string, targets []int, method string) error {
	_, err := buildSpec(m, modelID, "passage-cdf", targets, []float64{1}, s.surfaceOptions(method, 0))
	return err
}

// RunQuantileBatch answers many (sources, p) quantile queries against
// one target set from a single resident surface: the first request for
// a (model, targets, method) triple pays the adaptive-grid build, every
// later query — any weighting, any level — is an interpolated read.
// The record's CacheHit reports a resident-surface hit; Coalesced
// reports joining another request's in-flight build.
func (s *Scheduler) RunQuantileBatch(m *hydra.Model, modelID string, queries []hydra.QuantileQuery, targets []int, method string, workers int, reqID string) *JobRecord {
	rec := s.newRecord(modelID, "quantile-batch", surfaceFingerprint(modelID, targets, method), reqID)
	if len(queries) == 0 {
		s.finish(rec, nil, false, false, fmt.Errorf("batched quantile request needs at least one query"), ErrInvalidRequest)
		return rec
	}
	// Validate every query before touching the surface, so a malformed
	// entry fails the request as a 400 without occupying a slot.
	for i, q := range queries {
		if !(q.P > 0 && q.P < 1) {
			s.finish(rec, nil, false, false, fmt.Errorf("query %d: quantile probability %v outside (0,1)", i, q.P), ErrInvalidRequest)
			return rec
		}
		if _, _, err := m.SourceWeights(q.Sources); err != nil {
			s.finish(rec, nil, false, false, fmt.Errorf("query %d: %w", i, err), ErrInvalidRequest)
			return rec
		}
	}
	if err := s.checkSurface(m, modelID, targets, method); err != nil {
		s.finish(rec, nil, false, false, err, ErrInvalidRequest)
		return rec
	}
	surf, coalesced, hit, err := s.surface(m, modelID, targets, method, workers, reqID)
	if err != nil {
		s.finish(rec, nil, coalesced, false, err, ErrExecution)
		return rec
	}
	out := make([]float64, len(queries))
	for i, q := range queries {
		t, err := surf.Quantile(q.Sources, q.P)
		if err != nil {
			// A defective distribution (or a level beyond the surface's
			// coverage) is the request's problem, not the server's.
			s.finish(rec, nil, coalesced, hit, fmt.Errorf("query %d: %w", i, err), ErrInvalidRequest)
			return rec
		}
		out[i] = t
	}
	s.metrics.surfaceInterpolations.Add(float64(len(queries)))
	payload := &JobResult{Quantiles: out, Stats: statsJSON(surf.Stats())}
	s.finish(rec, payload, coalesced, hit, nil, "")
	return rec
}

// PrewarmSurface builds (or confirms) the resident surface for a target
// set without answering any query — the model-upload hook that moves
// the first batched quantile request's build cost to upload time. It
// shares the same fingerprint flight as query-triggered builds, so a
// prewarm racing a live request coalesces instead of solving twice.
func (s *Scheduler) PrewarmSurface(m *hydra.Model, modelID string, targets []int, method string, workers int, reqID string) *JobRecord {
	rec := s.newRecord(modelID, "surface-prewarm", surfaceFingerprint(modelID, targets, method), reqID)
	if err := s.checkSurface(m, modelID, targets, method); err != nil {
		s.finish(rec, nil, false, false, err, ErrInvalidRequest)
		return rec
	}
	surf, coalesced, hit, err := s.surface(m, modelID, targets, method, workers, reqID)
	if err != nil {
		s.finish(rec, nil, coalesced, false, err, ErrExecution)
		return rec
	}
	payload := &JobResult{Stats: statsJSON(surf.Stats())}
	s.finish(rec, payload, coalesced, hit, nil, "")
	return rec
}
