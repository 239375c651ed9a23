package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"hydra"
	"hydra/internal/obs"
	"hydra/internal/pipeline"
)

// Config tunes a Server. The zero value is serviceable: NumCPU workers
// per computation, two concurrent computations, sixteen resident
// models, ~64 MB of cached transform vectors, no disk checkpoint.
type Config struct {
	// MaxModels bounds the registry (resident explored state spaces).
	MaxModels int
	// CacheValues bounds the memory result cache in resident complex
	// values across all cached solves. A vector s-point on an N-state
	// model costs N values, so size this to (states × points) for the
	// solves that should stay resident — the default 1<<22 (~64 MB)
	// holds e.g. thirty 66-point curves on a 2061-state model, or one
	// 60-point curve on a 70k-state model. Larger models fall through
	// to the disk checkpoint layer.
	CacheValues int
	// CheckpointPath enables the disk layer of the result cache.
	CheckpointPath string
	// Workers is the per-computation in-process pool size.
	Workers int
	// MaxConcurrent bounds simultaneously executing computations.
	MaxConcurrent int
	// Backend overrides where computations execute: nil selects the
	// per-computation in-process pool; a *pipeline.Fleet (from
	// pipeline.NewFleet) executes every job on resident TCP workers —
	// the hydra-serve "-backend fleet" mode. The server does not own the
	// backend; callers close the fleet themselves on shutdown.
	Backend hydra.Backend
	// Shard asks a fleet backend to split each solve across up to this
	// many workers' row blocks instead of farming
	// whole s-points. Zero or one leaves solves unsharded; ignored by
	// the in-process backend. See Options.Shard for the trade-off.
	Shard int
	// Logger receives structured access and lifecycle logs. Nil
	// discards them (tests stay quiet; hydra-serve wires a real one).
	Logger *slog.Logger
}

// Server is the hydra-serve service: registry + scheduler + result
// cache behind an HTTP/JSON API.
type Server struct {
	registry *Registry
	sched    *Scheduler
	cache    *ResultCache
	backend  hydra.Backend
	started  time.Time
	metrics  *serverMetrics
	tracer   *obs.Tracer
	logger   *slog.Logger
}

// New builds a Server from the config.
func New(cfg Config) (*Server, error) {
	if cfg.MaxModels < 1 {
		cfg.MaxModels = 16
	}
	if cfg.CacheValues < 1 {
		cfg.CacheValues = 1 << 22
	}
	if cfg.Workers < 1 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.MaxConcurrent < 1 {
		cfg.MaxConcurrent = 2
	}
	cache, err := NewResultCache(cfg.CacheValues, cfg.CheckpointPath)
	if err != nil {
		return nil, err
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	metrics := newServerMetrics()
	tracer := obs.NewTracer(4096)
	s := &Server{
		registry: NewRegistry(cfg.MaxModels),
		sched:    NewScheduler(cache, cfg.Workers, cfg.MaxConcurrent, cfg.Backend, metrics, tracer),
		cache:    cache,
		backend:  cfg.Backend,
		started:  time.Now(),
		metrics:  metrics,
		tracer:   tracer,
		logger:   logger,
	}
	s.sched.shard = cfg.Shard
	metrics.registerComponentFuncs(s.registry, s.cache, s.uptimeSeconds)
	return s, nil
}

// Close releases the disk checkpoint, if any.
func (s *Server) Close() error { return s.cache.Close() }

// Registry exposes the model registry (for tests and embedding).
func (s *Server) Registry() *Registry { return s.registry }

// Scheduler exposes the job scheduler (for tests and embedding).
func (s *Server) Scheduler() *Scheduler { return s.sched }

// Tracer exposes the server's span recorder (for tests and embedding).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// Handler returns the /v1 API handler. Every route is wrapped in the
// instrumentation middleware: request IDs, per-route metrics, access
// logs. GET /metrics serves both the server's own registry and the
// process-wide obs.Default (pipeline, fleet, solver families).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(pattern, h))
	}
	handle("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	handle("GET /metrics", obs.Handler(s.metrics.reg, obs.Default).ServeHTTP)
	handle("POST /v1/models", s.handleAddModel)
	handle("GET /v1/models", s.handleListModels)
	handle("GET /v1/models/{id}", s.handleGetModel)
	handle("DELETE /v1/models/{id}", s.handleDeleteModel)
	handle("POST /v1/models/{id}/passage", s.handleCurve("passage"))
	handle("POST /v1/models/{id}/transient", s.handleCurve("transient"))
	handle("POST /v1/models/{id}/batch", s.handleBatch)
	handle("POST /v1/models/{id}/quantile", s.handleQuantile)
	handle("GET /v1/jobs", s.handleListJobs)
	handle("GET /v1/jobs/{id}", s.handleGetJob)
	handle("GET /v1/stats", s.handleStats)
	handle("GET /v1/traces/{id}", s.handleGetTrace)
	return mux
}

// ctxKey keys context values private to this package.
type ctxKey int

const requestIDKey ctxKey = iota

// requestID returns the request ID minted (or accepted) by the
// instrumentation middleware, or "" outside a request.
func requestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// statusWriter captures the response status for metrics and logs.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the HTTP observability edge: a
// request ID (client-supplied X-Request-ID honoured, one minted
// otherwise, always echoed back), per-route counters and latency
// histograms, the in-flight gauge, and a structured access log line.
// The request ID becomes the trace ID for everything the request
// causes — scheduler spans, fleet run headers, worker-side spans.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		reqID := r.Header.Get("X-Request-ID")
		if reqID == "" {
			reqID = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", reqID)
		r = r.WithContext(context.WithValue(r.Context(), requestIDKey, reqID))

		s.metrics.httpInFlight.Inc()
		defer s.metrics.httpInFlight.Dec()
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		elapsed := time.Since(start)

		s.metrics.httpRequests.With(route, r.Method, strconv.Itoa(sw.code)).Inc()
		s.metrics.httpDuration.With(route).Observe(elapsed.Seconds())
		s.logger.Info("http request",
			"request_id", reqID, "method", r.Method, "route", route,
			"path", r.URL.Path, "status", sw.code, "duration", elapsed)
	}
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// readJSON decodes a request body strictly (unknown fields rejected, so
// a typo'd option fails loudly instead of silently running defaults).
func readJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// prewarmJSON declares one quantile surface to build at upload time:
// the target set (and optional method) whose batched quantile traffic
// should never pay a cold build.
type prewarmJSON struct {
	Targets []int  `json:"targets"`
	Method  string `json:"method,omitempty"` // euler (default) | laguerre
}

// modelRequest uploads a model: exactly one of Spec, Voting or
// VotingConfig. Prewarm optionally lists quantile surfaces to build in
// the background as soon as the model is resident.
type modelRequest struct {
	Name         string `json:"name,omitempty"`
	Spec         string `json:"spec,omitempty"`   // extended-DNAmaca source
	Voting       *int   `json:"voting,omitempty"` // built-in Table 1 system 0-5
	VotingConfig *struct {
		CC int `json:"cc"`
		MM int `json:"mm"`
		NN int `json:"nn"`
	} `json:"voting_config,omitempty"`
	Prewarm []prewarmJSON `json:"prewarm,omitempty"`
}

func (s *Server) handleAddModel(w http.ResponseWriter, r *http.Request) {
	var req modelRequest
	if err := readJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	given := 0
	for _, ok := range []bool{req.Spec != "", req.Voting != nil, req.VotingConfig != nil} {
		if ok {
			given++
		}
	}
	if given != 1 {
		writeError(w, http.StatusBadRequest, "exactly one of spec, voting or voting_config is required")
		return
	}
	var info ModelInfo
	var err error
	switch {
	case req.Spec != "":
		info, err = s.registry.AddSpec(req.Name, req.Spec)
	case req.Voting != nil:
		info, err = s.registry.AddVoting(*req.Voting)
	default:
		info, err = s.registry.AddVotingConfig(req.VotingConfig.CC, req.VotingConfig.MM, req.VotingConfig.NN)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "loading model: %v", err)
		return
	}
	// Surface pre-warming runs in the background: the upload returns as
	// soon as the model is resident, and each declared surface builds
	// under its own job record (kind "surface-prewarm") that coalesces
	// with any query-triggered build for the same (targets, method).
	// Poll /v1/stats surface_builds or the job list to observe
	// completion.
	if len(req.Prewarm) > 0 {
		model, _, ok := s.registry.Get(info.ID)
		if ok {
			reqID := requestID(r.Context())
			for _, pw := range req.Prewarm {
				go func(pw prewarmJSON) {
					rec := s.sched.PrewarmSurface(model, info.ID, pw.Targets, pw.Method, 0, reqID)
					if rec.Status == StatusFailed {
						s.logger.Warn("surface prewarm failed",
							"request_id", reqID, "model", info.ID, "job", rec.ID, "error", rec.Error)
					}
				}(pw)
			}
		}
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleListModels(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"models": s.registry.List()})
}

// measureJSON is a resolved \passage or \transient block of the spec:
// the state sets a client needs to post analysis requests without
// re-deriving marking predicates.
type measureJSON struct {
	Name    string    `json:"name"`
	Kind    string    `json:"kind"` // passage | transient
	Sources []int     `json:"sources"`
	Targets []int     `json:"targets"`
	Times   []float64 `json:"times,omitempty"`
	Method  string    `json:"method,omitempty"`
}

func (s *Server) handleGetModel(w http.ResponseWriter, r *http.Request) {
	model, info, ok := s.registry.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "model %q is not resident", r.PathValue("id"))
		return
	}
	measures := []measureJSON{}
	for _, ms := range model.Measures() {
		kind := "passage"
		if ms.Kind == hydra.Transient {
			kind = "transient"
		}
		measures = append(measures, measureJSON{
			Name: ms.Name, Kind: kind,
			Sources: ms.Sources, Targets: ms.Targets,
			Times: ms.Times, Method: ms.Method,
		})
	}
	writeJSON(w, http.StatusOK, struct {
		ModelInfo
		MeasureList []measureJSON `json:"measures_resolved"`
	}{info, measures})
}

func (s *Server) handleDeleteModel(w http.ResponseWriter, r *http.Request) {
	if !s.registry.Remove(r.PathValue("id")) {
		writeError(w, http.StatusNotFound, "model %q is not resident", r.PathValue("id"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// curveRequest asks for a curve over Times.
type curveRequest struct {
	Sources []int     `json:"sources"`
	Targets []int     `json:"targets"`
	Times   []float64 `json:"times"`
	CDF     bool      `json:"cdf,omitempty"`    // passage only: invert L(s)/s
	Method  string    `json:"method,omitempty"` // euler (default) | laguerre
	Workers int       `json:"workers,omitempty"`
}

func (s *Server) handleCurve(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		model, info, ok := s.registry.Get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, "model %q is not resident", r.PathValue("id"))
			return
		}
		var req curveRequest
		if err := readJSON(r, &req); err != nil {
			writeError(w, http.StatusBadRequest, "decoding request: %v", err)
			return
		}
		jobKind := kind
		if kind == "passage" && req.CDF {
			jobKind = "passage-cdf"
		} else if kind == "transient" && req.CDF {
			writeError(w, http.StatusBadRequest, "cdf applies only to passage requests")
			return
		}
		rec := s.sched.RunCurve(model, info.ID, jobKind, req.Sources, req.Targets, req.Times, req.Method, req.Workers, requestID(r.Context()))
		writeRecord(w, rec)
	}
}

// batchRequest asks for one measure evaluated for MANY source sets at
// once: the vector engine answers every set from a single solve, so the
// marginal cost of an extra source set is a dot product per s-point,
// not a solve.
type batchRequest struct {
	Kind       string    `json:"kind,omitempty"` // passage (default) | transient
	SourceSets [][]int   `json:"source_sets"`
	Targets    []int     `json:"targets"`
	Times      []float64 `json:"times"`
	CDF        bool      `json:"cdf,omitempty"`    // passage only: invert L(s)/s
	Method     string    `json:"method,omitempty"` // euler (default) | laguerre
	Workers    int       `json:"workers,omitempty"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	model, info, ok := s.registry.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "model %q is not resident", r.PathValue("id"))
		return
	}
	var req batchRequest
	if err := readJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	kind := req.Kind
	if kind == "" {
		kind = "passage"
	}
	if kind != "passage" && kind != "transient" {
		writeError(w, http.StatusBadRequest, "batch kind %q is not passage or transient", kind)
		return
	}
	if req.CDF {
		if kind != "passage" {
			writeError(w, http.StatusBadRequest, "cdf applies only to passage requests")
			return
		}
		kind = "passage-cdf"
	}
	rec := s.sched.RunBatch(model, info.ID, kind, req.SourceSets, req.Targets, req.Times, req.Method, req.Workers, requestID(r.Context()))
	writeRecord(w, rec)
}

// quantileQueryJSON is one (sources, p) question of a batched quantile
// request.
type quantileQueryJSON struct {
	Sources []int   `json:"sources"`
	P       float64 `json:"p"`
}

// quantileRequest asks for the time t* with F(t*) = p — either the
// single form (Sources + P, answered by bisection) or the batched form
// (Queries, answered from one resident CDF surface: any number of
// weightings and levels for one target set, each an interpolated read
// after a single adaptive-grid solve). The two forms are mutually
// exclusive.
type quantileRequest struct {
	Sources []int               `json:"sources,omitempty"`
	Targets []int               `json:"targets"`
	P       float64             `json:"p,omitempty"`
	Hint    float64             `json:"hint,omitempty"` // single form: bracket seed, default 1
	Queries []quantileQueryJSON `json:"queries,omitempty"`
	Method  string              `json:"method,omitempty"`
	Workers int                 `json:"workers,omitempty"`
}

func (s *Server) handleQuantile(w http.ResponseWriter, r *http.Request) {
	model, info, ok := s.registry.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "model %q is not resident", r.PathValue("id"))
		return
	}
	var req quantileRequest
	if err := readJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if len(req.Queries) > 0 {
		if len(req.Sources) > 0 || req.P != 0 || req.Hint != 0 {
			writeError(w, http.StatusBadRequest, "queries is exclusive with sources/p/hint: the batched form carries its own (sources, p) pairs")
			return
		}
		queries := make([]hydra.QuantileQuery, len(req.Queries))
		for i, q := range req.Queries {
			queries[i] = hydra.QuantileQuery{Sources: q.Sources, P: q.P}
		}
		rec := s.sched.RunQuantileBatch(model, info.ID, queries, req.Targets, req.Method, req.Workers, requestID(r.Context()))
		writeRecord(w, rec)
		return
	}
	rec := s.sched.RunQuantile(model, info.ID, req.Sources, req.Targets, req.P, req.Hint, req.Method, req.Workers, requestID(r.Context()))
	writeRecord(w, rec)
}

// writeRecord renders a completed job record: 200 for success, 400 for
// a rejected request, 500 for a computation the server could not run
// (the failure is recorded and queryable either way).
func writeRecord(w http.ResponseWriter, rec *JobRecord) {
	switch {
	case rec.Status != StatusFailed:
		writeJSON(w, http.StatusOK, rec)
	case rec.ErrorKind == ErrInvalidRequest:
		writeJSON(w, http.StatusBadRequest, rec)
	default:
		writeJSON(w, http.StatusInternalServerError, rec)
	}
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.sched.Jobs()})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.sched.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "job %q is unknown", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// statsResponse is the /v1/stats body. Fleet appears only when the
// server executes on a TCP worker fleet.
type statsResponse struct {
	UptimeSeconds float64              `json:"uptime_seconds"`
	Registry      RegistryStats        `json:"registry"`
	Cache         CacheStats           `json:"cache"`
	Scheduler     SchedulerStats       `json:"scheduler"`
	Fleet         *pipeline.FleetStats `json:"fleet,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{
		UptimeSeconds: s.uptimeSeconds(),
		Registry:      s.registry.Stats(),
		Cache:         s.cache.Stats(),
		Scheduler:     s.sched.Stats(),
	}
	if fleet, ok := s.backend.(*pipeline.Fleet); ok {
		snap := fleet.Snapshot()
		resp.Fleet = &snap
	}
	writeJSON(w, http.StatusOK, resp)
}

// uptimeSeconds is the single uptime source: the hydra_uptime_seconds
// gauge func and the JSON stats field both call it.
func (s *Server) uptimeSeconds() float64 { return time.Since(s.started).Seconds() }

// handleGetTrace returns the recorded spans for one trace (request)
// ID, merging the server's scheduler-side spans with the process-wide
// tracer's pipeline and fleet spans.
func (s *Server) handleGetTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	spans := append(s.tracer.Trace(id), obs.DefaultTracer.Trace(id)...)
	if len(spans) == 0 {
		writeError(w, http.StatusNotFound, "no spans recorded for trace %q (the span ring may have wrapped)", id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"trace_id": id, "spans": spans})
}
