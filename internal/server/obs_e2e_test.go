package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hydra"
	"hydra/internal/obs"
	"hydra/internal/pipeline"
)

// TestFleetObservabilityEndToEnd drives one traced request through the
// whole stack — HTTP edge, scheduler, fleet master, TCP workers,
// solver — and asserts the observability layer ties it together: the
// client's X-Request-ID is echoed, lands on the job record, appears in
// the worker-side span AND log line for the same job, per-worker fleet
// metrics show up on GET /metrics, and the job's stats carry the
// solve-phase breakdown.
func TestFleetObservabilityEndToEnd(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fleet := pipeline.NewFleet(ln, pipeline.FleetOptions{BatchSize: 2, WaitTimeout: time.Minute})
	defer fleet.Close()
	_, ts := newTestServer(t, Config{Backend: fleet})

	workerModel, err := hydra.LoadSpec(threeStateSpec)
	if err != nil {
		t.Fatal(err)
	}
	// Each worker gets its own tracer and log buffer, exactly as separate
	// hydra-worker processes would (cmd/hydra-worker wires the same hooks
	// through RunWorkerWith).
	const workers = 2
	type workerObs struct {
		tracer *obs.Tracer
		logs   *syncBuffer
	}
	wobs := make([]workerObs, workers)
	workerDone := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wobs[i] = workerObs{tracer: obs.NewTracer(128), logs: &syncBuffer{}}
		go func(i int) {
			logger := slog.New(slog.NewTextHandler(wobs[i].logs, &slog.HandlerOptions{Level: slog.LevelDebug}))
			workerDone <- workerModel.RunWorkerWith(ln.Addr().String(), hydra.WorkerOptions{
				Name:   fmt.Sprintf("obs-w%d", i),
				Logger: logger,
				Tracer: wobs[i].tracer,
			}, nil)
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(fleet.Snapshot().Connected) < workers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d workers joined", len(fleet.Snapshot().Connected), workers)
		}
		time.Sleep(2 * time.Millisecond)
	}
	info := uploadSpec(t, ts.URL, "chain", threeStateSpec)

	// One passage request with a client-chosen request ID.
	const reqID = "req-obs-e2e-000001"
	body, _ := json.Marshal(map[string]any{
		"sources": []int{0}, "targets": []int{2},
		"times": []float64{0.4, 0.9, 1.7},
	})
	req, err := http.NewRequest("POST", fmt.Sprintf("%s/v1/models/%s/passage", ts.URL, info.ID), bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("X-Request-ID"); got != reqID {
		t.Errorf("X-Request-ID echoed as %q, want %q", got, reqID)
	}
	var rec JobRecord
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rec.Status != StatusDone {
		t.Fatalf("traced request returned %d: %+v", resp.StatusCode, rec)
	}
	if rec.RequestID != reqID {
		t.Errorf("job record carries request_id %q, want %q", rec.RequestID, reqID)
	}
	for i, tt := range rec.Result.Times {
		want := 10.0 / 3 * (math.Exp(-2*tt) - math.Exp(-5*tt))
		if math.Abs(rec.Result.Values[i]-want) > 1e-6 {
			t.Errorf("f(%v) = %v, want %v", tt, rec.Result.Values[i], want)
		}
	}

	// The job's stats attribute time to solve phases. Kernel fill can
	// legitimately round to zero on a 3-state model, but the solve and
	// the read-side inversion always take measurable time.
	phases := rec.Result.Stats.Phases
	if phases[pipeline.PhaseSolve] <= 0 {
		t.Errorf("stats phases %v lack a positive %q entry", phases, pipeline.PhaseSolve)
	}
	if phases[pipeline.PhaseInvert] <= 0 {
		t.Errorf("stats phases %v lack a positive %q entry", phases, pipeline.PhaseInvert)
	}

	// The request ID stamped at the HTTP edge must surface worker-side:
	// in each participating worker's span ring and its debug log.
	participated := 0
	for i := range wobs {
		spans := wobs[i].tracer.Trace(reqID)
		logged := strings.Contains(wobs[i].logs.String(), reqID)
		if len(spans) == 0 && !logged {
			continue // this worker may not have been assigned a batch
		}
		participated++
		if len(spans) == 0 {
			t.Errorf("worker %d logged trace %s but recorded no span for it", i, reqID)
			continue
		}
		if !logged {
			t.Errorf("worker %d has spans for trace %s but no log line mentioning it", i, reqID)
		}
		for _, sp := range spans {
			if sp.Name != "worker.batch" {
				t.Errorf("worker %d span name %q, want worker.batch", i, sp.Name)
			}
			if sp.Worker != fmt.Sprintf("obs-w%d", i) {
				t.Errorf("worker %d span names worker %q", i, sp.Worker)
			}
			if sp.Duration <= 0 {
				t.Errorf("worker %d span has non-positive duration %v", i, sp.Duration)
			}
		}
	}
	if participated == 0 {
		t.Error("no worker recorded spans or logs for the traced request")
	}

	// Master-side spans for the same trace are queryable over HTTP.
	var trace struct {
		TraceID string     `json:"trace_id"`
		Spans   []obs.Span `json:"spans"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/traces/"+reqID, nil, &trace); code != http.StatusOK {
		t.Fatalf("GET /v1/traces/%s returned %d", reqID, code)
	}
	names := map[string]bool{}
	for _, sp := range trace.Spans {
		names[sp.Name] = true
	}
	if !names["sched.job"] || !names["fleet.run"] {
		t.Errorf("trace spans %v, want both sched.job and fleet.run", names)
	}

	// GET /metrics speaks Prometheus text format and covers every layer,
	// including the per-worker fleet families for the workers above.
	metrics := fetchMetrics(t, ts.URL)
	for _, want := range []string{
		"# TYPE hydra_http_requests_total counter",
		"# TYPE hydra_http_request_duration_seconds histogram",
		"# TYPE hydra_scheduler_jobs_total counter",
		"# TYPE hydra_cache_point_hits_total counter",
		"# TYPE hydra_registry_models_resident gauge",
		"# TYPE hydra_fleet_workers_connected gauge",
		"# TYPE hydra_solve_point_duration_seconds histogram",
		`hydra_http_requests_total{route="POST /v1/models/{id}/passage",method="POST",code="200"}`,
		fmt.Sprintf("hydra_fleet_wire_protocol_version %d", pipeline.ProtocolVersion),
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	for i := 0; i < workers; i++ {
		assigned := metricValue(t, metrics, fmt.Sprintf(`hydra_fleet_assigned_points_total{worker="obs-w%d"}`, i))
		completed := metricValue(t, metrics, fmt.Sprintf(`hydra_fleet_completed_points_total{worker="obs-w%d"}`, i))
		if assigned <= 0 || completed <= 0 {
			t.Errorf("per-worker metrics for obs-w%d: assigned=%v completed=%v, want both positive", i, assigned, completed)
		}
	}

	// The JSON stats view reads the same instruments /metrics exposes,
	// so the two cannot disagree on settled counters.
	var stats statsResponse
	doJSON(t, "GET", ts.URL+"/v1/stats", nil, &stats)
	metrics = fetchMetrics(t, ts.URL)
	if got := metricValue(t, metrics, "hydra_scheduler_jobs_total"); got != float64(stats.Scheduler.JobsTotal) {
		t.Errorf("hydra_scheduler_jobs_total %v != /v1/stats jobs_total %d", got, stats.Scheduler.JobsTotal)
	}
	if got := metricValue(t, metrics, "hydra_scheduler_computed_points_total"); got != float64(stats.Scheduler.ComputedPoints) {
		t.Errorf("hydra_scheduler_computed_points_total %v != /v1/stats computed_points %d", got, stats.Scheduler.ComputedPoints)
	}

	fleet.Close()
	for i := 0; i < workers; i++ {
		if err := <-workerDone; err != nil {
			t.Errorf("worker: %v", err)
		}
	}
}

// fetchMetrics scrapes GET /metrics and checks the content type.
func fetchMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics returned %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Errorf("GET /metrics content type %q, want %q", ct, obs.ContentType)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// metricValue extracts one sample's value from an exposition by its
// exact name{labels} prefix, returning 0 when absent.
func metricValue(t *testing.T, metrics, sample string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(sample) + ` (\S+)$`)
	m := re.FindStringSubmatch(metrics)
	if m == nil {
		return 0
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("sample %s has unparseable value %q", sample, m[1])
	}
	return v
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing worker logs.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
