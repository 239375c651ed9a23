package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"hydra"
)

// twoStateSpec is a single exponential hop with a return edge:
// passage 0→1 has F(t) = 1 − e^{−2t}, median ln2/2.
const twoStateSpec = `
\model{
  \statevector{ \type{short}{a, b} }
  \initial{ a = 1; b = 0; }
  \transition{go}{ \condition{a > 0} \action{next->a = a-1; next->b = b+1;} \sojourntimeLT{expLT(2,s)} }
  \transition{back}{ \condition{b > 0} \action{next->b = b-1; next->a = a+1;} \sojourntimeLT{expLT(7,s)} }
}
`

// threeStateSpec is the two-hop chain of the root tests: density
// f(t) = 10/3·(e^{−2t} − e^{−5t}) for passage 0→2.
const threeStateSpec = `
\model{
  \statevector{ \type{short}{idle, stage1, done} }
  \initial{ idle = 1; stage1 = 0; done = 0; }
  \transition{start}{
    \condition{idle > 0}
    \action{ next->idle = idle - 1; next->stage1 = stage1 + 1; }
    \sojourntimeLT{ expLT(2, s) }
  }
  \transition{finish}{
    \condition{stage1 > 0}
    \action{ next->stage1 = stage1 - 1; next->done = done + 1; }
    \sojourntimeLT{ expLT(5, s) }
  }
  \transition{reset}{
    \condition{done > 0}
    \action{ next->done = done - 1; next->idle = idle + 1; }
    \sojourntimeLT{ expLT(1, s) }
  }
}
`

// newTestServer starts an httptest server around a fresh Server.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// doJSON posts a JSON body and decodes the JSON response.
func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// uploadSpec registers a spec model and returns its ID.
func uploadSpec(t *testing.T, base, name, spec string) ModelInfo {
	t.Helper()
	var info ModelInfo
	code := doJSON(t, "POST", base+"/v1/models", map[string]string{"name": name, "spec": spec}, &info)
	if code != http.StatusCreated {
		t.Fatalf("model upload returned %d", code)
	}
	return info
}

// TestUploadPassageAndCacheHit is the service's core promise: a model
// uploaded once is analysed over HTTP, and a repeated identical request
// is served from the fingerprint-keyed result cache without evaluating
// a single s-point.
func TestUploadPassageAndCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	info := uploadSpec(t, ts.URL, "chain", threeStateSpec)
	if info.States != 3 {
		t.Fatalf("states = %d, want 3", info.States)
	}

	req := map[string]any{
		"sources": []int{0}, "targets": []int{2},
		"times": []float64{0.5, 1.0, 1.5},
	}
	url := fmt.Sprintf("%s/v1/models/%s/passage", ts.URL, info.ID)

	var first JobRecord
	if code := doJSON(t, "POST", url, req, &first); code != http.StatusOK {
		t.Fatalf("first passage request returned %d", code)
	}
	if first.Status != StatusDone || first.Result == nil {
		t.Fatalf("first request did not complete: %+v", first)
	}
	for i, tt := range first.Result.Times {
		want := 10.0 / 3 * (math.Exp(-2*tt) - math.Exp(-5*tt))
		if math.Abs(first.Result.Values[i]-want) > 1e-6 {
			t.Errorf("f(%v) = %v, want %v", tt, first.Result.Values[i], want)
		}
	}
	if first.Result.Stats.Evaluated == 0 || first.Result.Stats.FromCache != 0 {
		t.Errorf("first request stats %+v, want fresh evaluation", first.Result.Stats)
	}

	var second JobRecord
	if code := doJSON(t, "POST", url, req, &second); code != http.StatusOK {
		t.Fatalf("second passage request returned %d", code)
	}
	if second.Result.Stats.FromCache == 0 || second.Result.Stats.Evaluated != 0 {
		t.Errorf("second request stats %+v, want full cache hit (FromCache > 0, Evaluated == 0)", second.Result.Stats)
	}
	if !second.CacheHit {
		t.Error("second request not marked cache_hit")
	}
	if second.Fingerprint != first.Fingerprint {
		t.Errorf("identical requests fingerprinted differently: %s vs %s", first.Fingerprint, second.Fingerprint)
	}
	for i := range first.Result.Values {
		if first.Result.Values[i] != second.Result.Values[i] {
			t.Errorf("cached value %d differs: %v vs %v", i, first.Result.Values[i], second.Result.Values[i])
		}
	}

	// The job records are retained and queryable.
	var fetched JobRecord
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs/"+first.ID, nil, &fetched); code != http.StatusOK {
		t.Fatalf("job fetch returned %d", code)
	}
	if fetched.Fingerprint != first.Fingerprint || fetched.Status != StatusDone {
		t.Errorf("fetched record %+v does not match original", fetched)
	}

	// Server-wide stats reflect one computation and one cache hit.
	var stats statsResponse
	doJSON(t, "GET", ts.URL+"/v1/stats", nil, &stats)
	if stats.Scheduler.Computations != 2 || stats.Scheduler.CacheHits != 1 {
		t.Errorf("scheduler stats %+v, want 2 computations with 1 cache hit", stats.Scheduler)
	}
	if stats.Cache.PointHits == 0 {
		t.Errorf("cache stats %+v, want point hits after the repeat", stats.Cache)
	}
}

// TestConcurrentIdenticalRequestsCoalesce issues parallel identical
// requests and asserts the transform was evaluated exactly once: the
// sum of freshly-evaluated points across the whole server equals one
// job's point budget, no matter how the requests interleaved.
func TestConcurrentIdenticalRequestsCoalesce(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxConcurrent: 4})
	info := uploadSpec(t, ts.URL, "chain", threeStateSpec)
	url := fmt.Sprintf("%s/v1/models/%s/passage", ts.URL, info.ID)
	req := map[string]any{
		"sources": []int{0}, "targets": []int{2},
		"times": []float64{0.4, 0.9, 1.7, 2.2},
	}

	const parallel = 8
	records := make([]JobRecord, parallel)
	var wg sync.WaitGroup
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if code := doJSON(t, "POST", url, req, &records[i]); code != http.StatusOK {
				t.Errorf("request %d returned %d", i, code)
			}
		}(i)
	}
	wg.Wait()

	var points int
	for i, rec := range records {
		if rec.Status != StatusDone || rec.Result == nil {
			t.Fatalf("request %d did not complete: %+v", i, rec)
		}
		points = rec.Result.Stats.Evaluated + rec.Result.Stats.FromCache
		for j, v := range rec.Result.Values {
			if v != records[0].Result.Values[j] {
				t.Errorf("request %d value %d differs: %v vs %v", i, j, v, records[0].Result.Values[j])
			}
		}
	}
	stats := srv.Scheduler().Stats()
	if stats.ComputedPoints != int64(points) {
		t.Errorf("server evaluated %d points for %d identical requests, want exactly one computation of %d",
			stats.ComputedPoints, parallel, points)
	}
	if stats.Coalesced+stats.CacheHits != parallel-1 {
		t.Errorf("stats %+v: %d requests should have coalesced or cache-hit", stats, parallel-1)
	}
}

// TestQuantileEndpoint checks the quantile route against the
// closed-form median of the single-hop model, and that repeating the
// query evaluates nothing new.
func TestQuantileEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	info := uploadSpec(t, ts.URL, "hop", twoStateSpec)
	url := fmt.Sprintf("%s/v1/models/%s/quantile", ts.URL, info.ID)
	req := map[string]any{
		"sources": []int{0}, "targets": []int{1},
		"p": 0.5, "hint": 0.25,
	}
	var rec JobRecord
	if code := doJSON(t, "POST", url, req, &rec); code != http.StatusOK {
		t.Fatalf("quantile request returned %d (error %s)", code, rec.Error)
	}
	want := math.Ln2 / 2
	if math.Abs(rec.Result.Quantile-want) > 0.02*want {
		t.Errorf("median = %v, want %v", rec.Result.Quantile, want)
	}
	if rec.Result.Stats.Evaluated == 0 {
		t.Error("first quantile search evaluated nothing")
	}

	before := srv.Scheduler().Stats().ComputedPoints
	var rec2 JobRecord
	if code := doJSON(t, "POST", url, req, &rec2); code != http.StatusOK {
		t.Fatalf("repeated quantile request returned %d", code)
	}
	if rec2.Result.Quantile != rec.Result.Quantile {
		t.Errorf("repeated quantile %v differs from %v", rec2.Result.Quantile, rec.Result.Quantile)
	}
	if after := srv.Scheduler().Stats().ComputedPoints; after != before {
		t.Errorf("repeated quantile evaluated %d new points, want 0", after-before)
	}
	if !rec2.CacheHit {
		t.Error("repeated quantile not marked cache_hit")
	}
}

// TestTransientEndpoint exercises the third quantity end to end.
func TestTransientEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	info := uploadSpec(t, ts.URL, "hop", twoStateSpec)
	url := fmt.Sprintf("%s/v1/models/%s/transient", ts.URL, info.ID)
	var rec JobRecord
	code := doJSON(t, "POST", url, map[string]any{
		"sources": []int{0}, "targets": []int{1}, "times": []float64{0.5, 2, 8},
	}, &rec)
	if code != http.StatusOK || rec.Status != StatusDone {
		t.Fatalf("transient request returned %d: %+v", code, rec)
	}
	// The two-state chain 0↔1 with rates 2 and 7 has steady-state
	// P(state 1) = (1/7)/(1/2+1/7) = 2/9; by t=8 the transient is there.
	if got, want := rec.Result.Values[len(rec.Result.Values)-1], 2.0/9; math.Abs(got-want) > 0.01 {
		t.Errorf("P(Z(8)=1) = %v, want ≈ %v", got, want)
	}
}

// TestTransientEndpointRejectsTalbot checks the half-plane guard behind
// every served solve: a spec with an s-point in Re s ≤ 0 — passage or
// transient — is refused by Model.RunSpec, naming the point, before any
// solve, instead of coming back as NaN values. Fixed Talbot contours
// reached that half-plane; "talbot" itself is now an unknown method
// (see TestUnknownMethodIsBadRequestEverywhere).
func TestTransientEndpointRejectsTalbot(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	info := uploadSpec(t, ts.URL, "hop", twoStateSpec)
	m, _, ok := srv.Registry().Get(info.ID)
	if !ok {
		t.Fatal("uploaded model is not resident")
	}
	times := []float64{2, 8}
	passage, err := m.NewPassageSpec("", []int{1}, times, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	transient, err := m.NewTransientSpec("", []int{1}, times, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []*hydra.SolveSpec{passage, transient} {
		spec.Points[3] = complex(-0.25, 2)
		_, err := m.RunSpec(spec, srv.cache.Pipeline(), nil)
		if err == nil || !strings.Contains(err.Error(), "Re s ≤ 0") || !strings.Contains(err.Error(), "s-point 3") {
			t.Errorf("%v spec: err = %v, want a Re s ≤ 0 rejection naming the point", spec.Quantity, err)
		}
	}
	if n := srv.Scheduler().Stats().ComputedPoints; n != 0 {
		t.Errorf("rejected specs computed %d points", n)
	}
}

// TestUnknownMethodIsBadRequestEverywhere sends a request the solve
// cannot take — "method": "talbot", no longer an inverter, or a target
// outside the model — to every /v1 solve endpoint, and a prewarm with
// the same method: each must be refused as an invalid request (a 400)
// without computing a single point.
func TestUnknownMethodIsBadRequestEverywhere(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	info := uploadSpec(t, ts.URL, "chain", threeStateSpec)
	base := ts.URL + "/v1/models/" + info.ID
	queries := []map[string]any{{"sources": []int{0}, "p": 0.5}}
	cases := []struct {
		name, path string
		body       map[string]any
	}{
		{"passage", "/passage", map[string]any{"sources": []int{0}, "targets": []int{2}, "times": []float64{1, 2}, "method": "talbot"}},
		{"passage cdf", "/passage", map[string]any{"sources": []int{0}, "targets": []int{2}, "times": []float64{1}, "cdf": true, "method": "talbot"}},
		{"transient", "/transient", map[string]any{"sources": []int{0}, "targets": []int{2}, "times": []float64{1, 2}, "method": "talbot"}},
		{"batch", "/batch", map[string]any{"source_sets": [][]int{{0}, {1}}, "targets": []int{2}, "times": []float64{1}, "method": "talbot"}},
		{"quantile", "/quantile", map[string]any{"sources": []int{0}, "targets": []int{2}, "p": 0.5, "method": "talbot"}},
		{"batched quantile", "/quantile", map[string]any{"queries": queries, "targets": []int{2}, "method": "talbot"}},
		{"batched quantile bad target", "/quantile", map[string]any{"queries": queries, "targets": []int{7}}},
	}
	for _, c := range cases {
		var rec JobRecord
		code := doJSON(t, "POST", base+c.path, c.body, &rec)
		if code != http.StatusBadRequest || rec.ErrorKind != ErrInvalidRequest {
			t.Errorf("%s: returned %d (error_kind %q, error %q), want 400 invalid_request", c.name, code, rec.ErrorKind, rec.Error)
		}
	}
	m, _, _ := srv.Registry().Get(info.ID)
	if rec := srv.Scheduler().PrewarmSurface(m, info.ID, []int{2}, "talbot", 0, ""); rec.ErrorKind != ErrInvalidRequest {
		t.Errorf("prewarm: status %v, error_kind %q (%s), want invalid_request", rec.Status, rec.ErrorKind, rec.Error)
	}
	if n := srv.Scheduler().Stats().ComputedPoints; n != 0 {
		t.Errorf("rejected requests computed %d points", n)
	}
}

// TestModelRegistryLRU fills the registry beyond its bound and checks
// least-recently-used eviction plus 404 on the evicted model.
func TestModelRegistryLRU(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxModels: 2})
	a := uploadSpec(t, ts.URL, "a", twoStateSpec)
	b := uploadSpec(t, ts.URL, "b", threeStateSpec)
	// Touch a so b is the eviction candidate.
	if code := doJSON(t, "GET", ts.URL+"/v1/models/"+a.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("model a fetch returned %d", code)
	}
	c := uploadSpec(t, ts.URL, "c", twoStateSpec+"% distinct content\n")
	if code := doJSON(t, "GET", ts.URL+"/v1/models/"+b.ID, nil, nil); code != http.StatusNotFound {
		t.Errorf("evicted model b still resident (status %d)", code)
	}
	for _, id := range []string{a.ID, c.ID} {
		if code := doJSON(t, "GET", ts.URL+"/v1/models/"+id, nil, nil); code != http.StatusOK {
			t.Errorf("model %s not resident after eviction pass", id)
		}
	}
	// Re-uploading an identical spec dedupes instead of re-exploring.
	again := uploadSpec(t, ts.URL, "a2", twoStateSpec)
	if again.ID != a.ID {
		t.Errorf("identical spec re-upload produced new ID %s, want %s", again.ID, a.ID)
	}
	var stats statsResponse
	doJSON(t, "GET", ts.URL+"/v1/stats", nil, &stats)
	if stats.Registry.Evictions != 1 || stats.Registry.Dedups == 0 {
		t.Errorf("registry stats %+v, want 1 eviction and ≥1 dedup", stats.Registry)
	}
}

// TestValidationErrors maps bad requests onto 400/404 with recorded
// failures.
func TestValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	info := uploadSpec(t, ts.URL, "hop", twoStateSpec)

	var rec JobRecord
	code := doJSON(t, "POST", fmt.Sprintf("%s/v1/models/%s/passage", ts.URL, info.ID),
		map[string]any{"sources": []int{0}, "targets": []int{99}, "times": []float64{1}}, &rec)
	if code != http.StatusBadRequest || rec.Status != StatusFailed || rec.Error == "" {
		t.Errorf("out-of-range target returned %d %+v, want recorded failure", code, rec)
	}
	if rec.ID != "" {
		var fetched JobRecord
		if code := doJSON(t, "GET", ts.URL+"/v1/jobs/"+rec.ID, nil, &fetched); code != http.StatusOK || fetched.Status != StatusFailed {
			t.Errorf("failed job not queryable: %d %+v", code, fetched)
		}
	}

	if code := doJSON(t, "POST", ts.URL+"/v1/models/nope/passage",
		map[string]any{"sources": []int{0}, "targets": []int{1}, "times": []float64{1}}, nil); code != http.StatusNotFound {
		t.Errorf("unknown model returned %d, want 404", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/models",
		map[string]any{"spec": "x", "voting": 0}, nil); code != http.StatusBadRequest {
		t.Errorf("ambiguous upload returned %d, want 400", code)
	}
	if code := doJSON(t, "POST", fmt.Sprintf("%s/v1/models/%s/passage", ts.URL, info.ID),
		map[string]any{"sources": []int{0}, "targets": []int{1}, "times": []float64{1}, "bogus": true}, nil); code != http.StatusBadRequest {
		t.Errorf("unknown field accepted (status %d), want 400", code)
	}
}

// TestCheckpointSurvivesRestart exercises the disk layer: a second
// server process pointed at the same checkpoint file serves the first
// server's computation from disk.
func TestCheckpointSurvivesRestart(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "serve.ckpt")
	req := map[string]any{
		"sources": []int{0}, "targets": []int{1}, "times": []float64{0.3, 0.7},
	}

	_, ts1 := newTestServer(t, Config{CheckpointPath: ckpt})
	info := uploadSpec(t, ts1.URL, "hop", twoStateSpec)
	var first JobRecord
	if code := doJSON(t, "POST", fmt.Sprintf("%s/v1/models/%s/passage", ts1.URL, info.ID), req, &first); code != http.StatusOK {
		t.Fatalf("first server request returned %d", code)
	}
	if first.Result.Stats.Evaluated == 0 {
		t.Fatal("first server served from an empty checkpoint?")
	}
	ts1.Close()

	_, ts2 := newTestServer(t, Config{CheckpointPath: ckpt})
	info2 := uploadSpec(t, ts2.URL, "hop", twoStateSpec)
	if info2.ID != info.ID {
		t.Fatalf("same spec got different ID after restart: %s vs %s", info2.ID, info.ID)
	}
	var second JobRecord
	if code := doJSON(t, "POST", fmt.Sprintf("%s/v1/models/%s/passage", ts2.URL, info2.ID), req, &second); code != http.StatusOK {
		t.Fatalf("second server request returned %d", code)
	}
	if second.Result.Stats.Evaluated != 0 || second.Result.Stats.FromCache == 0 {
		t.Errorf("restarted server stats %+v, want everything from the disk checkpoint", second.Result.Stats)
	}
	for i := range first.Result.Values {
		if first.Result.Values[i] != second.Result.Values[i] {
			t.Errorf("value %d differs across restart: %v vs %v", i, first.Result.Values[i], second.Result.Values[i])
		}
	}
}
