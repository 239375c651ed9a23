package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Run is one invocation on one workload: the seeded inputs, the span
// recorder (nil when untraced), the correctness tally and the per-layer
// numbers the traced pass fills in.
type Run struct {
	Seed    int64
	Seconds float64
	Tiny    bool // smoke-test sizes: same code paths, toy models
	Trace   *Tracer
	Layer   map[string]float64

	// ScratchBase is where checkpoint files go: by default
	// .bench_build/scratch in the working directory, so the benchmark
	// writes nowhere outside its checkout.
	ScratchBase string

	attempted int
	failures  []string
	scratch   string
}

// Check counts one attempted check and records it as failed unless ok.
func (r *Run) Check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// Op counts one attempted operation of the program under test; a
// non-nil error (PointError, non-2xx, refused, timed out) fails it.
func (r *Run) Op(err error, what string) bool {
	r.Check(err == nil, "%s: %v", what, err)
	return err == nil
}

// Set records a per-layer metric (traced pass only).
func (r *Run) Set(name string, v float64) {
	if r.Layer != nil {
		r.Layer[name] = v
	}
}

// Scratch returns a fresh directory under ScratchBase, removed by
// Cleanup.
func (r *Run) Scratch() (string, error) {
	if r.scratch == "" {
		base := r.ScratchBase
		if base == "" {
			base = filepath.Join(".bench_build", "scratch")
		}
		if err := os.MkdirAll(base, 0o755); err != nil {
			return "", err
		}
		dir, err := os.MkdirTemp(base, "run-")
		if err != nil {
			return "", err
		}
		r.scratch = dir
	}
	return os.MkdirTemp(r.scratch, "d-")
}

// Cleanup removes everything Scratch created.
func (r *Run) Cleanup() {
	if r.scratch != "" {
		os.RemoveAll(r.scratch)
	}
}

// Rep is what one timed repetition reports.
type Rep struct {
	Wall      time.Duration
	Work      float64   // units of work done (see work_per_s)
	Latencies []float64 // ms per caller-visible request; nil means one request of Wall
}

// workload is one named set of inputs. Setup builds everything before
// the timed region from scratch and may be called repeatedly (each call
// replaces the previous state); Rep runs one repetition on fresh
// caches, times only the request-to-answer region, and records spans
// on tr when it is not nil; Verify checks
// the last repetition's outputs against oracles that share no code
// with the route under test; Layers runs the staged replay that fills
// the per-layer metrics; Close releases fleets, servers and files.
type workload interface {
	Setup() error
	Rep(tr *Tracer) (Rep, error)
	Verify()
	Layers()
	Close()
}

// Value is one reported metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the line a run ends with.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// Detail is what a run prints beside the result line: sample counts and
// what failed.
type Detail struct {
	Reps, Setups, Samples int
	Failures              []string
	Result                Result
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank quantile of xs (not modified): the
// smallest value with at least q of the samples at or below it, and the
// mean of the two middle values for the median of an even count.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	k := int(q*float64(len(s))+0.999999) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// peakRSSMiB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// timedSetups repeats the untimed set-up and returns each duration: at
// least lo times, and up to hi while the total stays under a second, so
// short set-ups get a steadier median. The last instance is the one the
// repetitions use.
func timedSetups(w workload, lo, hi int) ([]float64, error) {
	var secs []float64
	var total float64
	for len(secs) < lo || (len(secs) < hi && total < 1) {
		if len(secs) > 0 {
			w.Close()
		}
		// A set-up's garbage would otherwise be collected inside the
		// next one; start each from the same heap state.
		runtime.GC()
		t0 := time.Now()
		if err := w.Setup(); err != nil {
			return nil, err
		}
		d := time.Since(t0).Seconds()
		secs = append(secs, d)
		total += d
	}
	return secs, nil
}

// execute runs one workload once and returns the contract result:
// the untraced pass when r.Layer is nil, the traced pass otherwise.
func execute(def workloadDef, r *Run) (Detail, error) {
	w := def.New(r)
	defer r.Cleanup()
	defer w.Close()
	var d Detail
	var err error
	if r.Layer == nil {
		d, err = untracedPass(w, r)
	} else {
		d, err = tracedPass(w, r)
	}
	d.Failures = r.failures
	d.Result.Correct = len(r.failures) == 0
	d.Result.Attempted, d.Result.Failed = r.attempted, len(r.failures)
	return d, err
}

// untracedPass is the repeated set-up, repetitions until the time
// budget is spent, the checks, and the end-to-end metrics.
func untracedPass(w workload, r *Run) (Detail, error) {
	lo, hi := 3, 7
	if r.Tiny {
		lo, hi = 1, 1
	}
	setups, err := timedSetups(w, lo, hi)
	if err != nil {
		return Detail{}, fmt.Errorf("set-up: %w", err)
	}
	var walls, lats []float64
	var work float64
	budget := time.Duration(r.Seconds * 1.25 * float64(time.Second))
	start := time.Now()
	for {
		// Every repetition starts from a collected heap, so neither its
		// time nor the process's peak memory depends on where the
		// previous one left the collector.
		runtime.GC()
		rep, err := w.Rep(nil)
		if !r.Op(err, "repetition") {
			break
		}
		walls = append(walls, rep.Wall.Seconds())
		work = rep.Work
		if rep.Latencies == nil {
			lats = append(lats, rep.Wall.Seconds()*1e3)
		} else {
			lats = append(lats, rep.Latencies...)
		}
		// Start another repetition only if it should end inside the
		// budget; a workload whose repetition is longer runs once.
		if time.Since(start)+rep.Wall > budget {
			break
		}
	}
	d := Detail{Reps: len(walls), Setups: len(setups), Samples: len(lats)}
	if len(walls) == 0 {
		return d, nil
	}
	rss := peakRSSMiB()
	w.Verify()
	wall := median(walls)
	values := map[string]float64{
		"setup_s":     median(setups),
		"wall_s":      wall,
		"work_per_s":  work / wall,
		"req_p50_ms":  median(lats),
		"req_p99_ms":  quantile(lats, 0.99),
		"peak_rss_mb": rss,
	}
	d.Result.Metrics = make(map[string]Value, len(endToEnd))
	for _, m := range endToEnd {
		d.Result.Metrics[m.Name] = Value{values[m.Name], m.Unit}
	}
	return d, nil
}

// tracedPass is one set-up, one untraced and one traced repetition
// (their ratio is the tracing overhead), the checks, the staged replay,
// and the per-layer metrics.
func tracedPass(w workload, r *Run) (Detail, error) {
	tr := r.Trace
	endSetup := tr.Begin("setup")
	err := w.Setup()
	endSetup()
	if err != nil {
		return Detail{}, fmt.Errorf("set-up: %w", err)
	}
	runtime.GC()
	ref, err := w.Rep(nil)
	if r.Op(err, "untraced repetition") {
		runtime.GC()
		tr.SetRun(1)
		endRep := tr.Begin("rep")
		rep, err := w.Rep(tr)
		endRep()
		tr.SetRun(0)
		if r.Op(err, "traced repetition") {
			r.Set("trace.overhead_frac", rep.Wall.Seconds()/ref.Wall.Seconds()-1)
			w.Verify()
			endLayers := tr.Begin("layers")
			w.Layers()
			endLayers()
		}
	}
	d := Detail{Reps: 2, Setups: 1}
	d.Result.Metrics = make(map[string]Value, len(perLayer))
	for _, m := range perLayer {
		d.Result.Metrics[m.Name] = Value{r.Layer[m.Name], m.Unit}
	}
	return d, nil
}

// printMetrics lists every metric of a result by name with its unit, in
// vocabulary order.
func printMetrics(w io.Writer, res Result, defs []Metric) {
	for _, m := range defs {
		if v, ok := res.Metrics[m.Name]; ok {
			fmt.Fprintf(w, "  %-36s %14.6g %s\n", m.Name, v.Value, v.Unit)
		}
	}
}

func resultLine(res Result) string {
	buf, err := json.Marshal(res)
	if err != nil {
		panic(err) // plain numbers and strings: cannot fail
	}
	return string(buf)
}
