package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark
// around the call (hydra itself records nothing here). Parent is the
// index of the span that caused it, -1 for a root; spans of one
// repetition share RunID.
type Span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	RunID   int    `json:"run_id"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer
// records nothing, so untraced runs pay one nil check per call site.
// Spans nest by call order: Begin pushes, the returned func pops. It is
// used from the harness goroutine only — concurrent work inside hydra
// is invisible to it by design; those spans are a later issue.
type Tracer struct {
	epoch time.Time
	spans []Span
	stack []int
	runID int
	// Where the next Add span under addParent must end, so that several
	// measured-elsewhere children of one span lie back to back.
	addParent int
	addCursor int64
}

// NewTracer starts a recorder whose timestamps count from now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// SetRun tags subsequent spans with a repetition identifier.
func (t *Tracer) SetRun(id int) {
	if t == nil {
		return
	}
	t.runID = id
}

var noop = func() {}

// Begin opens a span named after the layer call it surrounds and
// returns the function that closes it.
func (t *Tracer) Begin(name string) (end func()) {
	if t == nil {
		return noop
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	idx := len(t.spans)
	t.spans = append(t.spans, Span{Name: name, StartNS: time.Since(t.epoch).Nanoseconds(), Parent: parent, RunID: t.runID})
	t.stack = append(t.stack, idx)
	t.addCursor = 0
	return func() {
		now := time.Since(t.epoch).Nanoseconds()
		t.spans[idx].EndNS = now
		if n := len(t.stack); n > 0 && t.stack[n-1] == idx {
			t.stack = t.stack[:n-1]
		}
		t.addCursor = 0
	}
}

// Add records a span whose duration was measured elsewhere (a RunStats
// or Solver.Last* field) as a child of the open span. The first such
// child ends now; further ones end where the previous one starts, so
// they never overlap and their self times add up.
func (t *Tracer) Add(name string, d time.Duration) {
	if t == nil || d <= 0 {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	end := time.Since(t.epoch).Nanoseconds()
	if t.addCursor > 0 && t.addParent == parent {
		end = t.addCursor
	}
	start := end - d.Nanoseconds()
	t.spans = append(t.spans, Span{Name: name, StartNS: start, EndNS: end, Parent: parent, RunID: t.runID})
	t.addParent, t.addCursor = parent, start
}

// Spans returns a copy of what has been recorded.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return append([]Span(nil), t.spans...)
}

// SelfTimes returns, per span, its duration minus the part of that
// interval its direct children cover (overlapping children are merged
// first, so concurrent children are not subtracted twice).
func SelfTimes(spans []Span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNS < spans[kids[b]].StartNS })
		covered, hi := int64(0), s.StartNS
		for _, k := range kids {
			lo, end := max(spans[k].StartNS, hi), min(spans[k].EndNS, s.EndNS)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[i] = s.EndNS - s.StartNS - covered
	}
	return self
}

// SelfByName sums self time per span name for one repetition (every
// repetition when runID < 0).
func SelfByName(spans []Span, runID int) map[string]int64 {
	self := SelfTimes(spans)
	out := make(map[string]int64)
	for i, s := range spans {
		if runID < 0 || s.RunID == runID {
			out[s.Name] += self[i]
		}
	}
	return out
}

// WriteTrace writes the spans, with their self times, to
// dir/trace-<workload>.json.
func WriteTrace(dir, workload string, spans []Span) error {
	self := SelfTimes(spans)
	type row struct {
		Span
		SelfNS int64 `json:"self_ns"`
	}
	rows := make([]row, len(spans))
	for i, s := range spans {
		rows[i] = row{s, self[i]}
	}
	buf, err := json.MarshalIndent(rows, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), append(buf, '\n'), 0o644)
}
