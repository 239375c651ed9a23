package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// A hand-built tree:
//
//	rep        [0, 100)
//	├─ solve   [10, 60)
//	│  ├─ fill [10, 20)
//	│  └─ fill [15, 30)   overlaps the first: covered once, [10, 30)
//	├─ invert  [60, 90)
//	└─ tail    [95, 120)  runs past its parent: only [95, 100) counts
//	other      [200, 230) a second root, another repetition
func handBuilt() []Span {
	return []Span{
		{Name: "rep", StartNS: 0, EndNS: 100, Parent: -1, RunID: 1},
		{Name: "solve", StartNS: 10, EndNS: 60, Parent: 0, RunID: 1},
		{Name: "fill", StartNS: 10, EndNS: 20, Parent: 1, RunID: 1},
		{Name: "fill", StartNS: 15, EndNS: 30, Parent: 1, RunID: 1},
		{Name: "invert", StartNS: 60, EndNS: 90, Parent: 0, RunID: 1},
		{Name: "tail", StartNS: 95, EndNS: 120, Parent: 0, RunID: 1},
		{Name: "other", StartNS: 200, EndNS: 230, Parent: -1, RunID: 2},
	}
}

func TestSelfTimes(t *testing.T) {
	spans := handBuilt()
	want := []int64{
		100 - (50 + 30 + 5), // rep: minus solve, invert and the part of tail inside it
		50 - 20,             // solve: minus the merged fills [10, 30)
		10, 15, 30, 25, 30,
	}
	got := SelfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	byName := SelfByName(spans, 1)
	if byName["fill"] != 25 || byName["other"] != 0 {
		t.Errorf("SelfByName(run 1) = %v, want fill 25 and no other", byName)
	}
	if all := SelfByName(spans, -1); all["other"] != 30 {
		t.Errorf("SelfByName(all) = %v, want other 30", all)
	}
}

func TestTracerNestsAndWrites(t *testing.T) {
	var off *Tracer
	off.Begin("ignored")() // a nil tracer records nothing and does not panic
	off.Add("ignored", 5)
	if off.Spans() != nil {
		t.Fatal("nil tracer returned spans")
	}

	tr := NewTracer()
	tr.SetRun(7)
	endOuter := tr.Begin("outer")
	endInner := tr.Begin("inner")
	tr.Add("measured", 1)
	tr.Add("measured-before", 2)
	endInner()
	endOuter()
	tr.Begin("sibling")()
	spans := tr.Spans()
	if len(spans) != 5 {
		t.Fatalf("recorded %d spans, want 5", len(spans))
	}
	if spans[3].EndNS != spans[2].StartNS || spans[3].EndNS-spans[3].StartNS != 2 {
		t.Errorf("second Add span %+v does not end where the first %+v starts", spans[3], spans[2])
	}
	for i, want := range []struct {
		name   string
		parent int
	}{{"outer", -1}, {"inner", 0}, {"measured", 1}, {"measured-before", 1}, {"sibling", -1}} {
		if spans[i].Name != want.name || spans[i].Parent != want.parent || spans[i].RunID != 7 {
			t.Errorf("span %d = %+v, want %s under %d in run 7", i, spans[i], want.name, want.parent)
		}
		if spans[i].EndNS < spans[i].StartNS {
			t.Errorf("span %d ends before it starts: %+v", i, spans[i])
		}
	}

	dir := t.TempDir()
	if err := WriteTrace(dir, "unit", spans); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(filepath.Join(dir, "trace-unit.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		Name   string `json:"name"`
		Parent int    `json:"parent"`
		RunID  int    `json:"run_id"`
		SelfNS *int64 `json:"self_ns"`
	}
	if err := json.Unmarshal(buf, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 || rows[1].Name != "inner" || rows[1].Parent != 0 || rows[1].RunID != 7 || rows[1].SelfNS == nil {
		t.Errorf("trace file rows = %+v", rows)
	}
}
