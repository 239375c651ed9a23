package hydra

import (
	"math"
	"testing"

	"hydra/internal/passage"
)

// readRunJumps is intervalJumps as one ReadRun per (state, run): the
// reference the direct gather-and-invert loop must reproduce bitwise.
func readRunJumps(s *Surface) ([]float64, float64, error) {
	jumps := make([]float64, len(s.times)-1)
	vals := make([]float64, len(s.times))
	var head float64
	for st := 0; st < s.model.NumStates(); st++ {
		for _, run := range s.runs {
			r, err := ReadRun(run.vr, []int{st}, []float64{1}, run.times, s.opts)
			if err != nil {
				return nil, 0, err
			}
			for i, t := range run.times {
				vals[s.gridIndex(t)] = r.Values[i]
			}
		}
		for i, v := range vals {
			if math.IsNaN(v) || v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			vals[i] = v
		}
		if vals[0] > head {
			head = vals[0]
		}
		for i := 0; i+1 < len(vals); i++ {
			if d := vals[i+1] - vals[i]; d > jumps[i] {
				jumps[i] = d
			}
		}
	}
	return jumps, head, nil
}

// TestIntervalJumpsMatchReadRunLoop holds the surface refinement's
// per-state jump scan to the per-state ReadRun loop, bit for bit, on
// voting system 0's all-voted surface runs.
func TestIntervalJumpsMatchReadRunLoop(t *testing.T) {
	m, err := VotingSystem(0)
	if err != nil {
		t.Fatal(err)
	}
	p2 := m.PlaceIndex("p2")
	targets := m.States(func(mk Marking) bool { return mk[p2] >= 18 })
	s, err := m.PassageSurface("", targets, nil, &Options{Workers: 2, Solver: passage.Options{WarmStart: true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.runs) < 2 {
		t.Fatalf("surface has %d runs; the check needs several", len(s.runs))
	}
	jumps, head, err := s.intervalJumps()
	if err != nil {
		t.Fatal(err)
	}
	wantJumps, wantHead, err := readRunJumps(s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(head) != math.Float64bits(wantHead) {
		t.Errorf("head %v, ReadRun loop %v", head, wantHead)
	}
	if len(jumps) != len(wantJumps) {
		t.Fatalf("%d jumps, ReadRun loop %d", len(jumps), len(wantJumps))
	}
	for i := range jumps {
		if math.Float64bits(jumps[i]) != math.Float64bits(wantJumps[i]) {
			t.Errorf("interval %d: jump %v, ReadRun loop %v", i, jumps[i], wantJumps[i])
		}
	}
}
