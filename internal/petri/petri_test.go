package petri

import (
	"errors"
	"math"
	"slices"
	"testing"

	"hydra/internal/dist"
)

// cycleNet is a trivial two-place net: t1 moves the token a→b, t2 moves
// it back.
func cycleNet() *Net {
	return &Net{
		Places:  []string{"a", "b"},
		Initial: Marking{1, 0},
		Transitions: []*Transition{
			NewArcTransition("t1", map[int]int32{0: 1}, map[int]int32{1: 1}, 1, 1, dist.NewExponential(2)),
			NewArcTransition("t2", map[int]int32{1: 1}, map[int]int32{0: 1}, 1, 1, dist.NewUniform(0, 1)),
		},
	}
}

func TestExploreCycle(t *testing.T) {
	ss, err := Explore(cycleNet(), ExploreOptions{StoreLabels: true})
	if err != nil {
		t.Fatal(err)
	}
	if ss.NumStates() != 2 {
		t.Fatalf("states = %d, want 2", ss.NumStates())
	}
	if ss.Model.N() != 2 || ss.Model.NumTerms() != 2 {
		t.Errorf("model has %d states, %d terms", ss.Model.N(), ss.Model.NumTerms())
	}
}

func TestMarkingSetInternsByValue(t *testing.T) {
	s := newMarkingSet(4)
	a := Marking{1, 0, 7, 200000}
	if id, fresh := s.add(a); id != 0 || !fresh {
		t.Fatalf("first add = (%d, %v), want (0, true)", id, fresh)
	}
	a[2] = 9 // the set holds its own copy
	if id, fresh := s.add(Marking{1, 0, 7, 200000}); id != 0 || fresh {
		t.Errorf("equal marking = (%d, %v), want (0, false)", id, fresh)
	}
	if id, fresh := s.add(Marking{1, 0, 7, 200001}); id != 1 || !fresh {
		t.Errorf("different marking = (%d, %v), want (1, true)", id, fresh)
	}
	// Enough markings to grow the table several times: ids follow first
	// insertion and every marking is found again after the growth.
	for v := int32(0); v < 5000; v++ {
		s.add(Marking{v, -v, v % 3, 1 << 20})
	}
	for v := int32(0); v < 5000; v++ {
		m := Marking{v, -v, v % 3, 1 << 20}
		id, fresh := s.add(m)
		if fresh || id != v+2 || !slices.Equal(s.at(id), m) {
			t.Fatalf("marking %v = (%d, %v), want (%d, false)", m, id, fresh, v+2)
		}
	}
	if all := s.markings(); len(all) != s.len() || !slices.Equal(all[1], Marking{1, 0, 7, 200001}) {
		t.Errorf("markings() = %d markings, second %v", len(all), all[1])
	}
}

func TestWeightsBecomeProbabilities(t *testing.T) {
	// Two enabled transitions with weights 1 and 3 from the initial
	// marking: probabilities 0.25 / 0.75 (§5.1 firing rule).
	n := &Net{
		Places:  []string{"a", "b", "c"},
		Initial: Marking{1, 0, 0},
		Transitions: []*Transition{
			NewArcTransition("x", map[int]int32{0: 1}, map[int]int32{1: 1}, 1, 1, dist.NewExponential(1)),
			NewArcTransition("y", map[int]int32{0: 1}, map[int]int32{2: 1}, 3, 1, dist.NewExponential(1)),
			NewArcTransition("bx", map[int]int32{1: 1}, map[int]int32{0: 1}, 1, 1, dist.NewExponential(1)),
			NewArcTransition("by", map[int]int32{2: 1}, map[int]int32{0: 1}, 1, 1, dist.NewExponential(1)),
		},
	}
	ss, err := Explore(n, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := ss.Model.EmbeddedDTMC()
	if v := p.At(0, 1); math.Abs(v-0.25) > 1e-12 {
		t.Errorf("p(init→b) = %v, want 0.25", v)
	}
	if v := p.At(0, 2); math.Abs(v-0.75) > 1e-12 {
		t.Errorf("p(init→c) = %v, want 0.75", v)
	}
}

func TestPriorityMasksLowerTransitions(t *testing.T) {
	// Both transitions enabled, but the priority-2 one must win alone —
	// EP(m) selects only maximal priority (§5.1).
	n := &Net{
		Places:  []string{"a", "b", "c"},
		Initial: Marking{1, 0, 0},
		Transitions: []*Transition{
			NewArcTransition("low", map[int]int32{0: 1}, map[int]int32{1: 1}, 100, 1, dist.NewExponential(1)),
			NewArcTransition("high", map[int]int32{0: 1}, map[int]int32{2: 1}, 1, 2, dist.NewExponential(1)),
			NewArcTransition("back", map[int]int32{2: 1}, map[int]int32{0: 1}, 1, 1, dist.NewExponential(1)),
		},
	}
	ss, err := Explore(n, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Place b (index 1) must never receive a token.
	if hit := ss.FindStates(func(m Marking) bool { return m[1] > 0 }); len(hit) != 0 {
		t.Errorf("low-priority transition fired into %d states", len(hit))
	}
	p := ss.Model.EmbeddedDTMC()
	if v := p.At(0, 1); math.Abs(v-1) > 1e-12 {
		t.Errorf("p(init→c)=%v, want 1 (priority masking)", v)
	}
}

func TestMarkingDependentBehaviour(t *testing.T) {
	// A transition whose weight, priority and distribution all depend on
	// the marking: with 2 tokens the fast path dominates.
	n := &Net{
		Places:  []string{"p", "q"},
		Initial: Marking{2, 0},
		Transitions: []*Transition{
			{
				Name:    "serve",
				Enabled: func(m Marking) bool { return m[0] > 0 },
				Fire: func(m Marking) Marking {
					next := m.Clone()
					next[0]--
					next[1]++
					return next
				},
				Weight:   func(m Marking) float64 { return float64(m[0]) },
				Priority: func(Marking) int { return 1 },
				Dist: func(m Marking) dist.Distribution {
					return dist.NewExponential(float64(m[0])) // rate scales with queue
				},
			},
			NewArcTransition("reset", map[int]int32{1: 2}, map[int]int32{0: 2}, 1, 1, dist.NewDeterministic(1)),
		},
	}
	ss, err := Explore(n, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ss.NumStates() != 3 {
		t.Fatalf("states = %d, want 3 (2,0)(1,1)(0,2)", ss.NumStates())
	}
	// The model interns exp(2) and exp(1) separately.
	if ss.Model.NumDistributions() != 3 {
		t.Errorf("distinct distributions = %d, want 3", ss.Model.NumDistributions())
	}
}

func TestDeadMarkingDetected(t *testing.T) {
	n := &Net{
		Places:  []string{"a", "b"},
		Initial: Marking{1, 0},
		Transitions: []*Transition{
			NewArcTransition("onlyway", map[int]int32{0: 1}, map[int]int32{1: 1}, 1, 1, dist.NewExponential(1)),
		},
	}
	_, err := Explore(n, ExploreOptions{})
	if !errors.Is(err, ErrDeadMarking) {
		t.Errorf("err = %v, want ErrDeadMarking", err)
	}
}

func TestMaxStatesGuard(t *testing.T) {
	// Unbounded counter net.
	n := &Net{
		Places:  []string{"a"},
		Initial: Marking{0},
		Transitions: []*Transition{
			{
				Name:    "grow",
				Enabled: func(Marking) bool { return true },
				Fire: func(m Marking) Marking {
					next := m.Clone()
					next[0]++
					return next
				},
				Weight:   func(Marking) float64 { return 1 },
				Priority: func(Marking) int { return 1 },
				Dist:     func(Marking) dist.Distribution { return dist.NewExponential(1) },
			},
		},
	}
	_, err := Explore(n, ExploreOptions{MaxStates: 100})
	if !errors.Is(err, ErrStateSpaceTooLarge) {
		t.Errorf("err = %v, want ErrStateSpaceTooLarge", err)
	}
}

func TestNegativeTokenDetected(t *testing.T) {
	n := &Net{
		Places:  []string{"a"},
		Initial: Marking{0},
		Transitions: []*Transition{
			{
				Name:    "bad",
				Enabled: func(Marking) bool { return true },
				Fire: func(m Marking) Marking {
					next := m.Clone()
					next[0]--
					return next
				},
				Weight:   func(Marking) float64 { return 1 },
				Priority: func(Marking) int { return 1 },
				Dist:     func(Marking) dist.Distribution { return dist.NewExponential(1) },
			},
		},
	}
	if _, err := Explore(n, ExploreOptions{}); err == nil {
		t.Error("negative marking not detected")
	}
}

func TestValidateCatchesStructuralErrors(t *testing.T) {
	good := cycleNet()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid net rejected: %v", err)
	}
	dup := cycleNet()
	dup.Transitions[1].Name = "t1"
	if err := dup.Validate(); err == nil {
		t.Error("duplicate transition names accepted")
	}
	short := cycleNet()
	short.Initial = Marking{1}
	if err := short.Validate(); err == nil {
		t.Error("wrong-size initial marking accepted")
	}
	if (&Net{Places: []string{"a"}, Initial: Marking{0}}).Validate() == nil {
		t.Error("net with no transitions accepted")
	}
}

func TestFindStatesAndPlaceIndex(t *testing.T) {
	ss, err := Explore(cycleNet(), ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bIdx := ss.Net.PlaceIndex("b")
	if bIdx != 1 {
		t.Fatalf("PlaceIndex(b) = %d", bIdx)
	}
	hit := ss.FindStates(func(m Marking) bool { return m[bIdx] == 1 })
	if len(hit) != 1 {
		t.Fatalf("FindStates found %d states, want 1", len(hit))
	}
	if ss.Net.PlaceIndex("zz") != -1 {
		t.Error("PlaceIndex of unknown place should be -1")
	}
}

func TestParallelArcsProduceMixtureKernel(t *testing.T) {
	// Two transitions both mapping m0→m1 with different distributions:
	// the SMP kernel entry is their probability-weighted mixture; checked
	// via kernel values at an s-point.
	n := &Net{
		Places:  []string{"a", "b"},
		Initial: Marking{1, 0},
		Transitions: []*Transition{
			NewArcTransition("fast", map[int]int32{0: 1}, map[int]int32{1: 1}, 1, 1, dist.NewExponential(10)),
			NewArcTransition("slow", map[int]int32{0: 1}, map[int]int32{1: 1}, 1, 1, dist.NewExponential(0.1)),
			NewArcTransition("back", map[int]int32{1: 1}, map[int]int32{0: 1}, 1, 1, dist.NewExponential(1)),
		},
	}
	ss, err := Explore(n, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	u := ss.Model.NewKernelMatrix()
	s := complex128(0.5)
	ss.Model.FillKernel(s, u)
	want := 0.5*dist.NewExponential(10).LST(s) + 0.5*dist.NewExponential(0.1).LST(s)
	if got := u.At(0, 1); math.Abs(real(got-want))+math.Abs(imag(got-want)) > 1e-14 {
		t.Errorf("kernel entry %v, want %v", got, want)
	}
}
