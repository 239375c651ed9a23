package petri_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hydra/internal/dist"
	"hydra/internal/petri"
	"hydra/internal/voting"
)

// refTerm is one transition the reference explorer recorded.
type refTerm struct {
	from, to int32
	prob     float64
	dist     string
}

// referenceExplore is breadth-first exploration keyed by a map from
// each marking's bytes to its index: the explorer Explore replaced. It
// returns the markings in discovery order and every state's terms in
// firing order; numbering, term order and the kernel pattern derived
// from them are what Explore must reproduce exactly.
func referenceExplore(t *testing.T, n *petri.Net) ([]petri.Marking, []refTerm) {
	t.Helper()
	key := func(m petri.Marking) string {
		buf := make([]byte, 4*len(m))
		for i, v := range m {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
		}
		return string(buf)
	}
	index := map[string]int32{}
	var states []petri.Marking
	intern := func(m petri.Marking) (int32, bool) {
		if id, ok := index[key(m)]; ok {
			return id, false
		}
		id := int32(len(states))
		index[key(m)] = id
		states = append(states, m)
		return id, true
	}
	var terms []refTerm
	root, _ := intern(n.Initial.Clone())
	queue := []int32{root}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		m := states[id]
		// EP(m): the enabled transitions of maximal priority.
		var ep []*petri.Transition
		best := 0
		for _, tr := range n.Transitions {
			if !tr.Enabled(m) {
				continue
			}
			switch p := tr.Priority(m); {
			case len(ep) == 0 || p > best:
				best, ep = p, []*petri.Transition{tr}
			case p == best:
				ep = append(ep, tr)
			}
		}
		if len(ep) == 0 {
			t.Fatalf("reference: dead marking %v", m)
		}
		var total float64
		weights := make([]float64, len(ep))
		for k, tr := range ep {
			weights[k] = tr.Weight(m)
			total += weights[k]
		}
		for k, tr := range ep {
			nid, fresh := intern(tr.Fire(m))
			if fresh {
				queue = append(queue, nid)
			}
			terms = append(terms, refTerm{from: id, to: nid, prob: weights[k] / total, dist: tr.Dist(m).String()})
		}
	}
	return states, terms
}

// checkMatchesReference explores n both ways and fails on the first
// difference in state numbering, term arrays or kernel pattern; it also
// checks that CountReachable counts the same states.
func checkMatchesReference(t *testing.T, name string, n *petri.Net) {
	t.Helper()
	wantStates, wantTerms := referenceExplore(t, n)
	ss, err := petri.Explore(n, petri.ExploreOptions{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(ss.States) != len(wantStates) {
		t.Fatalf("%s: %d states, reference %d", name, len(ss.States), len(wantStates))
	}
	for i, m := range ss.States {
		if !slices.Equal(m, wantStates[i]) {
			t.Fatalf("%s: state %d is %v, reference %v", name, i, m, wantStates[i])
		}
	}
	model := ss.Model
	if model.NumTerms() != len(wantTerms) {
		t.Fatalf("%s: %d terms, reference %d", name, model.NumTerms(), len(wantTerms))
	}
	dists := model.Distributions()
	k := 0
	for i := range ss.States {
		to, prob, did := model.TermSlices(i)
		var cols []int
		for j := range to {
			w := wantTerms[k]
			k++
			if w.from != int32(i) || w.to != to[j] || w.prob != prob[j] || w.dist != dists[did[j]].String() {
				t.Fatalf("%s: state %d term %d is (→%d, %v, %s), reference (%d→%d, %v, %s)",
					name, i, j, to[j], prob[j], dists[did[j]], w.from, w.to, w.prob, w.dist)
			}
			if !slices.Contains(cols, int(w.to)) {
				cols = append(cols, int(w.to))
			}
		}
		slices.Sort(cols)
		var got []int
		model.KernelCols(i, func(j int) { got = append(got, j) })
		if !slices.Equal(got, cols) {
			t.Fatalf("%s: kernel row %d has columns %v, reference %v", name, i, got, cols)
		}
	}
	count, err := petri.CountReachable(n, 0)
	if err != nil || count != ss.NumStates() {
		t.Fatalf("%s: CountReachable = %d (err %v), Explore %d states", name, count, err, ss.NumStates())
	}
}

// randomArcNet is a seeded token-conserving net: a ring moving one
// token from each place to the next keeps every marking live, and extra
// transitions move several tokens at once with random weights,
// priorities and distributions.
func randomArcNet(r *rand.Rand) *petri.Net {
	places := 3 + r.Intn(3)
	pool := []dist.Distribution{dist.NewExponential(1), dist.NewUniform(0, 2), dist.NewErlang(2, 3), dist.NewDeterministic(0.5)}
	n := &petri.Net{Initial: make(petri.Marking, places)}
	for p := 0; p < places; p++ {
		n.Places = append(n.Places, fmt.Sprintf("p%d", p))
	}
	for tok := 3 + r.Intn(4); tok > 0; tok-- {
		n.Initial[r.Intn(places)]++
	}
	for p := 0; p < places; p++ {
		n.Transitions = append(n.Transitions, petri.NewArcTransition(fmt.Sprintf("ring%d", p),
			map[int]int32{p: 1}, map[int]int32{(p + 1) % places: 1},
			0.5+r.Float64(), 1, pool[r.Intn(len(pool))]))
	}
	for k := r.Intn(5); k > 0; k-- {
		in := map[int]int32{r.Intn(places): int32(1 + r.Intn(2))}
		moved := int32(0)
		for _, w := range in {
			moved += w
		}
		out := map[int]int32{r.Intn(places): moved}
		n.Transitions = append(n.Transitions, petri.NewArcTransition(fmt.Sprintf("x%d", k),
			in, out, 0.5+r.Float64(), 1+r.Intn(2), pool[r.Intn(len(pool))]))
	}
	return n
}

func TestExploreNumberingMatchesReference(t *testing.T) {
	sys0 := voting.Table1[0].Config
	checkMatchesReference(t, "voting system 0", voting.BuildNet(sys0, voting.ReferenceVariant, voting.DefaultDurations()))
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		checkMatchesReference(t, fmt.Sprintf("random net %d", trial), randomArcNet(r))
	}
}
