package petri

import (
	"errors"
	"fmt"

	"hydra/internal/smp"
)

// ErrDeadMarking is returned when reachability encounters a marking with
// no priority-enabled transitions: the underlying process would be
// absorbing, which the passage-time theory (irreducible SMP) excludes.
var ErrDeadMarking = errors.New("petri: dead marking reached")

// ErrStateSpaceTooLarge is returned when exploration exceeds MaxStates.
var ErrStateSpaceTooLarge = errors.New("petri: state space exceeds MaxStates")

// EvalError is the panic value with which a transition's callbacks
// report that they cannot be evaluated in a marking: a condition,
// action, weight, priority or firing-time expression that fails there.
// Explore and CountReachable return it as their error; any other panic
// propagates.
type EvalError struct{ Err error }

func (e *EvalError) Error() string { return e.Err.Error() }

func (e *EvalError) Unwrap() error { return e.Err }

// recoverEval turns an EvalError panic into *err.
func recoverEval(err *error) {
	if r := recover(); r != nil {
		ee, ok := r.(*EvalError)
		if !ok {
			panic(r)
		}
		*err = fmt.Errorf("petri: %w", ee)
	}
}

// ExploreOptions bounds and tunes state-space generation.
type ExploreOptions struct {
	// MaxStates aborts exploration beyond this many markings
	// (default 5,000,000).
	MaxStates int
	// StoreLabels attaches marking strings as state labels on the SMP —
	// convenient for debugging, expensive at millions of states.
	StoreLabels bool
}

func (o ExploreOptions) withDefaults() ExploreOptions {
	if o.MaxStates == 0 {
		o.MaxStates = 5_000_000
	}
	return o
}

// StateSpace is the result of reachability analysis: the tangible
// markings, their index mapping, and the induced semi-Markov process.
type StateSpace struct {
	Net    *Net
	States []Marking // state index → marking
	Model  *smp.Model
}

// NumStates returns the number of reachable markings.
func (ss *StateSpace) NumStates() int { return len(ss.States) }

// FindStates returns the indices of all states whose marking satisfies
// the predicate — how passage source and target sets are specified
// (e.g. "all markings with MM tokens in p7").
func (ss *StateSpace) FindStates(pred func(Marking) bool) []int {
	var out []int
	for i, m := range ss.States {
		if pred(m) {
			out = append(out, i)
		}
	}
	return out
}

// Explore performs a breadth-first reachability analysis from the
// initial marking, building the SMP kernel as it goes: in each marking m
// the priority-enabled transitions EP(m) fire with probability
// w_t(m)/Σw(m) after a delay drawn from d_t(m) (§5.1).
func Explore(n *Net, opts ExploreOptions) (_ *StateSpace, err error) {
	defer recoverEval(&err)
	opts = opts.withDefaults()
	if err := n.Validate(); err != nil {
		return nil, err
	}

	// Transitions go straight into the SMP builder, which interns their
	// distributions; it grows with the state space. Ids are handed out
	// in discovery order, so the breadth-first queue is simply the ids
	// in ascending order.
	b := smp.NewBuilder(1)
	set := newMarkingSet(len(n.Places))
	set.add(n.Initial)
	var epBuf []*Transition
	var weights []float64
	for id := int32(0); int(id) < set.len(); id++ {
		m := set.at(id)
		ep := n.enabledMaxPriority(m, epBuf)
		epBuf = ep
		if len(ep) == 0 {
			return nil, fmt.Errorf("%w: %v", ErrDeadMarking, m)
		}
		weights = weights[:0]
		var totalW float64
		for _, t := range ep {
			w := t.Weight(m)
			if !(w > 0) {
				return nil, fmt.Errorf("petri: transition %q has non-positive weight %v in marking %v", t.Name, w, m)
			}
			weights = append(weights, w)
			totalW += w
		}
		for k, t := range ep {
			next := t.Fire(m)
			if len(next) != len(n.Places) {
				return nil, fmt.Errorf("petri: transition %q produced marking of wrong size", t.Name)
			}
			for p, v := range next {
				if v < 0 {
					return nil, fmt.Errorf("petri: transition %q drove place %s negative in %v", t.Name, n.Places[p], m)
				}
			}
			nid, fresh := set.add(next)
			if fresh {
				if set.len() > opts.MaxStates {
					return nil, fmt.Errorf("%w (%d)", ErrStateSpaceTooLarge, opts.MaxStates)
				}
				b.EnsureStates(set.len())
			}
			b.Add(int(id), int(nid), weights[k]/totalW, t.Dist(m))
		}
	}

	states := set.markings()
	if opts.StoreLabels {
		for i, m := range states {
			b.SetLabel(i, m.String())
		}
	}
	model, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("petri: building SMP from reachability graph: %w", err)
	}
	return &StateSpace{Net: n, States: states, Model: model}, nil
}
