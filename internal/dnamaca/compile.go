package dnamaca

import (
	"fmt"
	"math"

	"hydra/internal/dist"
	"hydra/internal/petri"
)

// Compiled is a specification lowered onto the SM-SPN engine.
type Compiled struct {
	Spec      *Spec
	Net       *petri.Net
	Constants map[string]float64
	placeIdx  map[string]int
}

// Compile resolves constants, validates the model and produces a Petri
// net whose transition functions interpret the parsed expressions.
func Compile(spec *Spec) (*Compiled, error) {
	m := spec.Model
	if len(m.Places) == 0 {
		return nil, fmt.Errorf("dnamaca: model declares no places")
	}
	placeIdx := make(map[string]int, len(m.Places))
	for i, p := range m.Places {
		if _, dup := placeIdx[p]; dup {
			return nil, fmt.Errorf("dnamaca: duplicate place %q", p)
		}
		placeIdx[p] = i
	}

	consts := make(map[string]float64, len(m.Constants))
	for _, c := range m.Constants {
		if _, isPlace := placeIdx[c.Name]; isPlace {
			return nil, fmt.Errorf("dnamaca: constant %q shadows a place", c.Name)
		}
		v, err := evalReal(resolve(c.Value, nil, consts), nil)
		if err != nil {
			return nil, fmt.Errorf("dnamaca: constant %s: %w", c.Name, err)
		}
		consts[c.Name] = v
	}

	initial := make(petri.Marking, len(m.Places))
	for name, e := range m.Initial {
		i, ok := placeIdx[name]
		if !ok {
			return nil, fmt.Errorf("dnamaca: \\initial sets unknown place %q", name)
		}
		v, err := evalReal(resolve(e, nil, consts), nil)
		if err != nil {
			return nil, fmt.Errorf("dnamaca: initial marking of %s: %w", name, err)
		}
		if !isInteger(v) || v < 0 {
			return nil, fmt.Errorf("dnamaca: initial marking of %s is %v, want a non-negative integer", name, v)
		}
		initial[i] = int32(math.Round(v))
	}

	net := &petri.Net{Places: m.Places, Initial: initial}
	for _, ts := range m.Transitions {
		tr, err := compileTransition(ts, placeIdx, consts)
		if err != nil {
			return nil, err
		}
		net.Transitions = append(net.Transitions, tr)
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return &Compiled{Spec: spec, Net: net, Constants: consts, placeIdx: placeIdx}, nil
}

func compileTransition(ts *TransitionSpec, placeIdx map[string]int, consts map[string]float64) (*petri.Transition, error) {
	where := fmt.Sprintf("dnamaca: transition %s (line %d)", ts.Name, ts.Line)
	if ts.Condition == nil {
		return nil, fmt.Errorf("%s: missing \\condition", where)
	}
	if len(ts.Actions) == 0 {
		return nil, fmt.Errorf("%s: missing \\action", where)
	}
	if ts.Sojourn == nil {
		return nil, fmt.Errorf("%s: missing \\sojourntimeLT (semi-Markov transitions need a firing-time transform)", where)
	}
	// Every expression is resolved once against the places and
	// constants; evaluation then reads the marking by index.
	res := func(e Expr) Expr { return resolve(e, placeIdx, consts) }
	condition, weight, priority, sojourn := res(ts.Condition), res(ts.Weight), res(ts.Priority), res(ts.Sojourn)
	type action struct {
		place string
		slot  int
		value Expr
	}
	actions := make([]action, len(ts.Actions))

	// Validate identifier references at compile time with a zero marking.
	zero := make(petri.Marking, len(placeIdx))
	for _, e := range []Expr{condition, weight, priority} {
		if e == nil {
			continue
		}
		if _, err := evalReal(e, zero); err != nil {
			return nil, fmt.Errorf("%s: %w", where, err)
		}
	}
	for k, a := range ts.Actions {
		slot, ok := placeIdx[a.Place]
		if !ok {
			return nil, fmt.Errorf("%s: action assigns unknown place %q", where, a.Place)
		}
		actions[k] = action{place: a.Place, slot: slot, value: res(a.Value)}
		if _, err := evalReal(actions[k].value, zero); err != nil {
			return nil, fmt.Errorf("%s: action for %s: %w", where, a.Place, err)
		}
	}
	if _, err := buildDistribution(sojourn, zero); err != nil {
		// The zero marking may genuinely produce invalid parameters for a
		// marking-dependent transform (e.g. rate p5·λ with p5=0), so only
		// reject if the expression also fails on the initial-like probe
		// below; here just record structural identifier problems.
		for _, v := range sortedVars(sojourn) {
			if v.kind == refUnknown {
				return nil, fmt.Errorf("%s: \\sojourntimeLT references unknown identifier %q", where, v.name)
			}
		}
	}

	// Marking-dependent distributions are cached per distinct value
	// vector of the transform's free marking variables.
	var sojournPlaces []int
	for _, v := range sortedVars(sojourn) {
		if v.kind == refPlace {
			sojournPlaces = append(sojournPlaces, v.slot)
		}
	}
	distCache := map[string]dist.Distribution{}

	return &petri.Transition{
		Name: ts.Name,
		Enabled: func(m petri.Marking) bool {
			v, err := evalReal(condition, m)
			if err != nil {
				panic(&petri.EvalError{Err: fmt.Errorf("%s: condition: %w", where, err)})
			}
			return v != 0
		},
		Fire: func(m petri.Marking) petri.Marking {
			next := m.Clone()
			for _, a := range actions {
				v, err := evalReal(a.value, m)
				if err != nil {
					panic(&petri.EvalError{Err: fmt.Errorf("%s: action %s: %w", where, a.place, err)})
				}
				if !isInteger(v) {
					panic(&petri.EvalError{Err: fmt.Errorf("%s: action %s yields non-integer %v in marking %v", where, a.place, v, m)})
				}
				next[a.slot] = int32(math.Round(v))
			}
			return next
		},
		Weight: func(m petri.Marking) float64 {
			if weight == nil {
				return 1
			}
			v, err := evalReal(weight, m)
			if err != nil {
				panic(&petri.EvalError{Err: fmt.Errorf("%s: weight: %w", where, err)})
			}
			return v
		},
		Priority: func(m petri.Marking) int {
			if priority == nil {
				return 1
			}
			v, err := evalReal(priority, m)
			if err != nil || !isInteger(v) {
				panic(&petri.EvalError{Err: fmt.Errorf("%s: priority %v (err %v)", where, v, err)})
			}
			return int(math.Round(v))
		},
		Dist: func(m petri.Marking) dist.Distribution {
			var buf [64]byte
			key := buf[:0]
			for _, i := range sojournPlaces {
				key = append(key, byte(m[i]), byte(m[i]>>8), byte(m[i]>>16), byte(m[i]>>24))
			}
			if d, ok := distCache[string(key)]; ok {
				return d
			}
			d, err := buildDistribution(sojourn, m)
			if err != nil {
				panic(&petri.EvalError{Err: fmt.Errorf("%s: sojourn in marking %v: %w", where, m, err)})
			}
			distCache[string(key)] = d
			return d
		},
	}, nil
}

// Linspace returns n equally spaced points from lo to hi inclusive.
func Linspace(lo, hi float64, n int) []float64 {
	if n < 1 {
		return nil
	}
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	return out
}

// maxTPoints bounds a measure's \t_points. Every t-point costs tens of
// transform solves, so a larger grid is a typo, and an unchecked one
// would allocate its t-grid before anything else could refuse it.
const maxTPoints = 10000

// ResolveMeasure evaluates a measure block against an explored state
// space: source and target state sets plus the requested t-grid.
func (c *Compiled) ResolveMeasure(ms *MeasureSpec, ss *petri.StateSpace) (sources, targets []int, ts []float64, err error) {
	sources, err = c.findStates(ms.Source, ss)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("dnamaca: \\sourcecondition: %w", err)
	}
	targets, err = c.findStates(ms.Target, ss)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("dnamaca: \\targetcondition: %w", err)
	}
	if len(sources) == 0 {
		return nil, nil, nil, fmt.Errorf("dnamaca: \\sourcecondition matches no reachable state")
	}
	if len(targets) == 0 {
		return nil, nil, nil, fmt.Errorf("dnamaca: \\targetcondition matches no reachable state")
	}
	scalar := func(e Expr) (float64, error) { return evalReal(resolve(e, nil, c.Constants), nil) }
	lo, err := scalar(ms.TStart)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("dnamaca: \\t_start: %w", err)
	}
	hi, err := scalar(ms.TStop)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("dnamaca: \\t_stop: %w", err)
	}
	np := 10.0
	if ms.TPoints != nil {
		np, err = scalar(ms.TPoints)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("dnamaca: \\t_points: %w", err)
		}
	}
	if !(lo > 0) || !(hi > lo) || !isInteger(np) || np < 1 {
		return nil, nil, nil, fmt.Errorf("dnamaca: invalid t-grid [%v,%v]/%v (need 0 < t_start < t_stop)", lo, hi, np)
	}
	if np > maxTPoints {
		return nil, nil, nil, fmt.Errorf("dnamaca: \\t_points %v exceeds %d", np, maxTPoints)
	}
	return sources, targets, Linspace(lo, hi, int(np)), nil
}

// ResolveStateMeasure evaluates a \statemeasure condition against an
// explored state space, returning the matching states.
func (c *Compiled) ResolveStateMeasure(sm *StateMeasureSpec, ss *petri.StateSpace) ([]int, error) {
	states, err := c.findStates(sm.Condition, ss)
	if err != nil {
		return nil, fmt.Errorf("dnamaca: \\statemeasure{%s}: %w", sm.Name, err)
	}
	if len(states) == 0 {
		return nil, fmt.Errorf("dnamaca: \\statemeasure{%s} matches no reachable state", sm.Name)
	}
	return states, nil
}

// findStates returns the states whose marking satisfies the condition
// e, or the first error evaluating it.
func (c *Compiled) findStates(e Expr, ss *petri.StateSpace) ([]int, error) {
	e = resolve(e, c.placeIdx, c.Constants)
	var evalErr error
	states := ss.FindStates(func(m petri.Marking) bool {
		if evalErr != nil {
			return false
		}
		v, err := evalReal(e, m)
		if err != nil {
			evalErr = err
			return false
		}
		return v != 0
	})
	return states, evalErr
}
