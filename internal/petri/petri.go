// Package petri implements the semi-Markov stochastic Petri net (SM-SPN)
// formalism of §5.1: a Place-Transition net extended with
// marking-dependent priorities P, weights W and firing-time distributions
// D. Transition selection is probabilistic by weight among the
// highest-priority enabled transitions — not a race between sampled
// firing times — which is exactly what lets the reachability graph map
// directly onto a semi-Markov chain.
package petri

import (
	"errors"
	"fmt"

	"hydra/internal/dist"
)

// Marking is a vector of token counts indexed by place.
type Marking []int32

// Clone returns a copy of the marking.
func (m Marking) Clone() Marking {
	out := make(Marking, len(m))
	copy(out, m)
	return out
}

// String renders the marking with place names.
func (m Marking) String() string {
	return fmt.Sprintf("%v", []int32(m))
}

// Transition is an SM-SPN transition. The functional form accommodates
// both arc-structured nets (see NewArcTransition) and the general
// marking-dependent conditions and actions of the DNAmaca language
// (e.g. \condition{p7 > MM-1}, \action{next->p3 = p3 + MM; ...}).
type Transition struct {
	Name string
	// Enabled is the net-enabling predicate EN.
	Enabled func(m Marking) bool
	// Fire returns the successor marking; it must not modify m.
	Fire func(m Marking) Marking
	// Weight is the marking-dependent weight function W (must be > 0
	// whenever Enabled).
	Weight func(m Marking) float64
	// Priority is the marking-dependent priority function P; among
	// enabled transitions only those of maximal priority may fire.
	Priority func(m Marking) int
	// Dist is the marking-dependent firing-time distribution D.
	Dist func(m Marking) dist.Distribution
}

// Net is an SM-SPN: places, transitions and an initial marking.
type Net struct {
	Places      []string
	Transitions []*Transition
	Initial     Marking
}

// PlaceIndex returns the index of a named place, or -1.
func (n *Net) PlaceIndex(name string) int {
	for i, p := range n.Places {
		if p == name {
			return i
		}
	}
	return -1
}

// Validate checks structural well-formedness.
func (n *Net) Validate() error {
	if len(n.Places) == 0 {
		return errors.New("petri: net has no places")
	}
	if len(n.Initial) != len(n.Places) {
		return fmt.Errorf("petri: initial marking has %d places, net has %d", len(n.Initial), len(n.Places))
	}
	if len(n.Transitions) == 0 {
		return errors.New("petri: net has no transitions")
	}
	seen := map[string]bool{}
	for _, t := range n.Transitions {
		if t.Name == "" {
			return errors.New("petri: transition with empty name")
		}
		if seen[t.Name] {
			return fmt.Errorf("petri: duplicate transition name %q", t.Name)
		}
		seen[t.Name] = true
		if t.Enabled == nil || t.Fire == nil || t.Weight == nil || t.Dist == nil {
			return fmt.Errorf("petri: transition %q missing a required function", t.Name)
		}
	}
	return nil
}

// NewArcTransition builds a classical arc-structured transition: enabled
// when every input place holds at least its arc weight; firing removes
// the input tokens and deposits the output tokens. Weight and priority
// are constants and d is the firing distribution.
func NewArcTransition(name string, in, out map[int]int32, weight float64, priority int, d dist.Distribution) *Transition {
	return &Transition{
		Name: name,
		Enabled: func(m Marking) bool {
			for p, w := range in {
				if m[p] < w {
					return false
				}
			}
			return true
		},
		Fire: func(m Marking) Marking {
			next := m.Clone()
			for p, w := range in {
				next[p] -= w
			}
			for p, w := range out {
				next[p] += w
			}
			return next
		},
		Weight:   func(Marking) float64 { return weight },
		Priority: func(Marking) int { return priority },
		Dist:     func(Marking) dist.Distribution { return d },
	}
}

// enabledMaxPriority computes EP(m): the enabled transitions of maximal
// priority.
func (n *Net) enabledMaxPriority(m Marking, buf []*Transition) []*Transition {
	buf = buf[:0]
	best := 0
	for _, t := range n.Transitions {
		if !t.Enabled(m) {
			continue
		}
		p := t.Priority(m)
		switch {
		case len(buf) == 0 || p > best:
			best = p
			buf = append(buf[:0], t)
		case p == best:
			buf = append(buf, t)
		}
	}
	return buf
}
