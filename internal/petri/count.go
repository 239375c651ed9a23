package petri

import "fmt"

// CountReachable performs the same breadth-first exploration as Explore
// but only counts markings, without building the SMP. It tolerates dead
// markings (they are counted and not expanded), which makes it suitable
// for structural searches over candidate nets. maxStates ≤ 0 means
// unbounded.
func CountReachable(n *Net, maxStates int) (_ int, err error) {
	defer recoverEval(&err)
	if err := n.Validate(); err != nil {
		return 0, err
	}
	set := newMarkingSet(len(n.Places))
	set.add(n.Initial)
	var epBuf []*Transition
	for id := int32(0); int(id) < set.len(); id++ {
		m := set.at(id)
		ep := n.enabledMaxPriority(m, epBuf)
		epBuf = ep
		for _, t := range ep {
			next := t.Fire(m)
			if len(next) != len(n.Places) {
				return 0, fmt.Errorf("petri: transition %q produced marking of wrong size", t.Name)
			}
			for p, v := range next {
				if v < 0 {
					return 0, fmt.Errorf("petri: transition %q drove place %s negative", t.Name, n.Places[p])
				}
			}
			if _, fresh := set.add(next); fresh && maxStates > 0 && set.len() > maxStates {
				return 0, fmt.Errorf("%w (%d)", ErrStateSpaceTooLarge, maxStates)
			}
		}
	}
	return set.len(), nil
}
