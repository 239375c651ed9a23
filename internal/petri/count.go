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
	index := make(map[string]struct{}, 1024)
	var queue []Marking
	add := func(m Marking) bool {
		key := m.Key()
		if _, ok := index[key]; ok {
			return false
		}
		index[key] = struct{}{}
		queue = append(queue, m)
		return true
	}
	add(n.Initial.Clone())
	var epBuf []*Transition
	for head := 0; head < len(queue); head++ {
		m := queue[head]
		ep := n.enabledMaxPriority(m, epBuf)
		epBuf = ep
		for _, t := range ep {
			next := t.Fire(m)
			for p, v := range next {
				if v < 0 {
					return 0, fmt.Errorf("petri: transition %q drove place %s negative", t.Name, n.Places[p])
				}
			}
			if add(next) && maxStates > 0 && len(index) > maxStates {
				return 0, fmt.Errorf("%w (%d)", ErrStateSpaceTooLarge, maxStates)
			}
		}
	}
	return len(index), nil
}
