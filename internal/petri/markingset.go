package petri

import "slices"

// markingSet interns the markings of one net: every distinct marking
// gets the next id, 0, 1, 2, … in the order it is first added. The
// tokens of all markings sit back to back in one flat arena, id k at
// arena[k·width:(k+1)·width], and an open-addressed table of ids hashed
// on those tokens finds a marking again — no key string per firing.
type markingSet struct {
	width int
	arena []int32
	// table holds id+1 per slot (0 is empty); its length is a power of
	// two kept at least twice the number of markings, so linear probes
	// stay short.
	table []int32
	n     int
}

func newMarkingSet(width int) *markingSet {
	return &markingSet{width: width, table: make([]int32, 1024)}
}

// len returns the number of distinct markings added.
func (s *markingSet) len() int { return s.n }

// at returns marking id. It aliases the arena: it must not be modified,
// and it stays valid (if no longer shared) after later adds.
func (s *markingSet) at(id int32) Marking {
	lo := int(id) * s.width
	return s.arena[lo : lo+s.width : lo+s.width]
}

// hash mixes the tokens of m (FNV-1a over 32-bit words, then a final
// avalanche so the low bits the table masks with depend on every token).
func hash(m Marking) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range m {
		h ^= uint64(uint32(v))
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// add interns m, copying it into the arena if it is new, and returns its
// id and whether it was new.
func (s *markingSet) add(m Marking) (id int32, fresh bool) {
	mask := uint64(len(s.table) - 1)
	for i := hash(m) & mask; ; i = (i + 1) & mask {
		slot := s.table[i]
		if slot == 0 {
			id = int32(s.n)
			s.table[i] = id + 1
			if cap(s.arena)-len(s.arena) < len(m) {
				// Double, rather than append's 1.25x for large slices:
				// half the copying and garbage over the whole exploration.
				s.arena = append(make([]int32, 0, 2*cap(s.arena)+len(m)), s.arena...)
			}
			s.arena = append(s.arena, m...)
			s.n++
			if 2*s.n > len(s.table) {
				s.grow()
			}
			return id, true
		}
		if slices.Equal(s.at(slot-1), m) {
			return slot - 1, false
		}
	}
}

// grow doubles the table and re-inserts every id.
func (s *markingSet) grow() {
	s.table = make([]int32, 2*len(s.table))
	mask := uint64(len(s.table) - 1)
	for id := int32(0); int(id) < s.n; id++ {
		i := hash(s.at(id)) & mask
		for s.table[i] != 0 {
			i = (i + 1) & mask
		}
		s.table[i] = id + 1
	}
}

// markings returns every marking in id order, each a sub-slice of the
// final arena, so no earlier, outgrown arena stays reachable.
func (s *markingSet) markings() []Marking {
	out := make([]Marking, s.n)
	for id := range out {
		out[id] = s.at(int32(id))
	}
	return out
}
