package passage

import (
	"strconv"
	"strings"
)

// maxPrepared bounds the per-solver prepared cache. A resident worker
// typically sees a handful of target sets per model; past the bound the
// cache resets rather than grow without limit.
const maxPrepared = 16

// quantity names the fixed point a prepared entry belongs to. It is
// part of the prepared-cache key, so a passage accumulator can never
// seed a transient solve over the same target set, or the reverse.
type quantity byte

const (
	passageQ   quantity = 'L' // z = e⃗ + U′·z, closed by L = U·z
	transientQ quantity = 'T' // z = g + U·z, the answer itself
)

// prepared holds the warm-start state of one (quantity, target set), so
// a contour segment carries it from point to point. Entries live in
// Solver.preps keyed by preparedKey.
type prepared struct {
	key string

	// dirZ is the last converged fixed point z of the column driver,
	// which the next point's Gauss–Seidel refinement sweeps in place;
	// zWarm says it is usable. dirX is the last converged Gauss–Seidel
	// iterate of the direct route. dirCold records the depth of the
	// segment's most recent cold solve, the baseline for sweeps-saved
	// estimates.
	dirZ    []complex128
	zWarm   bool
	dirX    []complex128
	dirWarm bool
	dirCold int
}

// preparedKey canonically names a (quantity, target list) pair. The
// target order is kept as given: a permutation of one set only costs
// its own cold start.
func preparedKey(q quantity, targets []int) string {
	var b strings.Builder
	b.WriteByte(byte(q))
	for i, t := range targets {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(t))
	}
	return b.String()
}

// preparedFor returns (creating if needed) the prepared entry for a
// preparedKey.
func (sv *Solver) preparedFor(key string) *prepared {
	if sv.preps == nil {
		sv.preps = make(map[string]*prepared)
	}
	if p, ok := sv.preps[key]; ok {
		return p
	}
	if len(sv.preps) >= maxPrepared {
		sv.preps = make(map[string]*prepared, 1)
	}
	p := &prepared{key: key}
	sv.preps[key] = p
	return p
}

// noteWarm records the warm-start outcome of a converged solve of
// depth sv.lastSweeps: a cold solve resets the prepared entry's baseline
// depth, a warm one charges its sweep count against it.
func (sv *Solver) noteWarm(warm bool) {
	p := sv.cur
	sv.lastWarm, sv.lastSaved = warm, 0
	if warm {
		if d := p.dirCold - sv.lastSweeps; d > 0 {
			sv.lastSaved = d
		}
	} else {
		p.dirCold = sv.lastSweeps
	}
}

// resizeC returns v resized to n elements, reallocating only on growth.
// Contents are unspecified; callers overwrite.
func resizeC(v []complex128, n int) []complex128 {
	if cap(v) < n {
		return make([]complex128, n)
	}
	return v[:n]
}
