// Package specs generates the benchmark's inputs: the DNAmaca text of
// the paper's voting net and the seeded request streams. It imports
// nothing from hydra, so the program under test sees only what is
// generated here. The seed moves requests (time grids, source sets,
// probability levels, order, cold-miss times); it never moves a state
// count or a non-zero count.
package specs

import (
	"fmt"
	"math/rand/v2"
	"sort"
)

// Voting is a (CC voters, MM polling units, NN central units) size of
// the paper's voting system.
type Voting struct{ CC, MM, NN int }

// Table 1 sizes the workloads use, with the paper's state counts.
var (
	Tiny    = Voting{5, 5, 3}    // 460 states: the smoke test's size
	System0 = Voting{18, 6, 3}   // 2,061 states
	Farm8k  = Voting{30, 10, 3}  // 8,055 states
	System1 = Voting{60, 25, 4}  // 106,540 states
	System2 = Voting{100, 30, 4} // 249,760 states
)

// Table1States are the paper's Table 1 state counts for the sizes
// above; a generated spec that explores to any other count is wrong.
var Table1States = map[Voting]int{System0: 2061, System1: 106540, System2: 249760}

// votingTemplate is the voting SM-SPN of the paper's Fig. 2 in extended
// DNAmaca: the structure hydra/internal/voting recovers from the
// Table 1 state counts (breakdowns need a cast vote, a voted agent
// re-queues only while a polling unit is free), the calibrated firing
// times of voting.DefaultDurations, and the paper's t5 verbatim. The
// \passage block names the all-voters-queueing sources and all-voted
// targets.
const votingTemplate = `\model{
  \statevector{ \type{short}{p1, p2, p3, p4, p5, p6, p7} }
  \constant{CC}{%d}
  \constant{MM}{%d}
  \constant{NN}{%d}
  \initial{ p1 = CC; p2 = 0; p3 = MM; p4 = 0; p5 = NN; p6 = 0; p7 = 0; }
  \transition{t1}{
    \condition{p1 > 0 && p3 > 0}
    \action{ next->p1 = p1 - 1; next->p3 = p3 - 1; next->p4 = p4 + 1; next->p2 = p2 + 1; }
    \weight{20} \priority{1}
    \sojourntimeLT{ return uniformLT(0.2, 1.0, s); }
  }
  \transition{t2}{
    \condition{p4 > 0 && p5 > 0}
    \action{ next->p4 = p4 - 1; next->p3 = p3 + 1; }
    \weight{20} \priority{1}
    \sojourntimeLT{ return erlangLT(4, 2, s); }
  }
  \transition{t_think}{
    \condition{p2 > 0 && p3 > 0}
    \action{ next->p2 = p2 - 1; next->p1 = p1 + 1; }
    \weight{2} \priority{1}
    \sojourntimeLT{ return erlangLT(0.4, 2, s); }
  }
  \transition{t3_free}{
    \condition{p3 > 0 && p2 > 0}
    \action{ next->p3 = p3 - 1; next->p7 = p7 + 1; }
    \weight{0.6} \priority{1}
    \sojourntimeLT{ return expLT(1, s); }
  }
  \transition{t4}{
    \condition{p5 > 0 && p2 > 0}
    \action{ next->p5 = p5 - 1; next->p6 = p6 + 1; }
    \weight{0.42} \priority{1}
    \sojourntimeLT{ return expLT(1, s); }
  }
  \transition{t_recover_poll}{
    \condition{p7 > 0}
    \action{ next->p7 = p7 - 1; next->p3 = p3 + 1; }
    \weight{0.3} \priority{1}
    \sojourntimeLT{ return uniformLT(5, 20, s); }
  }
  \transition{t_recover_ctr}{
    \condition{p6 > 0}
    \action{ next->p6 = p6 - 1; next->p5 = p5 + 1; }
    \weight{0.3} \priority{1}
    \sojourntimeLT{ return uniformLT(5, 15, s); }
  }
  \transition{t5}{
    \condition{p7 > MM-1}
    \action{
      next->p3 = p3 + MM;
      next->p7 = p7 - MM;
    }
    \weight{1.0}
    \priority{2}
    \sojourntimeLT{
      return (0.8 * uniformLT(1.5,10,s)
      + 0.2 * erlangLT(0.001,5,s));
    }
  }
  \transition{t6}{
    \condition{p6 > NN-1}
    \action{ next->p5 = p5 + NN; next->p6 = p6 - NN; }
    \weight{1.0} \priority{2}
    \sojourntimeLT{ return uniformLT(1, 5, s); }
  }
}
\passage{
  \sourcecondition{p1 == CC}
  \targetcondition{p2 == CC}
  \t_start{1} \t_stop{2} \t_points{2}
}
`

// VotingSpec renders the DNAmaca source of a voting system.
func VotingSpec(v Voting) string {
	return fmt.Sprintf(votingTemplate, v.CC, v.MM, v.NN)
}

// NewRand returns the generator every workload draws its requests
// from: the same (seed, stream) always yields the same sequence.
func NewRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// Jitter returns x moved by a uniform factor in [1-frac, 1+frac].
func Jitter(r *rand.Rand, x, frac float64) float64 {
	return x * (1 + frac*(2*r.Float64()-1))
}

// Grid returns n ascending times spanning [lo, hi], each interior
// spacing jittered by up to ±frac of the even step, so every seed
// inverts at different t-points while the grid covers the same range.
func Grid(r *rand.Rand, lo, hi float64, n int, frac float64) []float64 {
	if n == 1 {
		return []float64{Jitter(r, (lo+hi)/2, frac)}
	}
	step := (hi - lo) / float64(n-1)
	ts := make([]float64, n)
	for i := range ts {
		ts[i] = lo + step*(float64(i)+frac*(2*r.Float64()-1))
	}
	sort.Float64s(ts)
	if ts[0] <= 0 {
		ts[0] = step / 2
	}
	return ts
}

// Pick returns k distinct indices of [0, n) in seeded order.
func Pick(r *rand.Rand, n, k int) []int {
	if k > n {
		k = n
	}
	return r.Perm(n)[:k]
}

// Request classes of the served mix.
const (
	ClassHit    = "hit"    // batched quantile, resident surface
	ClassCached = "cached" // passage CDF on a pooled t-grid: result-cache hit after first touch
	ClassMiss   = "miss"   // density on a never-repeated t: cold 33-point solve
)

// Request is one request of the served mix, abstract over the wire
// format: the serve workload renders it to JSON before the clock starts.
type Request struct {
	Class   string
	Set     int       // index into MixConfig.SourceSets
	Sources []int     // that source set (hit: shared by every level)
	Levels  []float64 // hit: probability levels
	Times   []float64 // cached, miss: t-grid
	Pool    int       // cached: index of the pooled grid (for the oracle)
}

// MixConfig sizes the served mix.
type MixConfig struct {
	Requests   int     // total requests
	CachedFrac float64 // share of pooled passage-CDF requests
	MissFrac   float64 // share of never-repeated density requests
	Levels     int     // probability levels per quantile request
	PoolGrids  int     // distinct pooled t-grids
	PoolTimes  int     // t-points per pooled grid
	// SourceSets are the weightings requests rotate over; the generator
	// picks among them but never invents states.
	SourceSets [][]int
	// Mean is the mean passage time the grids are placed around.
	Mean float64
}

// levelPool are the probability levels quantile requests draw from:
// all inside the surface's default 0.9995 coverage.
var levelPool = []float64{0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999}

// Mix generates the served request stream: classes in seeded order with
// exact class counts (so every seed sends the same number of misses),
// quantile levels and source sets drawn per request, pooled grids fixed
// per seed, and every miss at its own never-repeated time.
func Mix(r *rand.Rand, c MixConfig) (reqs []Request, pool [][]float64) {
	pool = make([][]float64, c.PoolGrids)
	for i := range pool {
		pool[i] = Grid(r, 0.4*c.Mean, 2.2*c.Mean, c.PoolTimes, 0.45)
	}
	nMiss := int(float64(c.Requests)*c.MissFrac + 0.5)
	nCached := int(float64(c.Requests)*c.CachedFrac + 0.5)
	classes := make([]string, 0, c.Requests)
	for i := 0; i < c.Requests; i++ {
		switch {
		case i < nMiss:
			classes = append(classes, ClassMiss)
		case i < nMiss+nCached:
			classes = append(classes, ClassCached)
		default:
			classes = append(classes, ClassHit)
		}
	}
	r.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })

	reqs = make([]Request, len(classes))
	strata := r.Perm(nMiss)
	miss := 0
	for i, class := range classes {
		q := Request{Class: class, Set: r.IntN(len(c.SourceSets))}
		q.Sources = c.SourceSets[q.Set]
		switch class {
		case ClassHit:
			idx := Pick(r, len(levelPool), c.Levels)
			sort.Ints(idx)
			for _, k := range idx {
				q.Levels = append(q.Levels, levelPool[k])
			}
		case ClassCached:
			q.Pool = r.IntN(len(pool))
			q.Times = pool[q.Pool]
		case ClassMiss:
			// One miss per stratum of [0.5, 2]·mean, in seeded order at a
			// seeded offset: every seed's misses cover the same range
			// (so their total work is steady) and no t repeats.
			u := (float64(strata[miss]) + r.Float64()) / float64(nMiss)
			q.Times = []float64{c.Mean * (0.5 + 1.5*u)}
			miss++
		}
		reqs[i] = q
	}
	return reqs, pool
}
