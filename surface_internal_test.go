package hydra

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"hydra/internal/lt"
	"hydra/internal/passage"
	"hydra/internal/pipeline"
)

// resolveRuns solves each of the surface's grid stages again, without a
// cache, for the transform vectors the surface inverted and dropped. The
// surface must have been built with one worker: a single worker visits
// the s-points in one fixed order, so its warm-started solves repeat bit
// for bit.
func resolveRuns(t *testing.T, s *Surface) []*VectorRun {
	t.Helper()
	vrs := make([]*VectorRun, len(s.runs))
	for r, run := range s.runs {
		spec, err := s.model.newSpec(s.model.specName(pipeline.PassageCDF), pipeline.PassageCDF, s.targets, run.times, s.opts)
		if err != nil {
			t.Fatal(err)
		}
		if vrs[r], err = s.model.RunSpec(spec, nil, s.opts); err != nil {
			t.Fatal(err)
		}
	}
	return vrs
}

// readRunJumps is intervalJumps as one ReadRun per (state, run) on the
// runs' vectors: the reference the stored per-state CDFs must reproduce
// bitwise.
func readRunJumps(s *Surface, vrs []*VectorRun) ([]float64, float64, error) {
	jumps := make([]float64, len(s.times)-1)
	vals := make([]float64, len(s.times))
	var head float64
	for st := 0; st < s.model.NumStates(); st++ {
		for r, run := range s.runs {
			res, err := ReadRun(vrs[r], []int{st}, []float64{1}, run.times, s.opts)
			if err != nil {
				return nil, 0, err
			}
			for i, t := range run.times {
				vals[s.gridIndex(t)] = res.Values[i]
			}
		}
		for i, v := range vals {
			if math.IsNaN(v) || v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			vals[i] = v
		}
		if vals[0] > head {
			head = vals[0]
		}
		for i := 0; i+1 < len(vals); i++ {
			if d := vals[i+1] - vals[i]; d > jumps[i] {
				jumps[i] = d
			}
		}
	}
	return jumps, head, nil
}

// votingSurface builds voting system 0's all-voted surface on one
// worker with warm starts, the served configuration.
func votingSurface(t *testing.T) *Surface {
	t.Helper()
	m, err := VotingSystem(0)
	if err != nil {
		t.Fatal(err)
	}
	p2 := m.PlaceIndex("p2")
	targets := m.States(func(mk Marking) bool { return mk[p2] >= 18 })
	s, err := m.PassageSurface("", targets, nil, &Options{Workers: 1, Solver: passage.Options{WarmStart: true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.runs) < 2 {
		t.Fatalf("surface has %d runs; the check needs several", len(s.runs))
	}
	return s
}

// TestIntervalJumpsMatchReadRunLoop holds the surface refinement's
// per-state jump scan to the per-state ReadRun loop, bit for bit, on
// voting system 0's all-voted surface runs.
func TestIntervalJumpsMatchReadRunLoop(t *testing.T) {
	s := votingSurface(t)
	jumps, head := s.intervalJumps()
	wantJumps, wantHead, err := readRunJumps(s, resolveRuns(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(head) != math.Float64bits(wantHead) {
		t.Errorf("head %v, ReadRun loop %v", head, wantHead)
	}
	if len(jumps) != len(wantJumps) {
		t.Fatalf("%d jumps, ReadRun loop %d", len(jumps), len(wantJumps))
	}
	for i := range jumps {
		if math.Float64bits(jumps[i]) != math.Float64bits(wantJumps[i]) {
			t.Errorf("interval %d: jump %v, ReadRun loop %v", i, jumps[i], wantJumps[i])
		}
	}
}

// chainSpec is a three-state cycle idle → stage1 → done → idle with
// exponential hops of rates 2, 5 and 1.
const chainSpec = `
\model{
  \statevector{ \type{short}{idle, stage1, done} }
  \initial{ idle = 1; stage1 = 0; done = 0; }
  \transition{start}{ \condition{idle > 0} \action{ next->idle = idle - 1; next->stage1 = stage1 + 1; } \sojourntimeLT{ expLT(2, s) } }
  \transition{finish}{ \condition{stage1 > 0} \action{ next->stage1 = stage1 - 1; next->done = done + 1; } \sojourntimeLT{ expLT(5, s) } }
  \transition{reset}{ \condition{done > 0} \action{ next->done = done - 1; next->idle = idle + 1; } \sojourntimeLT{ expLT(1, s) } }
}
`

// TestSurfaceColumnMatchesReadRun holds the weighted sum of stored
// per-state CDFs to ReadRun's inversion of the weighted transforms, on
// the same vectors, for 50 random convex weightings (the kind the
// surface serves): on voting system 0 with Euler and on a three-state
// cycle with damped Laguerre. Both inverters are linear, so the two
// differ only by rounding, which must stay within 1e-11. Damped
// Laguerre multiplies its result, rounding included, by e^{σt/c}
// (518 at the cycle's last grid point), so its bound scales with that
// factor.
func TestSurfaceColumnMatchesReadRun(t *testing.T) {
	chain, err := LoadSpec(chainSpec)
	if err != nil {
		t.Fatal(err)
	}
	done := chain.PlaceIndex("done")
	chainTargets := chain.States(func(mk Marking) bool { return mk[done] == 1 })
	const sigma = 0.5 // with TimeScale c = 1
	laguerre, err := chain.PassageSurface("", chainTargets, nil, &Options{
		Workers: 1, Method: "laguerre",
		Laguerre: lt.Laguerre{N: 400, Coeffs: 200, Sigma: sigma, TimeScale: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		name  string
		s     *Surface
		sigma float64
	}{{"voting 0 euler", votingSurface(t), 0}, {"cycle damped laguerre", laguerre, sigma}} {
		s := tc.s
		vrs := resolveRuns(t, s)
		n := s.model.NumStates()
		var worst float64
		for w := 0; w < 50; w++ {
			states := make([]int, 1+rng.Intn(min(n, 40)))
			weights := make([]float64, len(states))
			var total float64
			for k := range states {
				states[k] = rng.Intn(n)
				weights[k] = rng.Float64()
				total += weights[k]
			}
			for k := range weights {
				weights[k] /= total
			}
			got, err := s.weightedCDF(states, weights)
			if err != nil {
				t.Fatal(err)
			}
			for r, run := range s.runs {
				want, err := ReadRun(vrs[r], states, weights, run.times, s.opts)
				if err != nil {
					t.Fatal(err)
				}
				for i, tt := range run.times {
					amp := math.Exp(tc.sigma * tt)
					d := math.Abs(got[s.gridIndex(tt)]-want.Values[i]) / amp
					worst = math.Max(worst, d)
					if d > 1e-11 {
						t.Errorf("%s weighting %d: F(%v) = %.17g, ReadRun %.17g (|Δ|/e^{σt} %.2g)", tc.name, w, tt, got[s.gridIndex(tt)], want.Values[i], d)
					}
				}
			}
		}
		t.Logf("%s: largest |stored − ReadRun|/e^{σt} %.2g over %d grid points", tc.name, worst, len(s.times))
	}
}

// TestSurfaceKeepsOnlyStateCDFs: a built surface holds one float64 per
// (state, grid point) and nothing per s-point.
func TestSurfaceKeepsOnlyStateCDFs(t *testing.T) {
	m, err := LoadSpec(chainSpec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.PassageSurface("", []int{2}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var held int
	for _, run := range s.runs {
		held += cap(run.cdf)
	}
	if want := m.NumStates() * len(s.times); held != want {
		t.Errorf("surface holds %d floats, want NumStates × grid = %d", held, want)
	}
}

// truncatingCache answers every spec with one short vector at point 3,
// as a corrupt checkpoint record would.
type truncatingCache struct{}

func (truncatingCache) Load(*pipeline.SolveSpec) (map[int][]complex128, error) {
	return map[int][]complex128{3: {1}}, nil
}
func (truncatingCache) Append(*pipeline.SolveSpec, int, []complex128) error { return nil }
func (truncatingCache) Sync() error                                         { return nil }

// TestSurfaceRejectsTruncatedCacheVector: a short cached vector fails
// the build with *PointVectorError instead of dropping source terms.
func TestSurfaceRejectsTruncatedCacheVector(t *testing.T) {
	m, err := LoadSpec(chainSpec)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.PassageSurface("", []int{2}, truncatingCache{}, nil)
	var pve *PointVectorError
	if !errors.As(err, &pve) {
		t.Fatalf("surface build on a truncated cache vector returned (%v), want *PointVectorError", err)
	}
	if pve.Point != 3 || pve.Len != 1 || pve.Want != m.NumStates() {
		t.Errorf("PointVectorError = %+v, want Point 3 Len 1 Want %d", pve, m.NumStates())
	}
}
