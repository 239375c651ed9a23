package passage

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"hydra/internal/lt"
	"hydra/internal/petri"
	"hydra/internal/smp"
	"hydra/internal/voting"
)

// votingSystem0Grid returns voting system 0 with the all-voted targets
// and the Euler contours of eight t-points around the passage mean, one
// contour of 33 s-points per t.
func votingSystem0Grid(t *testing.T) (*smp.Model, []int, [][]complex128) {
	t.Helper()
	ss, err := voting.BuildSystem(0, voting.DefaultDurations(), petri.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	targets := voting.VotedAtLeast(ss, voting.Table1[0].Config.CC)
	mo, err := PassageMoments(ss.Model, targets, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mean, _ := mo.WeightedMoments(SingleSource(voting.InitialState(ss)))
	var contours [][]complex128
	for _, f := range []float64{0.5, 0.75, 1, 1.25, 1.5, 2, 2.5, 3} {
		contours = append(contours, lt.DefaultEuler().Points([]float64{f * mean}))
	}
	return ss.Model, targets, contours
}

// maxAbsDiff is max_i |a_i − b_i|.
func maxAbsDiff(a, b []complex128) float64 {
	var d float64
	for i := range b {
		d = math.Max(d, cmplx.Abs(a[i]-b[i]))
	}
	return d
}

// TestWarmGaussSeidelOnVotingSystem0 guards the warm route's
// Gauss–Seidel refinement where it is used: on voting system 0's
// all-voted passage and transient over eight Euler contours, the warm
// answers of every t-point's contour are no further from a tightly
// converged oracle than the cold series' answers (the largest error
// over the contour's 33 s-points and all states, which is what the
// inversion at that t sees), in at most 0.3x the cold sweeps. Single
// s-points may go either way inside the tolerance: the two iterations
// stop at different iterates of one fixed point. Each contour starts a
// fresh warm solver, as the pipeline restarts cold at every t-point's
// segment.
func TestWarmGaussSeidelOnVotingSystem0(t *testing.T) {
	m, targets, contours := votingSystem0Grid(t)
	tight := Options{Epsilon: 1e-14, GSEpsilon: 1e-14}
	for _, q := range []struct {
		name  string
		solve func(sv *Solver, s complex128) ([]complex128, error)
	}{
		{"passage", func(sv *Solver, s complex128) ([]complex128, error) {
			v, _, err := sv.VectorLST(s, targets)
			return v, err
		}},
		{"transient", func(sv *Solver, s complex128) ([]complex128, error) {
			return sv.TransientVectorLST(s, targets)
		}},
	} {
		oracle := NewSolver(m, tight)
		cold := NewSolver(m, Options{})
		coldSweeps, warmSweeps := 0, 0
		var worstCold, worstWarm float64
		for c, pts := range contours {
			warm := NewSolver(m, Options{WarmStart: true})
			var eCold, eWarm float64
			for k, s := range pts {
				want, err := q.solve(oracle, s)
				if err != nil {
					t.Fatalf("%s contour %d point %d: oracle: %v", q.name, c, k, err)
				}
				gotCold, err := q.solve(cold, s)
				if err != nil {
					t.Fatalf("%s contour %d point %d: cold: %v", q.name, c, k, err)
				}
				coldSweeps += cold.LastSweeps()
				gotWarm, err := q.solve(warm, s)
				if err != nil {
					t.Fatalf("%s contour %d point %d: warm: %v", q.name, c, k, err)
				}
				warmSweeps += warm.LastSweeps()
				if w, _ := warm.LastWarmStart(); w != (k > 0) {
					t.Fatalf("%s contour %d point %d: warm start %v", q.name, c, k, w)
				}
				eCold = math.Max(eCold, maxAbsDiff(gotCold, want))
				eWarm = math.Max(eWarm, maxAbsDiff(gotWarm, want))
			}
			if eWarm > eCold {
				t.Errorf("%s t-point %d: warm error %.3g > cold error %.3g", q.name, c, eWarm, eCold)
			}
			worstCold, worstWarm = math.Max(worstCold, eCold), math.Max(worstWarm, eWarm)
		}
		ratio := float64(warmSweeps) / float64(coldSweeps)
		t.Logf("%s: sweeps cold %d, warm %d (%.3f); worst error cold %.3g, warm %.3g",
			q.name, coldSweeps, warmSweeps, ratio, worstCold, worstWarm)
		if ratio > 0.3 {
			t.Errorf("%s: warm sweeps %d are %.3f of cold %d, want <= 0.3", q.name, warmSweeps, ratio, coldSweeps)
		}
	}
}

// TestWarmCloseMatchesFullProduct holds closePassage's target-rows-only
// close to the full U·z product on Gauss–Seidel-converged iterates: the
// refinement leaves z = e⃗ + U′·z true to the tail bound, so the
// non-target rows of U·z are z itself within Epsilon. It runs on voting
// system 0's all-voted contours and on random semi-Markov models.
func TestWarmCloseMatchesFullProduct(t *testing.T) {
	check := func(name string, m *smp.Model, targets []int, contours [][]complex128) int {
		closes := 0
		for c, pts := range contours {
			sv := NewSolver(m, Options{WarmStart: true})
			for k, s := range pts {
				if _, _, err := sv.VectorLST(s, targets); err != nil {
					t.Fatalf("%s contour %d point %d: %v", name, c, k, err)
				}
				if w, _ := sv.LastWarmStart(); !w {
					continue
				}
				z := sv.cur.dirZ
				short, full := sv.closePassage(z, true), sv.closePassage(z, false)
				if d := maxAbsDiff(short, full); d > sv.opts.Epsilon {
					t.Errorf("%s contour %d point %d (s=%v): target-rows close differs from U·z by %.3g", name, c, k, s, d)
				}
				closes++
			}
		}
		return closes
	}
	m, targets, contours := votingSystem0Grid(t)
	if check("voting system 0", m, targets, contours[:2]) == 0 {
		t.Fatal("voting system 0: no warm point was closed")
	}
	r := rand.New(rand.NewSource(41))
	closes := 0
	for trial := 0; trial < 30; trial++ {
		n := 3 + r.Intn(30)
		closes += check("random SMP", randomSMP(r, n), randomTargets(r, n), [][]complex128{contourPoints(r, 6)})
	}
	if closes == 0 {
		t.Fatal("random SMPs: no warm point was closed")
	}
}

// FuzzWarmRefine walks a vertical contour over a random semi-Markov
// model with a WarmStart solver and a cold one side by side, anywhere in
// Re s ∈ (−4, 4). A point with Re s ≤ 0 must fail on both routes with
// ErrHalfPlane. Every other point either succeeds on both routes, with
// answers within the 1e-6 that TestWarmStartMatchesColdWithinTolerance
// holds, or fails on both with ErrNoConvergence: the Gauss–Seidel
// refinement must neither drift from the series' fixed point nor turn a
// solvable point into an error.
func FuzzWarmRefine(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(0), 0.8, 0.35)
	f.Add(int64(77), uint8(12), uint8(2), 0.05, 1.5)
	f.Add(int64(9), uint8(30), uint8(1), 2.5, 0.1)
	f.Add(int64(4), uint8(3), uint8(0), 0.0, 0.5)
	f.Fuzz(func(t *testing.T, seed int64, size, nTargets uint8, re, step float64) {
		if math.IsNaN(re) || math.IsInf(re, 0) || math.IsNaN(step) || math.IsInf(step, 0) {
			t.Skip()
		}
		n := 2 + int(size)%31
		r := rand.New(rand.NewSource(seed))
		m := randomSMP(r, n)
		targets := r.Perm(n)[:1+int(nTargets)%min(3, n)]
		// Re s in (−4, 4), both sides of the imaginary axis; Im s steps
		// in [0.01, 2.01).
		re = math.Mod(re, 4)
		step = 0.01 + math.Mod(math.Abs(step), 2)
		cold := NewSolver(m, Options{})
		warm := NewSolver(m, Options{WarmStart: true})
		for k := 0; k < 8; k++ {
			s := complex(re, float64(k)*step)
			want, _, errCold := cold.VectorLST(s, targets)
			got, _, errWarm := warm.VectorLST(s, targets)
			switch {
			case !(real(s) > 0):
				if !errors.Is(errCold, ErrHalfPlane) || !errors.Is(errWarm, ErrHalfPlane) {
					t.Fatalf("s=%v: cold error %v, warm error %v; want ErrHalfPlane from both", s, errCold, errWarm)
				}
			case errCold != nil || errWarm != nil:
				if !errors.Is(errCold, ErrNoConvergence) || !errors.Is(errWarm, ErrNoConvergence) {
					t.Fatalf("s=%v: cold error %v, warm error %v; want both ErrNoConvergence or neither", s, errCold, errWarm)
				}
			default:
				if d := maxAbsDiff(got, want); d > 1e-6 {
					t.Fatalf("s=%v: warm and cold differ by %g", s, d)
				}
			}
		}
	})
}
