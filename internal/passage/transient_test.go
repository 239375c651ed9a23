package passage

import (
	"math/cmplx"
	"math/rand"
	"testing"
)

// transientOracle assembles T*_·j⃗(s) from Pyke's relations as the
// paper states them (Eq. 6–7),
//
//	T*_ij⃗(s) = (1/s)·[Λ_i·1[i∈j⃗] + Σ_{k∈j⃗, k≠i} Λ_k·L_ik(s)]
//	Λ_k      = (1 − h*_k(s)) / (1 − L_kk(s))
//
// from one single-target DirectVectorLST column L_·k(s) per distinct
// target k. It shares nothing with the column driver but the kernel
// fill, which is what makes it the differential oracle for
// TransientVectorLST.
func transientOracle(sv *Solver, s complex128, targets []int) ([]complex128, error) {
	m := sv.Model()
	h := m.SojournLSTs(s)
	out := make([]complex128, m.N())
	seen := make(map[int]bool, len(targets))
	for _, k := range targets {
		if seen[k] {
			continue
		}
		seen[k] = true
		col, err := sv.DirectVectorLST(s, []int{k})
		if err != nil {
			return nil, err
		}
		lambda := (1 - h[k]) / (1 - col[k])
		for i := range out {
			if i == k {
				out[i] += lambda
			} else {
				out[i] += lambda * col[i]
			}
		}
	}
	for i := range out {
		out[i] /= s
	}
	return out, nil
}

// TestTransientVectorMatchesPerTargetLoop is the differential test of
// the renewal route: on random models, the one-column solve of
// z = g + U·z agrees with the Eq. (6)–(7) per-target assembly for every
// source state.
func TestTransientVectorMatchesPerTargetLoop(t *testing.T) {
	r := rand.New(rand.NewSource(85))
	for trial := 0; trial < 20; trial++ {
		n := 3 + r.Intn(10)
		m := randomSMP(r, n)
		sv := NewSolver(m, Options{})
		targets := randomTargets(r, n)
		s := complex(0.3+1.5*r.Float64(), 2*(r.Float64()-0.5))

		got, err := sv.TransientVectorLST(s, targets)
		if err != nil {
			t.Fatalf("trial %d: vector transient: %v", trial, err)
		}
		want, err := transientOracle(sv, s, targets)
		if err != nil {
			t.Fatalf("trial %d: oracle: %v", trial, err)
		}
		for i := range want {
			if d := cmplx.Abs(got[i] - want[i]); d > 1e-7 {
				t.Errorf("trial %d targets %v: T*_%d = %v (renewal) vs %v (Eq. 6–7), diff %g",
					trial, targets, i, got[i], want[i], d)
			}
		}
	}
}

// Warm-started transient solves walk a contour from neighbour to
// neighbour like passage ones; each point must still match a cold
// solve.
func TestWarmStartTransientMatchesCold(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	warmed := 0
	for trial := 0; trial < 8; trial++ {
		n := 4 + r.Intn(8)
		m := randomSMP(r, n)
		targets := randomTargets(r, n)
		warm := NewSolver(m, Options{WarmStart: true})
		cold := NewSolver(m, Options{})
		for _, s := range contour(0.3+r.Float64(), 12) {
			want, err := cold.TransientVectorLST(s, targets)
			if err != nil {
				t.Fatal(err)
			}
			got, err := warm.TransientVectorLST(s, targets)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if d := cmplx.Abs(got[i] - want[i]); d > 1e-6 {
					t.Fatalf("trial %d s=%v state %d: warm %v vs cold %v (diff %g)",
						trial, s, i, got[i], want[i], d)
				}
			}
			if w, _ := warm.LastWarmStart(); w {
				warmed++
				if warm.LastSweeps() <= 0 {
					t.Fatalf("warm transient solve reported depth %d", warm.LastSweeps())
				}
			}
		}
	}
	if warmed == 0 {
		t.Fatal("warm path never engaged on a transient contour")
	}
}

// The prepared cache is keyed on (quantity, targets): alternating
// passage and transient solves over one target set on one warm solver
// must never seed either fixed point from the other's solution.
func TestWarmStartAlternatesPassageAndTransient(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	m := randomSMP(r, 9)
	targets := []int{2, 7}
	warm := NewSolver(m, Options{WarmStart: true})
	cold := NewSolver(m, Options{})
	warmed := map[string]int{}
	check := func(kind string, s complex128, got, want []complex128) {
		t.Helper()
		for i := range want {
			if d := cmplx.Abs(got[i] - want[i]); d > 1e-6 {
				t.Fatalf("%s s=%v state %d: warm %v vs cold %v (diff %g)", kind, s, i, got[i], want[i], d)
			}
		}
		if w, _ := warm.LastWarmStart(); w {
			warmed[kind]++
		}
	}
	for _, s := range contour(0.5, 10) {
		wantL, _, err := cold.VectorLST(s, targets)
		if err != nil {
			t.Fatal(err)
		}
		gotL, _, err := warm.VectorLST(s, targets)
		if err != nil {
			t.Fatal(err)
		}
		check("passage", s, gotL, wantL)

		wantT, err := cold.TransientVectorLST(s, targets)
		if err != nil {
			t.Fatal(err)
		}
		gotT, err := warm.TransientVectorLST(s, targets)
		if err != nil {
			t.Fatal(err)
		}
		check("transient", s, gotT, wantT)
	}
	// Both quantities keep their own seed, so both warm up after their
	// own first point despite the interleaving.
	if warmed["passage"] == 0 || warmed["transient"] == 0 {
		t.Errorf("warm solves per quantity %v, want both engaged", warmed)
	}
}
