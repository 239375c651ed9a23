package main

import (
	"math"
	"math/cmplx"
	"math/rand/v2"
	"time"

	"hydra"
	"hydra/benchmark/specs"
	"hydra/internal/passage"
	"hydra/internal/smp"
)

// The benchmark's error contract, quoted in its output: transform
// vectors agree with the direct solve of the same linear system to
// vectorRelTol of the vector's largest entry; distributed curves equal
// the in-process curve of the same spec to curveAbsTol; moments and
// quantiles recovered from curves agree with their oracles to
// momentRelTol.
const (
	vectorRelTol = 1e-6
	curveAbsTol  = 1e-8
	momentRelTol = 1e-2
)

// maxRelDiff is max|a−b| ÷ max|b|, or +Inf on a length mismatch or a
// non-finite entry.
func maxRelDiff(a, b []complex128) float64 {
	if len(a) != len(b) || len(b) == 0 {
		return math.Inf(1)
	}
	var diff, norm float64
	for i := range a {
		d := cmplx.Abs(a[i] - b[i])
		if math.IsNaN(d) {
			return math.Inf(1)
		}
		diff = max(diff, d)
		norm = max(norm, cmplx.Abs(b[i]))
	}
	if norm == 0 {
		return diff
	}
	return diff / norm
}

// transientOracle assembles T*_·j⃗(s) of Eq. (6)–(7) from one
// single-target Gauss–Seidel solve per target state — the per-column
// route, against the block multi-RHS solve the pipeline uses.
func transientOracle(m *smp.Model, sv *passage.Solver, s complex128, targets []int) ([]complex128, error) {
	h := m.SojournLSTs(s)
	out := make([]complex128, m.N())
	for _, t := range targets {
		col, err := sv.DirectVectorLST(s, []int{t})
		if err != nil {
			return nil, err
		}
		lambda := (1 - h[t]) / (1 - col[t])
		for i := range out {
			if i == t {
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

// checkPoints is check (1): on n seeded s-points of a call, the vector
// the route under test produced agrees with the direct solve of the
// same linear system. Each point is one attempted check. It returns the
// oracle's per-point times, which are the direct route's layer metric.
func checkPoints(r *Run, v *votingModel, out curveOut, rng *rand.Rand, n int) {
	points := out.run.Spec.Points
	sv := passage.NewSolver(v.m.SMP(), passage.Options{})
	var ms []float64
	for _, idx := range specs.Pick(rng, len(points), n) {
		s := points[idx]
		var want []complex128
		var err error
		t0 := time.Now()
		switch out.call.kind {
		case "transient":
			want, err = transientOracle(v.m.SMP(), sv, s, v.targets)
		default:
			want, err = sv.DirectVectorLST(s, v.targets)
			if out.call.kind == "cdf" && err == nil {
				for i := range want {
					want[i] /= s
				}
			}
		}
		ms = append(ms, time.Since(t0).Seconds()*1e3)
		if err != nil {
			r.Check(false, "oracle at s-point %d: %v", idx, err)
			continue
		}
		d := maxRelDiff(out.run.Vectors[idx], want)
		r.Check(d <= vectorRelTol, "s-point %d (%v): route and direct solve differ by %.3g of the vector's largest entry (contract %.0e)", idx, s, d, vectorRelTol)
	}
	if out.call.kind != "transient" {
		r.Set("passage.direct_point_ms", median(ms))
	}
}

// checkCDF is check (2): the curve is a distribution function —
// non-decreasing, inside [0,1] — and the mean recovered from it,
// ∫(1−F)dt by the trapezoid rule over the grid, agrees with the
// time-domain PassageMoments to momentRelTol.
func checkCDF(r *Run, res *hydra.Result, mean float64) {
	const slack = 1e-6 // inversion noise on a flat stretch
	ok := true
	for i, f := range res.Values {
		if math.IsNaN(f) || f < -slack || f > 1+slack || (i > 0 && f < res.Values[i-1]-slack) {
			ok = false
		}
	}
	r.Check(ok, "CDF curve is not a non-decreasing function into [0,1]: %v", res.Values)

	// F is 0 before the first grid point to within the first value.
	got := res.Times[0] * (1 - res.Values[0]/2)
	for i := 1; i < len(res.Times); i++ {
		got += (res.Times[i] - res.Times[i-1]) * (1 - (res.Values[i]+res.Values[i-1])/2)
	}
	r.Check(math.Abs(got-mean) <= momentRelTol*mean, "mean from the CDF curve %.6g, PassageMoments %.6g (contract %.0e relative)", got, mean, momentRelTol)
}

// checkSameCurve is check (3): a distributed run's curve equals the
// in-process curve of the same spec to curveAbsTol.
func checkSameCurve(r *Run, what string, got, want []float64) {
	worst := math.Inf(1)
	if len(got) == len(want) {
		worst = 0
		for i := range got {
			d := math.Abs(got[i] - want[i])
			if math.IsNaN(d) {
				d = math.Inf(1)
			}
			worst = max(worst, d)
		}
	}
	r.Check(worst <= curveAbsTol, "%s curve differs from the in-process curve of the same spec by %.3g (contract %.0e absolute)", what, worst, curveAbsTol)
}
