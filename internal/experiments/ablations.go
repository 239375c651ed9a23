package experiments

import (
	"fmt"
	"math/cmplx"
	"path/filepath"
	"time"

	"hydra/internal/lt"
	"hydra/internal/passage"
	"hydra/internal/pipeline"
	"hydra/internal/smp"
	"hydra/internal/voting"
)

// AblationRow is one measurement of a design-choice study.
type AblationRow struct {
	Name    string
	Variant string
	Seconds float64
	Detail  string
}

// AblationIterativeVsDirect compares the Eq. (10) iteration (the cold
// column driver, read through the source weighting) with the
// Gauss–Seidel solve of the Eq. (3) linear system (and, on
// small models, dense elimination) over a representative set of
// s-points — the O(N²r) vs O(N³) trade the paper cites in §3.
func AblationIterativeVsDirect(cc, mm, nn int, nPoints int) ([]AblationRow, error) {
	if cc == 0 {
		cc, mm, nn = 18, 6, 3
	}
	if nPoints == 0 {
		nPoints = 33
	}
	ss, cfg, err := exploreVoting(cc, mm, nn)
	if err != nil {
		return nil, err
	}
	targets := voting.FailureModes(ss, cfg)
	src := passage.SingleSource(0)
	sv := passage.NewSolver(ss.Model, passage.Options{})
	points := lt.DefaultEuler().Points([]float64{float64(cc) * 2})[:nPoints]

	var rows []AblationRow
	var maxDiff float64

	start := time.Now()
	iter := make([]complex128, len(points))
	for i, s := range points {
		v, _, err := sv.VectorLST(s, targets)
		if err != nil {
			return nil, err
		}
		iter[i] = src.Dot(v)
	}
	rows = append(rows, AblationRow{
		Name: "iterative-vs-direct", Variant: "iterative (Eq. 10)",
		Seconds: time.Since(start).Seconds(),
		Detail:  fmt.Sprintf("%d states, %d s-points", ss.NumStates(), len(points)),
	})

	start = time.Now()
	for i, s := range points {
		v, err := sv.DirectLST(s, src, targets)
		if err != nil {
			return nil, err
		}
		if d := cmplx.Abs(v - iter[i]); d > maxDiff {
			maxDiff = d
		}
	}
	rows = append(rows, AblationRow{
		Name: "iterative-vs-direct", Variant: "Gauss-Seidel (Eq. 3)",
		Seconds: time.Since(start).Seconds(),
		Detail:  fmt.Sprintf("max |diff| vs iterative = %.2e", maxDiff),
	})
	return rows, nil
}

// AblationEulerVsLaguerre compares the two inverters on one smooth
// passage density: total s-point budget and agreement.
func AblationEulerVsLaguerre(tPoints int) ([]AblationRow, error) {
	if tPoints == 0 {
		tPoints = 10
	}
	ss, cfg, err := exploreVoting(18, 6, 3)
	if err != nil {
		return nil, err
	}
	targets := voting.VotedAtLeast(ss, cfg.CC)
	src := passage.SingleSource(0)
	ts := linspace(10, 70, tPoints)

	run := func(inv lt.Inverter) ([]float64, int, float64, error) {
		sv := passage.NewSolver(ss.Model, passage.Options{})
		points := inv.Points(ts)
		start := time.Now()
		vals := make([]complex128, len(points))
		for i, s := range points {
			v, _, err := sv.VectorLST(s, targets)
			if err != nil {
				return nil, 0, 0, err
			}
			vals[i] = src.Dot(v)
		}
		f, err := inv.Invert(ts, vals)
		if err != nil {
			return nil, 0, 0, err
		}
		return f, len(points), time.Since(start).Seconds(), nil
	}
	fe, ne, se, err := run(lt.DefaultEuler())
	if err != nil {
		return nil, err
	}
	fl, nl, sl, err := run(lt.DefaultLaguerre())
	if err != nil {
		return nil, err
	}
	var maxDiff float64
	for i := range fe {
		if d := abs(fe[i] - fl[i]); d > maxDiff {
			maxDiff = d
		}
	}
	return []AblationRow{
		{Name: "euler-vs-laguerre", Variant: "euler", Seconds: se,
			Detail: fmt.Sprintf("%d s-points for %d t-points", ne, tPoints)},
		{Name: "euler-vs-laguerre", Variant: "laguerre", Seconds: sl,
			Detail: fmt.Sprintf("%d s-points (independent of m); max |diff| = %.2e", nl, maxDiff)},
	}, nil
}

// AblationInterning measures kernel assembly with the interned
// distribution table against the naive per-term transform evaluation the
// interning avoids (§4's storage/evaluation argument).
func AblationInterning(cc, mm, nn, rounds int) ([]AblationRow, error) {
	if cc == 0 {
		cc, mm, nn = 60, 25, 4
	}
	if rounds == 0 {
		rounds = 20
	}
	ss, _, err := exploreVoting(cc, mm, nn)
	if err != nil {
		return nil, err
	}
	model := ss.Model
	u := model.NewKernelMatrix()
	s := complex(0.3, 1.7)

	start := time.Now()
	for r := 0; r < rounds; r++ {
		model.FillKernel(s, u)
		s += 0.001i // defeat any accidental memoisation
	}
	interned := time.Since(start)

	// Naive cost: every term evaluates its own transform (what the
	// interning table avoids).
	start = time.Now()
	var sink complex128
	for r := 0; r < rounds; r++ {
		for i := 0; i < model.N(); i++ {
			model.Terms(i, func(t smp.Term) {
				sink += complex(t.Prob, 0) * t.Dist.LST(s)
			})
		}
		s += 0.001i
	}
	naive := time.Since(start)
	if sink == 42 {
		return nil, fmt.Errorf("unreachable") // keep sink alive
	}

	return []AblationRow{
		{Name: "interning", Variant: "interned", Seconds: interned.Seconds(),
			Detail: fmt.Sprintf("%d distinct distributions over %d terms", model.NumDistributions(), model.NumTerms())},
		{Name: "interning", Variant: "naive per-term", Seconds: naive.Seconds(),
			Detail: fmt.Sprintf("%.1fx slower", naive.Seconds()/interned.Seconds())},
	}, nil
}

// AblationCheckpoint measures the overhead of disk checkpointing on a
// pipeline run and the speedup of a checkpointed restart.
func AblationCheckpoint(tmpDir string) ([]AblationRow, error) {
	ss, cfg, err := exploreVoting(18, 6, 3)
	if err != nil {
		return nil, err
	}
	targets := voting.VotedAtLeast(ss, cfg.CC)
	inv := lt.DefaultEuler()
	spec := &pipeline.SolveSpec{
		Name:     "ablation-checkpoint",
		Quantity: pipeline.PassageDensity,
		Targets:  targets,
		Points:   inv.Points(linspace(10, 60, 5)),
	}
	model := ss.Model
	newEval := func() pipeline.Evaluator {
		return pipeline.NewSolverEvaluator(model, passage.Options{})
	}

	start := time.Now()
	if _, _, err := pipeline.Run(spec, newEval, 1, nil); err != nil {
		return nil, err
	}
	plain := time.Since(start)

	path := filepath.Join(tmpDir, "ablation.ckpt")
	ck, err := pipeline.OpenCheckpoint(path)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	if _, _, err := pipeline.Run(spec, newEval, 1, ck); err != nil {
		return nil, err
	}
	withCkpt := time.Since(start)
	start = time.Now()
	_, stats, err := pipeline.Run(spec, newEval, 1, ck)
	if err != nil {
		return nil, err
	}
	restart := time.Since(start)
	ck.Close()

	return []AblationRow{
		{Name: "checkpoint", Variant: "no checkpoint", Seconds: plain.Seconds(),
			Detail: fmt.Sprintf("%d s-points", len(spec.Points))},
		{Name: "checkpoint", Variant: "checkpointed", Seconds: withCkpt.Seconds(),
			Detail: fmt.Sprintf("overhead %.1f%%", 100*(withCkpt.Seconds()/plain.Seconds()-1))},
		{Name: "checkpoint", Variant: "restart", Seconds: restart.Seconds(),
			Detail: fmt.Sprintf("%d/%d points from cache", stats.FromCache, len(spec.Points))},
	}, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
