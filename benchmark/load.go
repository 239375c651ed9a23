package main

import (
	"fmt"
	"runtime"
	"time"

	"hydra"
	"hydra/benchmark/specs"
	"hydra/internal/dnamaca"
	"hydra/internal/dtmc"
	"hydra/internal/passage"
	"hydra/internal/petri"
	"hydra/internal/voting"
)

// residualTol is check (4)'s bound on the embedded chain's stationary
// vector: ‖πP − π‖ as dtmc.Residual measures it.
const residualTol = 1e-8

// loadOut is what one pass over the front end produced.
type loadOut struct {
	states, sources int
	pTargets        float64
	mean, variance  float64
	residual        float64
}

// load is the front-end-bound workload: generated DNAmaca text in,
// steady-state probability, passage moments and source weights out —
// no transform is ever inverted.
type load struct {
	r          *Run
	size       specs.Voting
	wantStates int // 0: whatever the native net explores to (tiny sizes)

	src         string
	smallStates int
	last        loadOut
}

func (l *load) Setup() error {
	end := l.r.Trace.Begin("specs.VotingSpec")
	l.src = specs.VotingSpec(l.size)
	end()
	// The generator's own check: its text of Table 1 system 0 must load
	// to the paper's state count before the big one is attempted.
	end = l.r.Trace.Begin("hydra.LoadSpec(system 0)")
	m, err := hydra.LoadSpec(specs.VotingSpec(specs.System0))
	end()
	if err != nil {
		return fmt.Errorf("generated system 0 spec: %w", err)
	}
	l.smallStates = m.NumStates()
	return nil
}

func (l *load) Close() {}

func (l *load) config() voting.Config {
	return voting.Config{CC: l.size.CC, MM: l.size.MM, NN: l.size.NN}
}

func (l *load) Rep(tr *Tracer) (Rep, error) {
	if tr != nil {
		return l.staged(tr)
	}
	t0 := time.Now()
	m, err := hydra.LoadSpec(l.src)
	if err != nil {
		return Rep{}, err
	}
	if len(m.Measures()) != 1 {
		return Rep{}, fmt.Errorf("spec resolved %d measures, want its one \\passage block", len(m.Measures()))
	}
	ms := m.Measures()[0]
	out := loadOut{states: m.NumStates(), sources: len(ms.Sources)}
	if out.pTargets, err = m.SteadyStateProbability(ms.Targets); err != nil {
		return Rep{}, err
	}
	if out.mean, out.variance, err = m.PassageMoments(ms.Sources, ms.Targets); err != nil {
		return Rep{}, err
	}
	srcStates, _, err := m.SourceWeights(ms.Sources)
	if err != nil {
		return Rep{}, err
	}
	wall := time.Since(t0)
	if len(srcStates) != out.sources {
		return Rep{}, fmt.Errorf("SourceWeights returned %d states for %d sources", len(srcStates), out.sources)
	}

	// Untimed: the stationary vector itself, which the public API hands
	// out as the source weighting of every state.
	all := make([]int, out.states)
	for i := range all {
		all[i] = i
	}
	if _, pi, err := m.SourceWeights(all); err != nil {
		return Rep{}, err
	} else {
		out.residual = dtmc.Residual(m.SMP().EmbeddedDTMC(), pi)
	}
	l.last = out
	return Rep{Wall: wall, Work: float64(out.states)}, nil
}

// staged is the same request made by calling each layer directly, the
// way hydra.LoadSpec, SteadyStateProbability, PassageMoments and
// SourceWeights do, with a span around each call. It is the traced
// pass's repetition and the source of the front-end layer metrics.
func (l *load) staged(tr *Tracer) (Rep, error) {
	r := l.r
	t0 := time.Now()

	end := tr.Begin("dnamaca.Parse+Compile")
	tp := time.Now()
	spec, err := dnamaca.Parse(l.src)
	var compiled *dnamaca.Compiled
	if err == nil {
		compiled, err = dnamaca.Compile(spec)
	}
	r.Set("dnamaca.parse_compile_s", time.Since(tp).Seconds())
	end()
	if err != nil {
		return Rep{}, err
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	end = tr.Begin("petri.Explore")
	tp = time.Now()
	ss, err := petri.Explore(compiled.Net, petri.ExploreOptions{MaxStates: hydra.ExploreLimit})
	exploreS := time.Since(tp).Seconds()
	end()
	if err != nil {
		return Rep{}, err
	}
	runtime.ReadMemStats(&after)
	out := loadOut{states: ss.NumStates()}
	r.Set("petri.explore_s", exploreS)
	r.Set("petri.states", float64(out.states))
	r.Set("petri.states_per_s", float64(out.states)/exploreS)
	r.Set("petri.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))

	end = tr.Begin("dnamaca.ResolveMeasure")
	sources, targets, _, err := compiled.ResolveMeasure(spec.Passages[0], ss)
	end()
	if err != nil {
		return Rep{}, err
	}
	out.sources = len(sources)

	end = tr.Begin("dtmc.SteadyStateGS")
	tp = time.Now()
	p := ss.Model.EmbeddedDTMC()
	pi, err := dtmc.SteadyStateGS(p, dtmc.Options{SkipIrreducibilityCheck: true})
	r.Set("dtmc.steady_state_s", time.Since(tp).Seconds())
	end()
	if err != nil {
		return Rep{}, err
	}
	end = tr.Begin("smp.SteadyState")
	occupancy := ss.Model.SteadyState(pi)
	for _, i := range targets {
		out.pTargets += occupancy[i]
	}
	end()

	end = tr.Begin("passage.PassageMoments")
	tp = time.Now()
	mo, err := passage.PassageMoments(ss.Model, targets, passage.Options{})
	r.Set("passage.moments_s", time.Since(tp).Seconds())
	end()
	if err != nil {
		return Rep{}, err
	}
	end = tr.Begin("passage.WeightedMoments")
	var total float64
	for _, s := range sources {
		total += pi[s]
	}
	w := make([]float64, len(sources))
	for i, s := range sources {
		w[i] = pi[s] / total
	}
	out.mean, out.variance = mo.WeightedMoments(passage.SourceWeights{States: sources, Weights: w})
	end()
	wall := time.Since(t0)

	out.residual = dtmc.Residual(p, pi)
	r.Set("dtmc.residual", out.residual)
	l.last = out
	return Rep{Wall: wall, Work: float64(out.states)}, nil
}

func (l *load) Verify() {
	r, out := l.r, l.last
	want := l.wantStates
	if want == 0 {
		n, err := voting.CountStates(l.config(), voting.ReferenceVariant, hydra.ExploreLimit)
		if !r.Op(err, "native state count") {
			return
		}
		want = n
	}
	r.Check(l.smallStates == specs.Table1States[specs.System0], "generated system 0 spec explores %d states, Table 1 says %d", l.smallStates, specs.Table1States[specs.System0])
	r.Check(out.states == want, "generated spec explores %d states, want exactly %d", out.states, want)
	r.Check(out.residual <= residualTol, "embedded-chain stationary vector has residual %.3g (contract %.0e)", out.residual, residualTol)
	r.Check(out.pTargets > 0 && out.pTargets < 1, "steady-state probability of the targets is %v", out.pTargets)
	r.Check(out.mean > 0 && out.variance > 0 && out.sources > 0, "passage moments %v, %v over %d sources", out.mean, out.variance, out.sources)
}

func (l *load) Layers() {
	// The staged repetition filled in dnamaca, petri, dtmc and moments;
	// what is left is the native net, for the compiled net's slowdown.
	r := l.r
	end := r.Trace.Begin("petri.Explore(native)")
	t0 := time.Now()
	ss, err := voting.Build(l.config(), voting.DefaultDurations(), petri.ExploreOptions{MaxStates: hydra.ExploreLimit})
	native := time.Since(t0).Seconds()
	end()
	if r.Op(err, "explore native net") {
		r.Check(ss.NumStates() == l.last.states, "native net explores %d states, compiled net %d", ss.NumStates(), l.last.states)
		r.Set("dnamaca.explore_slowdown", r.Layer["petri.explore_s"]/native)
		r.Set("smp.nnz", float64(ss.Model.KernelNNZ()))
	}
}

func newLoad250k(r *Run) workload {
	l := &load{r: r, size: specs.System2, wantStates: specs.Table1States[specs.System2]}
	if r.Tiny {
		l.size, l.wantStates = specs.Tiny, 0
	}
	return l
}
