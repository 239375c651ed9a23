package hydra

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"hydra/internal/passage"
	"hydra/internal/pipeline"
)

// SurfaceOptions tunes how PassageSurface places its adaptive time grid.
// The zero value selects the defaults noted on each field.
type SurfaceOptions struct {
	// SeedPoints is the size of the initial geometric grid (default 24).
	// The seed spans the passage-time mass located by PassageMoments:
	// from a fraction of the fastest state's mean to the slowest state's
	// mean plus four standard deviations.
	SeedPoints int
	// MaxRefine bounds the refinement passes that subdivide grid
	// intervals where the CDF is steep (default 3).
	MaxRefine int
	// RefineJump is the CDF increase across one grid interval above
	// which the interval is split at its geometric midpoint (default
	// 0.04). The increase is measured per source state, not on some
	// fixed mixture: every weighting the surface can serve is a convex
	// combination of per-state columns, so bounding the worst state's
	// jump bounds them all. Smaller values buy interpolation accuracy
	// with more t-points per surface.
	RefineJump float64
	// PCap is the CDF mass the grid must reach before the build stops
	// extending it (default 0.9995). Quantile queries with p beyond the
	// mass actually reached fail rather than extrapolate.
	PCap float64
	// MaxExtend bounds the geometric tail extensions appended when the
	// seed grid stops short of PCap (default 10). A defective
	// distribution plateaus below PCap and stops extending early.
	MaxExtend int
	// Hint is the fallback time scale for the seed grid when the moment
	// system has no solution — an unreachable target set makes the mean
	// passage time infinite (default 1).
	Hint float64
}

func (so SurfaceOptions) withDefaults() SurfaceOptions {
	if so.SeedPoints < 4 {
		so.SeedPoints = 24
	}
	if so.MaxRefine == 0 {
		so.MaxRefine = 3
	}
	if so.RefineJump <= 0 {
		so.RefineJump = 0.04
	}
	if so.PCap <= 0 || so.PCap >= 1 {
		so.PCap = 0.9995
	}
	if so.MaxExtend == 0 {
		so.MaxExtend = 10
	}
	if so.Hint <= 0 {
		so.Hint = 1
	}
	return so
}

// surfaceOptions resolves the surface knobs from an Options value.
func (o *Options) surfaceOptions() SurfaceOptions {
	if o == nil {
		return SurfaceOptions{}.withDefaults()
	}
	return o.Surface.withDefaults()
}

// CanonicalStates returns the canonical form of a state set: sorted and
// deduplicated. Two requests naming the same states in different orders
// (or with repeats) are the same question — the Eq. (5) weighting is a
// function of the set — so everything that keys caches or coalescing on
// a state set should key on this form.
func CanonicalStates(states []int) []int {
	out := append([]int(nil), states...)
	sort.Ints(out)
	w := 0
	for i, v := range out {
		if i == 0 || v != out[w-1] {
			out[w] = v
			w++
		}
	}
	return out[:w]
}

// stateSetKey renders a canonical state set as a map key.
func stateSetKey(states []int) string {
	var b strings.Builder
	for i, s := range states {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(s))
	}
	return b.String()
}

// DefectiveError reports a quantile query whose probability level lies
// beyond the CDF mass the surface's grid actually reached: either the
// distribution is defective (the targets are unreachable from some
// source mass, so F(∞) < 1) or the requested level exceeds the surface's
// PCap coverage. The surface refuses to extrapolate past its grid.
type DefectiveError struct {
	P    float64 // requested probability level
	FMax float64 // CDF mass reached at the grid's last point
	TMax float64 // the grid's last time point
	// Plateau is true when the build's tail extensions stopped gaining
	// mass — the signature of a defective distribution rather than a
	// merely slow tail.
	Plateau bool
}

func (e *DefectiveError) Error() string {
	why := "grid coverage ends below the requested level"
	if e.Plateau {
		why = "the CDF plateaued during the build (defective distribution: some source mass never reaches the targets)"
	}
	return fmt.Sprintf("hydra: quantile p=%v unreachable: F(%v)=%.6g and %s; refusing to extrapolate",
		e.P, e.TMax, e.FMax, why)
}

// surfaceRun is one solve contributing a subset of the grid's t-points.
type surfaceRun struct {
	times []float64
	vr    *VectorRun
}

// surfaceColumn is one source weighting's monotone CDF over the grid,
// with the Fritsch–Carlson slopes of its monotone cubic interpolant.
type surfaceColumn struct {
	f []float64 // isotone-clamped CDF values, aligned with Surface.times
	d []float64 // PCHIP derivatives at the grid points
}

// Surface is a precomputed passage-time CDF surface for one
// (model, targets, method): a monotone CDF on an adaptive time grid,
// evaluated from vector solves so it serves EVERY source weighting.
// Building it costs one solve per grid stage; after that a quantile
// query is a binary search plus one monotone-cubic inversion — no
// solver work, no transform inversions beyond the per-weighting column
// build (one inversion per grid point, done once and cached).
//
// A Surface is safe for concurrent use once built.
type Surface struct {
	model   *Model
	targets []int
	opts    *Options // concrete-method copy used for every run and read

	times   []float64    // sorted grid
	runs    []surfaceRun // each holds the vectors for a subset of times
	stats   *RunStats    // aggregated build statistics
	solves  int          // grid stages solved
	plateau bool         // tail extensions stopped gaining mass

	mu      sync.Mutex
	columns map[string]*surfaceColumn // canonical source set → CDF column
}

// PassageSurface builds the quantile surface for a target set: one
// spec-keyed CDF solve per grid stage on an adaptive time grid, serving
// every source weighting and every probability level afterwards. name
// labels the underlying solve specs ("" selects the library default);
// services sharing one cache across models must embed model identity in
// it, exactly as for NewPassageSpec. cache may be nil; when set, every
// grid stage runs through it, so rebuilding a surface after a restart
// reuses the checkpointed s-points.
//
// The method must be concrete ("euler" or "laguerre") — the
// surface's grid stages must share one inverter configuration.
func (m *Model) PassageSurface(name string, targets []int, cache Cache, opts *Options) (*Surface, error) {
	if opts != nil && opts.Method == "auto" {
		return nil, fmt.Errorf(`hydra: quantile surfaces need a concrete inversion method ("euler" or "laguerre"), not "auto"`)
	}
	if name == "" {
		name = m.specName(pipeline.PassageCDF)
	}
	so := opts.surfaceOptions()
	s := &Surface{
		model:   m,
		targets: append([]int(nil), targets...),
		opts:    opts,
		stats:   &RunStats{},
		columns: make(map[string]*surfaceColumn),
	}

	lo, hi := m.surfaceSeedRange(targets, so)
	if err := s.addRun(name, geomGrid(lo, hi, so.SeedPoints), cache); err != nil {
		return nil, err
	}

	// Tail extension: append geometric points until the reference CDF
	// reaches PCap, the extension budget runs out, or the mass stops
	// growing (a defective distribution never reaches PCap — record the
	// plateau so queries past the reached mass can say why they fail).
	// Extension runs before refinement so the splitting pass below sees
	// the whole grid, coarse tail included.
	for ext := 0; ext < so.MaxExtend; ext++ {
		ref, err := s.referenceColumn()
		if err != nil {
			return nil, err
		}
		top := ref[len(ref)-1]
		if top >= so.PCap {
			break
		}
		tmax := s.times[len(s.times)-1]
		ext := []float64{tmax * math.Cbrt(2), tmax * math.Cbrt(4), tmax * 2}
		if err := s.addRun(name, ext, cache); err != nil {
			return nil, err
		}
		ref2, err := s.referenceColumn()
		if err != nil {
			return nil, err
		}
		if ref2[len(ref2)-1]-top < 1e-9 {
			s.plateau = true
			break
		}
	}
	if ref, err := s.referenceColumn(); err == nil && ref[len(ref)-1] < so.PCap {
		s.plateau = true
	}

	// Refinement: split intervals where any single state's CDF jumps by
	// more than RefineJump, plus the head when mass already sits below
	// the first grid point. Steering with the worst per-state jump —
	// not a fixed mixture — keeps the grid dense wherever ANY weighting
	// is steep: a slow minority source's tail climb is invisible to the
	// uniform mixture but dominates that source's own quantiles.
	for pass := 0; pass < so.MaxRefine; pass++ {
		jumps, head, err := s.intervalJumps()
		if err != nil {
			return nil, err
		}
		var add []float64
		if head > so.RefineJump {
			add = append(add, s.times[0]/2)
		}
		for i, j := range jumps {
			if j > so.RefineJump {
				add = append(add, math.Sqrt(s.times[i]*s.times[i+1]))
			}
		}
		if len(add) == 0 {
			break
		}
		if err := s.addRun(name, add, cache); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// intervalJumps returns, per grid interval, the largest CDF increase any
// single source state takes across it, plus the largest mass any state
// already holds at the first grid point. Both are upper bounds over
// every servable weighting (each is a convex combination of per-state
// columns), so the refinement loop above splits an interval exactly when
// some weighting could be steep inside it. Cost is one inversion per
// (state, grid point) — linear in states, well under the solve that
// produced the vectors.
func (s *Surface) intervalJumps() ([]float64, float64, error) {
	jumps := make([]float64, len(s.times)-1)
	vals := make([]float64, len(s.times))
	var head float64
	weight := []float64{1}
	for st := 0; st < s.model.NumStates(); st++ {
		state := []int{st}
		for _, run := range s.runs {
			r, err := ReadRun(run.vr, state, weight, run.times, s.opts)
			if err != nil {
				return nil, 0, err
			}
			for i, t := range run.times {
				vals[s.gridIndex(t)] = r.Values[i]
			}
		}
		// Clamp the same inversion noise buildColumn tolerates; a
		// non-finite value fails the build there, not here.
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

// surfaceSeedRange brackets the passage-time mass for the seed grid
// using the moment oracle: from a fraction of the fastest per-state mean
// to the slowest mean plus four standard deviations. Any weighting's CDF
// is a mixture of the per-state CDFs, so a range covering every state
// covers every weighting. When the moment system has no finite solution
// (unreachable targets make the mean infinite) the Hint scale is used;
// the tail-extension loop then finds whatever mass exists.
func (m *Model) surfaceSeedRange(targets []int, so SurfaceOptions) (lo, hi float64) {
	fallback := func() (float64, float64) { return so.Hint / 64, so.Hint * 4 }
	mo, err := passage.PassageMoments(m.ss.Model, targets, passage.Options{})
	if err != nil {
		return fallback()
	}
	minMean := math.Inf(1)
	maxTail := 0.0
	for i := range mo.Mean {
		mean := mo.Mean[i]
		if !(mean > 0) || math.IsInf(mean, 0) {
			continue
		}
		variance := mo.Second[i] - mean*mean
		if math.IsNaN(variance) || math.IsInf(variance, 0) {
			continue
		}
		if variance < 0 {
			variance = 0
		}
		tail := mean + 4*math.Sqrt(variance)
		if mean < minMean {
			minMean = mean
		}
		if tail > maxTail {
			maxTail = tail
		}
	}
	if !(maxTail > 0) || math.IsInf(minMean, 1) {
		return fallback()
	}
	lo = minMean / 32
	hi = maxTail
	if lo >= hi {
		lo = hi / 128
	}
	return lo, hi
}

// geomGrid returns n geometrically spaced points on [lo, hi].
func geomGrid(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	ratio := math.Log(hi / lo)
	for i := range out {
		out[i] = lo * math.Exp(ratio*float64(i)/float64(n-1))
	}
	return out
}

// addRun solves the spec at the given new times and merges them into the
// grid. Times already on the grid are skipped.
func (s *Surface) addRun(name string, times []float64, cache Cache) error {
	var fresh []float64
	for _, t := range times {
		if !s.hasTime(t) {
			fresh = append(fresh, t)
		}
	}
	if len(fresh) == 0 {
		return nil
	}
	sort.Float64s(fresh)
	spec, err := s.model.newSpec(name, pipeline.PassageCDF, s.targets, fresh, s.opts)
	if err != nil {
		return err
	}
	vr, err := s.model.RunSpec(spec, cache, s.opts)
	if err != nil {
		return err
	}
	s.runs = append(s.runs, surfaceRun{times: fresh, vr: vr})
	s.times = append(s.times, fresh...)
	sort.Float64s(s.times)
	s.solves++
	s.stats.Merge(vr.Stats)
	// Grid changed: every cached column is stale.
	s.mu.Lock()
	s.columns = make(map[string]*surfaceColumn)
	s.mu.Unlock()
	return nil
}

func (s *Surface) hasTime(t float64) bool {
	i := sort.SearchFloat64s(s.times, t)
	return i < len(s.times) && s.times[i] == t
}

// referenceColumn is the build-time steering column: the CDF under a
// uniform weighting over all states.
func (s *Surface) referenceColumn() ([]float64, error) {
	n := s.model.NumStates()
	states := make([]int, n)
	weights := make([]float64, n)
	for i := range states {
		states[i] = i
		weights[i] = 1 / float64(n)
	}
	col, err := s.buildColumn(states, weights)
	if err != nil {
		return nil, err
	}
	return col.f, nil
}

// column returns (building and caching on first use) the monotone CDF
// column for a source set, resolved through the model's Eq. (5)
// weighting exactly as every other analysis entry point.
func (s *Surface) column(sources []int) (*surfaceColumn, error) {
	canon := CanonicalStates(sources)
	key := stateSetKey(canon)
	s.mu.Lock()
	if col, ok := s.columns[key]; ok {
		s.mu.Unlock()
		return col, nil
	}
	s.mu.Unlock()
	src, err := s.model.sourceWeights(canon)
	if err != nil {
		return nil, err
	}
	col, err := s.buildColumn(src.States, src.Weights)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.columns[key] = col
	s.mu.Unlock()
	return col, nil
}

// buildColumn reads every run through the weighting (one inversion per
// grid point), sanitizes the inversion noise and enforces monotonicity
// by isotone clamping, then fits the monotone cubic slopes.
func (s *Surface) buildColumn(states []int, weights []float64) (*surfaceColumn, error) {
	f := make([]float64, len(s.times))
	for _, run := range s.runs {
		r, err := ReadRun(run.vr, states, weights, run.times, s.opts)
		if err != nil {
			return nil, err
		}
		for i, t := range run.times {
			f[s.gridIndex(t)] = r.Values[i]
		}
	}
	for i, v := range f {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("hydra: surface CDF at t=%v is non-finite (%v)", s.times[i], v)
		}
		// Inversion noise: clamp tiny negatives at the head and tiny
		// overshoots past 1 in the tail.
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		f[i] = v
	}
	for i := 1; i < len(f); i++ {
		if f[i] < f[i-1] {
			f[i] = f[i-1]
		}
	}
	return &surfaceColumn{f: f, d: pchipSlopes(s.times, f)}, nil
}

func (s *Surface) gridIndex(t float64) int {
	return sort.SearchFloat64s(s.times, t)
}

// Quantile returns the time t* with F(t*) = p for the source set: a
// binary search over the grid plus one monotone-cubic inversion. The
// sources are resolved through the model's Eq. (5) weighting; the first
// query for a weighting builds its CDF column (one inversion per grid
// point), later queries reuse it. A probability level beyond the mass
// the grid reached returns a *DefectiveError instead of extrapolating.
func (s *Surface) Quantile(sources []int, p float64) (float64, error) {
	if !(p > 0 && p < 1) {
		return 0, fmt.Errorf("hydra: quantile probability %v outside (0,1)", p)
	}
	col, err := s.column(sources)
	if err != nil {
		return 0, err
	}
	n := len(s.times)
	if p > col.f[n-1] {
		return 0, &DefectiveError{P: p, FMax: col.f[n-1], TMax: s.times[n-1], Plateau: s.plateau}
	}
	// Below the first grid point the CDF is taken linear from (0, 0):
	// passage times are positive, so F(0) = 0.
	if p <= col.f[0] {
		return s.times[0] * p / col.f[0], nil
	}
	// Largest i with f[i] < p; then f[i] < p ≤ f[i+1].
	i := sort.Search(n, func(k int) bool { return col.f[k] >= p }) - 1
	return invertHermite(s.times[i], s.times[i+1], col.f[i], col.f[i+1], col.d[i], col.d[i+1], p), nil
}

// CDF returns the interpolated distribution value at t for the source
// set. Times beyond the grid clamp to the boundary values (0 below,
// the reached mass above) — like Quantile, the surface never
// extrapolates.
func (s *Surface) CDF(sources []int, t float64) (float64, error) {
	col, err := s.column(sources)
	if err != nil {
		return 0, err
	}
	n := len(s.times)
	switch {
	case t <= 0:
		return 0, nil
	case t <= s.times[0]:
		return col.f[0] * t / s.times[0], nil
	case t >= s.times[n-1]:
		return col.f[n-1], nil
	}
	i := sort.SearchFloat64s(s.times, t)
	if s.times[i] == t {
		return col.f[i], nil
	}
	i--
	return evalHermite(s.times[i], s.times[i+1], col.f[i], col.f[i+1], col.d[i], col.d[i+1], t), nil
}

// Times returns a copy of the surface's adaptive grid.
func (s *Surface) Times() []float64 { return append([]float64(nil), s.times...) }

// Stats returns the aggregated run statistics of every grid stage the
// build solved. Reading them alongside Solves shows the build cost the
// per-query interpolations amortize.
func (s *Surface) Stats() *RunStats { return s.stats }

// Solves reports how many grid stages (seed, refinements, extensions)
// the build ran.
func (s *Surface) Solves() int { return s.solves }

// Defective reports whether the build's tail extensions plateaued below
// the coverage target — the signature of a defective distribution.
func (s *Surface) Defective() bool { return s.plateau }

// pchipSlopes computes Fritsch–Carlson monotone cubic slopes for the
// (t, f) data: the resulting Hermite interpolant is monotone wherever
// the data is, which keeps the surface's CDF columns invertible.
func pchipSlopes(t, f []float64) []float64 {
	n := len(t)
	d := make([]float64, n)
	if n < 2 {
		return d
	}
	h := make([]float64, n-1)
	delta := make([]float64, n-1)
	for i := 0; i+1 < n; i++ {
		h[i] = t[i+1] - t[i]
		delta[i] = (f[i+1] - f[i]) / h[i]
	}
	d[0] = delta[0]
	d[n-1] = delta[n-2]
	for i := 1; i+1 < n; i++ {
		if delta[i-1] <= 0 || delta[i] <= 0 {
			// A flat (or clamped) neighbour: zero slope preserves
			// monotonicity through the plateau.
			d[i] = 0
			continue
		}
		w1 := 2*h[i] + h[i-1]
		w2 := h[i] + 2*h[i-1]
		d[i] = (w1 + w2) / (w1/delta[i-1] + w2/delta[i])
	}
	return d
}

// evalHermite evaluates the cubic Hermite segment (t0,f0,d0)-(t1,f1,d1)
// at t.
func evalHermite(t0, t1, f0, f1, d0, d1, t float64) float64 {
	h := t1 - t0
	u := (t - t0) / h
	u2 := u * u
	u3 := u2 * u
	return f0*(2*u3-3*u2+1) + d0*h*(u3-2*u2+u) + f1*(-2*u3+3*u2) + d1*h*(u3-u2)
}

// invertHermite solves H(t) = p on a monotone Hermite segment by
// bisection on the (cheap, closed-form) cubic — no solver work.
func invertHermite(t0, t1, f0, f1, d0, d1, p float64) float64 {
	lo, hi := t0, t1
	for i := 0; i < 60 && hi-lo > 1e-15*hi; i++ {
		mid := (lo + hi) / 2
		if evalHermite(t0, t1, f0, f1, d0, d1, mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// QuantileQuery is one (source set, probability level) question for
// PassageQuantileMulti.
type QuantileQuery struct {
	Sources []int
	P       float64
}

// PassageQuantileMulti answers many quantile queries against one target
// set from a single surface build: every query is an interpolated read
// of the same precomputed CDF surface, so the marginal cost of an extra
// (sources, p) pair is a binary search — not a bisection loop of
// numerical inversions. Results align with queries.
func (m *Model) PassageQuantileMulti(targets []int, queries []QuantileQuery, opts *Options) ([]float64, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("hydra: no quantile queries")
	}
	s, err := m.PassageSurface("", targets, nil, opts)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(queries))
	for i, q := range queries {
		t, err := s.Quantile(q.Sources, q.P)
		if err != nil {
			return nil, fmt.Errorf("hydra: quantile query %d: %w", i, err)
		}
		out[i] = t
	}
	return out, nil
}
