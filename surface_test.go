package hydra_test

import (
	"errors"
	"math"
	"sync"
	"testing"

	"hydra"
	"hydra/internal/lt"
)

// TestSurfaceQuantileMatchesBisection pins Surface.Quantile to the
// QuantileSearch bisection it replaces: same model, same method, the
// surface's interpolated read must land within the bisection tolerance
// across probability levels, source weightings and both inverters.
func TestSurfaceQuantileMatchesBisection(t *testing.T) {
	m, err := hydra.LoadSpec(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	targets := m.Measures()[0].Targets
	weightings := [][]int{{0}, {1}, {0, 1}}
	levels := []float64{0.5, 0.9, 0.95, 0.99}
	// The Laguerre arm needs damping: a CDF tends to 1 while the
	// Laguerre basis decays like e^{−t/2}, so the undamped expansion of
	// L(s)/s is dominated by the 1/s pole sitting on the contour and
	// oscillates visibly (the failure mode Method "auto"'s decay check
	// exists for). σ > 0 shifts the pole off the contour; with it the
	// inversion is accurate to ~1e−10 and the differential is meaningful.
	damped := lt.Laguerre{N: 400, Coeffs: 200, Sigma: 0.5, TimeScale: 1}
	for _, method := range []string{"euler", "laguerre"} {
		opts := &hydra.Options{Method: method}
		if method == "laguerre" {
			opts.Laguerre = damped
		}
		s, err := m.PassageSurface("", targets, nil, opts)
		if err != nil {
			t.Fatalf("%s: surface: %v", method, err)
		}
		for _, sources := range weightings {
			for _, p := range levels {
				got, err := s.Quantile(sources, p)
				if err != nil {
					t.Fatalf("%s: Quantile(%v, %v): %v", method, sources, p, err)
				}
				want, err := hydra.QuantileSearch(p, 0.5, func(tt float64) (float64, error) {
					r, err := m.PassageCDF(sources, targets, []float64{tt}, opts)
					if err != nil {
						return 0, err
					}
					return r.Values[0], nil
				})
				if err != nil {
					t.Fatalf("%s: QuantileSearch(%v, %v): %v", method, sources, p, err)
				}
				rel := math.Abs(got-want) / want
				t.Logf("%s sources=%v p=%v: surface=%.6g bisection=%.6g rel=%.2e", method, sources, p, got, want, rel)
				if rel > 5e-3 {
					t.Errorf("%s: Quantile(%v, %v) = %v, bisection gives %v (rel %.2e)", method, sources, p, got, want, rel)
				}
			}
		}
	}
}

// TestSurfaceCDFRoundTrip checks the interpolated CDF against the
// closed form on the two-state exponential hop (F(t) = 1 − e^{−2t}) and
// that Quantile inverts CDF on the same surface.
func TestSurfaceCDFRoundTrip(t *testing.T) {
	src := `
\model{
  \statevector{ \type{short}{a, b} }
  \initial{ a = 1; b = 0; }
  \transition{go}{ \condition{a > 0} \action{next->a = a-1; next->b = b+1;} \sojourntimeLT{expLT(2,s)} }
  \transition{back}{ \condition{b > 0} \action{next->b = b-1; next->a = a+1;} \sojourntimeLT{expLT(7,s)} }
}
`
	m, err := hydra.LoadSpec(src)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.PassageSurface("", []int{1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{0.05, 0.2, 0.5, 1, 2} {
		got, err := s.CDF([]int{0}, tt)
		if err != nil {
			t.Fatal(err)
		}
		want := 1 - math.Exp(-2*tt)
		if math.Abs(got-want) > 2e-3 {
			t.Errorf("CDF(%v) = %v, want %v", tt, got, want)
		}
	}
	q, err := s.Quantile([]int{0}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if want := math.Ln2 / 2; math.Abs(q-want) > 1e-3 {
		t.Errorf("median = %v, want %v", q, want)
	}
	// The grid must be sorted and strictly increasing.
	times := s.Times()
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			t.Fatalf("grid not strictly increasing at %d: %v <= %v", i, times[i], times[i-1])
		}
	}
	if s.Solves() < 1 {
		t.Errorf("Solves() = %d", s.Solves())
	}
}

// TestSurfaceDefectiveFailsLoudly: a target unreachable from the query's
// source mass means F(∞) < p. The surface must refuse to extrapolate —
// a structured DefectiveError, not a made-up time.
func TestSurfaceDefectiveFailsLoudly(t *testing.T) {
	// a → b ⇄ c: once out of a, the process never returns.
	src := `
\model{
  \statevector{ \type{short}{a, b, c} }
  \initial{ a = 1; b = 0; c = 0; }
  \transition{leave}{ \condition{a > 0} \action{next->a = a-1; next->b = b+1;} \sojourntimeLT{expLT(3,s)} }
  \transition{fwd}{ \condition{b > 0} \action{next->b = b-1; next->c = c+1;} \sojourntimeLT{expLT(2,s)} }
  \transition{bwd}{ \condition{c > 0} \action{next->c = c-1; next->b = b+1;} \sojourntimeLT{expLT(4,s)} }
}
`
	m, err := hydra.LoadSpec(src)
	if err != nil {
		t.Fatal(err)
	}
	ai := m.PlaceIndex("a")
	targets := m.States(func(mk hydra.Marking) bool { return mk[ai] == 1 })
	if len(targets) != 1 {
		t.Fatalf("targets = %v", targets)
	}
	sources := m.States(func(mk hydra.Marking) bool { return mk[m.PlaceIndex("b")] == 1 })
	if len(sources) != 1 {
		t.Fatalf("sources = %v", sources)
	}
	s, err := m.PassageSurface("", targets, nil, nil)
	if err != nil {
		t.Fatalf("build must succeed (the failure belongs to the query): %v", err)
	}
	_, err = s.Quantile(sources, 0.5)
	var de *hydra.DefectiveError
	if !errors.As(err, &de) {
		t.Fatalf("Quantile on a defective distribution returned (%v), want *DefectiveError", err)
	}
	if de.P != 0.5 {
		t.Errorf("DefectiveError.P = %v", de.P)
	}
	if de.FMax > 0.1 {
		t.Errorf("DefectiveError.FMax = %v, want ~0 mass", de.FMax)
	}
	if !s.Defective() {
		t.Errorf("Defective() = false, want plateau detection")
	}
	// PassageQuantileMulti propagates the same failure with the query
	// index attached.
	_, err = m.PassageQuantileMulti(targets, []hydra.QuantileQuery{{Sources: sources, P: 0.5}}, nil)
	if !errors.As(err, &de) {
		t.Fatalf("PassageQuantileMulti = (%v), want *DefectiveError", err)
	}
}

// TestPassageQuantileMulti answers many (sources, p) pairs from one
// surface and checks them against the closed form of the quickSpec
// chain's single-source median.
func TestPassageQuantileMulti(t *testing.T) {
	m, err := hydra.LoadSpec(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	targets := m.Measures()[0].Targets
	queries := []hydra.QuantileQuery{
		{Sources: []int{0}, P: 0.5},
		{Sources: []int{0}, P: 0.9},
		{Sources: []int{1}, P: 0.5},
		{Sources: []int{0, 1}, P: 0.75},
	}
	got, err := m.PassageQuantileMulti(targets, queries, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(queries) {
		t.Fatalf("got %d results for %d queries", len(got), len(queries))
	}
	for i, q := range queries {
		want, err := m.PassageQuantile(q.Sources, targets, q.P, 0.5, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(got[i]-want) / want; rel > 5e-3 {
			t.Errorf("query %d (%v, %v): %v vs bisection %v (rel %.2e)", i, q.Sources, q.P, got[i], want, rel)
		}
	}
}

// TestSurfaceRejectsAuto: surfaces need one consistent inverter across
// all grid stages.
func TestSurfaceRejectsAuto(t *testing.T) {
	m, err := hydra.LoadSpec(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.PassageSurface("", m.Measures()[0].Targets, nil, &hydra.Options{Method: "auto"}); err == nil {
		t.Fatal("PassageSurface accepted Method auto")
	}
}

// TestCanonicalStates pins the canonical form caches and coalescing key
// on: sorted, deduplicated, input untouched.
func TestCanonicalStates(t *testing.T) {
	in := []int{5, 1, 3, 1, 5}
	got := hydra.CanonicalStates(in)
	want := []int{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("CanonicalStates(%v) = %v, want %v", in, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CanonicalStates(%v) = %v, want %v", in, got, want)
		}
	}
	if in[0] != 5 || in[1] != 1 {
		t.Fatalf("input mutated: %v", in)
	}
}

// TestSurfaceConcurrentColumns reads one surface from 8 goroutines at
// once, each on its own source set so each builds a column while the
// others do: every Quantile and CDF must equal the serial read of the
// same surface afterwards.
func TestSurfaceConcurrentColumns(t *testing.T) {
	src := `
\model{
  \statevector{ \type{short}{k} }
  \initial{ k = 0; }
  \transition{up}{ \condition{k < 9} \action{next->k = k+1;} \sojourntimeLT{expLT(3,s)} }
  \transition{down}{ \condition{k > 0} \action{next->k = k-1;} \sojourntimeLT{expLT(1,s)} }
}
`
	m, err := hydra.LoadSpec(src)
	if err != nil {
		t.Fatal(err)
	}
	ki := m.PlaceIndex("k")
	s, err := m.PassageSurface("", m.States(func(mk hydra.Marking) bool { return mk[ki] == 9 }), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	const readers = 8
	sourceSet := func(g int) []int {
		set := m.States(func(mk hydra.Marking) bool { return int(mk[ki]) == g })
		if g%2 == 1 {
			set = append(set, m.States(func(mk hydra.Marking) bool { return int(mk[ki]) == g-1 })...)
		}
		return set
	}
	levels := []float64{0.1, 0.5, 0.9}
	times := []float64{0.5, 2, 8}
	read := func(sources []int) ([]float64, error) {
		var out []float64
		for i, p := range levels {
			q, err := s.Quantile(sources, p)
			if err != nil {
				return nil, err
			}
			f, err := s.CDF(sources, times[i])
			if err != nil {
				return nil, err
			}
			out = append(out, q, f)
		}
		return out, nil
	}
	got := make([][]float64, readers)
	errs := make([]error, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], errs[g] = read(sourceSet(g))
		}()
	}
	wg.Wait()
	for g := 0; g < readers; g++ {
		if errs[g] != nil {
			t.Fatalf("reader %d: %v", g, errs[g])
		}
		want, err := read(sourceSet(g))
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[g][i]) != math.Float64bits(want[i]) {
				t.Errorf("reader %d value %d: concurrent %v, serial %v", g, i, got[g][i], want[i])
			}
		}
	}
}
