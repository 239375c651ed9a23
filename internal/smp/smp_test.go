package smp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"

	"hydra/internal/dist"
	"hydra/internal/dtmc"
	"hydra/internal/sparse"
)

// twoState builds the canonical test SMP:
//
//	0 →(1.0, exp(2)) 1
//	1 →(0.3, det(1)) 0, 1 →(0.7, uniform(0,2)) 1
func twoState(t *testing.T) *Model {
	t.Helper()
	b := NewBuilder(2)
	b.Add(0, 1, 1.0, dist.NewExponential(2))
	b.Add(1, 0, 0.3, dist.NewDeterministic(1))
	b.Add(1, 1, 0.7, dist.NewUniform(0, 2))
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBuildValidatesProbabilitySums(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 1, 0.5, dist.NewExponential(1))
	b.Add(1, 0, 1.0, dist.NewExponential(1))
	if _, err := b.Build(); err == nil {
		t.Error("accepted state with outgoing probability 0.5")
	}
}

func TestBuildRejectsAbsorbingState(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 1, 1.0, dist.NewExponential(1))
	if _, err := b.Build(); err == nil {
		t.Error("accepted absorbing state")
	}
}

func TestDistributionInterning(t *testing.T) {
	b := NewBuilder(3)
	b.Add(0, 1, 1.0, dist.NewExponential(5))
	b.Add(1, 2, 1.0, dist.NewExponential(5)) // same canonical string
	b.Add(2, 0, 1.0, dist.NewExponential(7))
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if m.NumDistributions() != 2 {
		t.Errorf("NumDistributions = %d, want 2 (interned)", m.NumDistributions())
	}
}

func TestKernelEntriesMatchDefinition(t *testing.T) {
	m := twoState(t)
	u := m.NewKernelMatrix()
	s := complex128(0.5 + 1i)
	m.FillKernel(s, u)
	// u_01 = 1.0·exp(2).LST(s)
	want01 := dist.NewExponential(2).LST(s)
	if got := u.At(0, 1); cmplx.Abs(got-want01) > 1e-14 {
		t.Errorf("u_01 = %v, want %v", got, want01)
	}
	// u_10 = 0.3·det(1).LST(s); u_11 = 0.7·uniform(0,2).LST(s)
	want10 := 0.3 * dist.NewDeterministic(1).LST(s)
	want11 := 0.7 * dist.NewUniform(0, 2).LST(s)
	if got := u.At(1, 0); cmplx.Abs(got-want10) > 1e-14 {
		t.Errorf("u_10 = %v, want %v", got, want10)
	}
	if got := u.At(1, 1); cmplx.Abs(got-want11) > 1e-14 {
		t.Errorf("u_11 = %v, want %v", got, want11)
	}
}

func TestKernelRowSumsAtZeroAreOne(t *testing.T) {
	// h*_i(0) = Σ_j r*_ij(0) = Σ_j p_ij = 1: row-stochasticity in the
	// transform domain.
	m := twoState(t)
	for i, h := range m.SojournLSTs(0) {
		if cmplx.Abs(h-1) > 1e-12 {
			t.Errorf("h*_%d(0) = %v, want 1", i, h)
		}
	}
}

func TestParallelTransitionsShareKernelSlot(t *testing.T) {
	// Two terms 0→1 with different distributions must sum into one
	// kernel entry: r*_01(s) = 0.4·L₁(s) + 0.6·L₂(s).
	b := NewBuilder(2)
	b.Add(0, 1, 0.4, dist.NewExponential(1))
	b.Add(0, 1, 0.6, dist.NewDeterministic(2))
	b.Add(1, 0, 1.0, dist.NewExponential(3))
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if m.KernelNNZ() != 2 {
		t.Fatalf("KernelNNZ = %d, want 2", m.KernelNNZ())
	}
	u := m.NewKernelMatrix()
	s := complex128(1 + 2i)
	m.FillKernel(s, u)
	want := 0.4*dist.NewExponential(1).LST(s) + 0.6*dist.NewDeterministic(2).LST(s)
	if got := u.At(0, 1); cmplx.Abs(got-want) > 1e-14 {
		t.Errorf("u_01 = %v, want %v", got, want)
	}
}

func TestFillKernelSampledMatchesDirect(t *testing.T) {
	m := twoState(t)
	s := complex128(0.7 + 0.4i)
	direct := m.NewKernelMatrix()
	m.FillKernel(s, direct)
	lsts := make([]complex128, m.NumDistributions())
	for id, d := range m.Distributions() {
		lsts[id] = d.LST(s)
	}
	sampled := m.NewKernelMatrix()
	m.FillKernelSampled(lsts, sampled)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if direct.At(i, j) != sampled.At(i, j) {
				t.Errorf("(%d,%d): direct %v != sampled %v", i, j, direct.At(i, j), sampled.At(i, j))
			}
		}
	}
}

func TestEmbeddedDTMCAndSteadyState(t *testing.T) {
	m := twoState(t)
	p := m.EmbeddedDTMC()
	if got := p.At(1, 0); got != 0.3 {
		t.Errorf("p_10 = %v, want 0.3", got)
	}
	pi, err := dtmc.SteadyStateGS(p, dtmc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// π0·1 = π1·0.3 jump balance: embedded chain: π = πP with
	// P = [[0,1],[0.3,0.7]] → π0 = 0.3π1, π0+π1=1 → π = (3/13, 10/13).
	if math.Abs(pi[0]-3.0/13) > 1e-9 || math.Abs(pi[1]-10.0/13) > 1e-9 {
		t.Errorf("pi = %v, want [3/13 10/13]", pi)
	}
}

func TestMeanSojournsAndSMPSteadyState(t *testing.T) {
	m := twoState(t)
	means := m.MeanSojourns()
	// State 0: exp(2) mean 0.5. State 1: 0.3·det(1) + 0.7·uniform(0,2):
	// 0.3·1 + 0.7·1 = 1.
	if math.Abs(means[0]-0.5) > 1e-12 || math.Abs(means[1]-1) > 1e-12 {
		t.Errorf("means = %v, want [0.5 1]", means)
	}
	pi := []float64{3.0 / 13, 10.0 / 13}
	ss := m.SteadyState(pi)
	// Weighted: (3/13·0.5, 10/13·1) normalised = (1.5, 10)/11.5.
	if math.Abs(ss[0]-1.5/11.5) > 1e-9 || math.Abs(ss[1]-10/11.5) > 1e-9 {
		t.Errorf("SMP steady state = %v, want [%v %v]", ss, 1.5/11.5, 10/11.5)
	}
}

func TestTermsIteration(t *testing.T) {
	m := twoState(t)
	var total float64
	m.Terms(1, func(tr Term) { total += tr.Prob })
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("state 1 term probabilities sum to %v", total)
	}
	if m.NumTerms() != 3 {
		t.Errorf("NumTerms = %d, want 3", m.NumTerms())
	}
}

func TestLabels(t *testing.T) {
	b := NewBuilder(2)
	b.SetLabel(0, "p1=5,p2=0")
	b.Add(0, 1, 1, dist.NewExponential(1))
	b.Add(1, 0, 1, dist.NewExponential(1))
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if m.Label(0) != "p1=5,p2=0" {
		t.Errorf("Label(0) = %q", m.Label(0))
	}
	if m.Label(1) != "state-1" {
		t.Errorf("Label(1) = %q, want fallback", m.Label(1))
	}
}

func TestAddPanicsOnBadInput(t *testing.T) {
	cases := []func(b *Builder){
		func(b *Builder) { b.Add(-1, 0, 1, dist.NewExponential(1)) },
		func(b *Builder) { b.Add(0, 5, 1, dist.NewExponential(1)) },
		func(b *Builder) { b.Add(0, 1, 0, dist.NewExponential(1)) },
		func(b *Builder) { b.Add(0, 1, -0.5, dist.NewExponential(1)) },
		func(b *Builder) { b.Add(0, 1, 1, nil) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			fn(NewBuilder(2))
		}()
	}
}

func TestBuildPatternMatchesCoordinateAssembly(t *testing.T) {
	// Build merges each row's destinations itself; the pattern and the
	// term slots must be those of assembling every (from, to) pair as
	// coordinate entries, duplicates and self-loops included.
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 1 + r.Intn(30)
		b := NewBuilder(n)
		for i := 0; i < n; i++ {
			k := 1 + r.Intn(6)
			for e := 0; e < k; e++ {
				b.Add(i, r.Intn(min(n, 4)+i%3)%n, 1/float64(k), dist.NewExponential(1))
			}
		}
		m, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		var is, js []int
		for i := 0; i < n; i++ {
			to, _, _ := m.TermSlices(i)
			for _, j := range to {
				is, js = append(is, i), append(js, int(j))
			}
		}
		want, idx := sparse.NewPattern(n, n, is, js)
		if m.KernelNNZ() != want.NNZ() {
			t.Fatalf("trial %d: %d kernel entries, coordinate assembly %d", trial, m.KernelNNZ(), want.NNZ())
		}
		for i := 0; i < n; i++ {
			var got, exp []int
			m.pattern.Row(i, func(j int) { got = append(got, j) })
			want.Row(i, func(j int) { exp = append(exp, j) })
			if !slices.Equal(got, exp) {
				t.Fatalf("trial %d: row %d = %v, coordinate assembly %v", trial, i, got, exp)
			}
		}
		for k, slot := range idx {
			if int(m.termSlot[k]) != slot {
				t.Fatalf("trial %d: term %d in slot %d, coordinate assembly %d", trial, k, m.termSlot[k], slot)
			}
		}
	}
}
