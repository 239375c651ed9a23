package dnamaca

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"hydra/internal/dist"
	"hydra/internal/petri"
)

// minimalSpec is a two-place cyclic model used across tests.
const minimalSpec = `
\model{
  \statevector{ \type{short}{pa, pb} }
  \initial{ pa = 1; pb = 0; }
  \transition{go}{
    \condition{pa > 0}
    \action{ next->pa = pa - 1; next->pb = pb + 1; }
    \weight{1.0}
    \priority{1}
    \sojourntimeLT{ return expLT(2, s); }
  }
  \transition{back}{
    \condition{pb > 0}
    \action{ next->pa = pa + 1; next->pb = pb - 1; }
    \weight{1.0}
    \priority{1}
    \sojourntimeLT{ return uniformLT(0, 1, s); }
  }
}
\passage{
  \sourcecondition{pa == 1}
  \targetcondition{pb == 1}
  \t_start{0.1} \t_stop{2} \t_points{5}
}
`

func TestParseAndCompileMinimal(t *testing.T) {
	spec, err := Parse(minimalSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Model.Transitions) != 2 || len(spec.Passages) != 1 {
		t.Fatalf("parsed %d transitions, %d passages", len(spec.Model.Transitions), len(spec.Passages))
	}
	c, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := petri.Explore(c.Net, petri.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ss.NumStates() != 2 {
		t.Fatalf("states = %d, want 2", ss.NumStates())
	}
	sources, targets, ts, err := c.ResolveMeasure(spec.Passages[0], ss)
	if err != nil {
		t.Fatal(err)
	}
	if len(sources) != 1 || len(targets) != 1 {
		t.Errorf("sources %v targets %v", sources, targets)
	}
	if len(ts) != 5 || ts[0] != 0.1 || ts[4] != 2 {
		t.Errorf("t-grid %v", ts)
	}
}

// TestPaperFig3Excerpt parses the paper's transition t5 verbatim.
func TestPaperFig3Excerpt(t *testing.T) {
	src := `
\model{
  \statevector{ \type{short}{p3, p7} }
  \initial{ p3 = 0; p7 = 6; }
  \constant{MM}{6}
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
  \transition{refail}{
    \condition{p3 > MM-1}
    \action{ next->p3 = p3 - MM; next->p7 = p7 + MM; }
    \weight{1.0}
    \priority{1}
    \sojourntimeLT{ return expLT(0.01, s); }
  }
}
`
	spec, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	t5 := c.Net.Transitions[0]
	if t5.Name != "t5" {
		t.Fatalf("first transition is %q", t5.Name)
	}
	m := petri.Marking{0, 6}
	if !t5.Enabled(m) {
		t.Error("t5 must be enabled with p7=6")
	}
	if t5.Enabled(petri.Marking{0, 5}) {
		t.Error("t5 must be disabled with p7=5")
	}
	next := t5.Fire(m)
	if next[0] != 6 || next[1] != 0 {
		t.Errorf("t5 fired to %v, want [6 0]", next)
	}
	if p := t5.Priority(m); p != 2 {
		t.Errorf("priority = %d, want 2", p)
	}
	if w := t5.Weight(m); w != 1.0 {
		t.Errorf("weight = %v, want 1", w)
	}
	// The firing distribution is the paper's mixture; verify its LST
	// against the direct construction.
	d := t5.Dist(m)
	want := dist.NewMixture([]float64{0.8, 0.2},
		[]dist.Distribution{dist.NewUniform(1.5, 10), dist.NewErlang(0.001, 5)})
	for _, s := range []complex128{0.01, 0.5 + 1i, 2 - 3i} {
		if cmplx.Abs(d.LST(s)-want.LST(s)) > 1e-14 {
			t.Errorf("t5 LST at %v: %v want %v", s, d.LST(s), want.LST(s))
		}
	}
	// Structural conversion must have produced a samplable mixture.
	if _, ok := d.(dist.Mixture); !ok {
		t.Errorf("t5 distribution is %T, want dist.Mixture", d)
	}
}

func TestConstantsResolveInOrder(t *testing.T) {
	src := `
\model{
  \statevector{ \type{short}{p} }
  \initial{ p = NTOT; }
  \constant{N}{3}
  \constant{NTOT}{N * 2}
  \transition{spin}{
    \condition{p > 0}
    \action{ next->p = p; }
    \sojourntimeLT{ expLT(N, s) }
  }
}
`
	spec, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if c.Net.Initial[0] != 6 {
		t.Errorf("initial p = %d, want 6", c.Net.Initial[0])
	}
}

func TestMarkingDependentSojourn(t *testing.T) {
	// Service rate proportional to the queue length — the
	// marking-dependent D function of §5.1.
	src := `
\model{
  \statevector{ \type{short}{q, d} }
  \initial{ q = 2; d = 0; }
  \transition{serve}{
    \condition{q > 0}
    \action{ next->q = q - 1; next->d = d + 1; }
    \sojourntimeLT{ expLT(3 * q, s) }
  }
  \transition{reset}{
    \condition{q == 0}
    \action{ next->q = 2; next->d = 0; }
    \sojourntimeLT{ detLT(1, s) }
  }
}
`
	spec, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	serve := c.Net.Transitions[0]
	d2 := serve.Dist(petri.Marking{2, 0})
	d1 := serve.Dist(petri.Marking{1, 1})
	if math.Abs(d2.Mean()-1.0/6) > 1e-12 {
		t.Errorf("rate at q=2: mean %v, want 1/6", d2.Mean())
	}
	if math.Abs(d1.Mean()-1.0/3) > 1e-12 {
		t.Errorf("rate at q=1: mean %v, want 1/3", d1.Mean())
	}
	// Cache must distinguish markings but reuse identical ones.
	if serve.Dist(petri.Marking{2, 0}) != d2 {
		t.Error("distribution cache missed an identical marking")
	}
}

func TestAnalysisOnlyTransformFallback(t *testing.T) {
	// A transform with s used non-structurally: (1-s/(s+1))/1 is the
	// exp(1) LST written oddly; it must fall back to exprLST and still
	// evaluate correctly.
	src := `
\model{
  \statevector{ \type{short}{p} }
  \initial{ p = 1; }
  \transition{spin}{
    \condition{p > 0}
    \action{ next->p = p; }
    \sojourntimeLT{ 1 - s/(s+1) }
  }
}
`
	spec, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	d := c.Net.Transitions[0].Dist(petri.Marking{1})
	e := dist.NewExponential(1)
	for _, s := range []complex128{0.3, 1 + 2i} {
		if cmplx.Abs(d.LST(s)-e.LST(s)) > 1e-12 {
			t.Errorf("fallback LST at %v: %v want %v", s, d.LST(s), e.LST(s))
		}
	}
	if math.Abs(d.Mean()-1) > 1e-4 {
		t.Errorf("fallback mean %v, want 1", d.Mean())
	}
	// Sampling must refuse loudly.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("sampling an analysis-only transform did not panic")
			}
		}()
		d.Sample(nil)
	}()
}

func TestParseErrorsArePositioned(t *testing.T) {
	cases := []struct {
		src  string
		frag string
	}{
		{`\model{ \statevector{ \type{short}{p} } \initial{ p = ; } }`, "expected an expression"},
		{`\model{ \junk{} }`, "unknown"},
		{`\foo{}`, "unknown top-level"},
		{`\model{ \statevector{ \type{short}{p} } }` + "\n" + `\passage{ \t_start{1} }`, "sourcecondition"},
		{``, "no \\model"},
	}
	for i, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("case %d: no error", i)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("case %d: error %q does not mention %q", i, err, c.frag)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		src  string
		frag string
	}{
		{`\model{ \statevector{ \type{short}{p, p} } \initial{p=1;} \transition{t}{\condition{p>0}\action{next->p=p;}\sojourntimeLT{expLT(1,s)}} }`, "duplicate place"},
		{`\model{ \statevector{ \type{short}{p} } \initial{q=1;} \transition{t}{\condition{p>0}\action{next->p=p;}\sojourntimeLT{expLT(1,s)}} }`, "unknown place"},
		{`\model{ \statevector{ \type{short}{p} } \initial{p=1;} \transition{t}{\condition{p>0}\action{next->p=p;}} }`, "sojourntimeLT"},
		{`\model{ \statevector{ \type{short}{p} } \initial{p=1;} \transition{t}{\condition{zz>0}\action{next->p=p;}\sojourntimeLT{expLT(1,s)}} }`, "zz"},
		{`\model{ \statevector{ \type{short}{p} } \initial{p=0.5;} \transition{t}{\condition{p>=0}\action{next->p=p;}\sojourntimeLT{expLT(1,s)}} }`, "non-negative integer"},
	}
	for i, c := range cases {
		spec, err := Parse(c.src)
		if err != nil {
			t.Errorf("case %d: parse failed early: %v", i, err)
			continue
		}
		_, err = Compile(spec)
		if err == nil {
			t.Errorf("case %d: no compile error", i)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("case %d: error %q does not mention %q", i, err, c.frag)
		}
	}
}

func TestSubStochasticMixtureRejected(t *testing.T) {
	// Weights 0.5 + 0.2 ≠ 1: the expression is not the transform of a
	// probability distribution (L(0)=0.7) and must be rejected — by the
	// structural path and by the L(0)=1 probe of the fallback alike.
	e, err := Parse(`\model{ \statevector{ \type{short}{p} } \initial{p=1;}
	  \transition{t}{\condition{p>0}\action{next->p=p;}
	  \sojourntimeLT{0.5*expLT(1,s) + 0.2*expLT(2,s)}} }`)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(e)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Error("sub-stochastic sojourn did not panic on use")
			return
		}
		if !strings.Contains(fmt.Sprint(r), "not a probability") {
			t.Errorf("panic %v does not explain the probability defect", r)
		}
	}()
	c.Net.Transitions[0].Dist(petri.Marking{1})
}

func TestConvolutionProductOfTransforms(t *testing.T) {
	spec, err := Parse(`\model{ \statevector{ \type{short}{p} } \initial{p=1;}
	  \transition{t}{\condition{p>0}\action{next->p=p;}
	  \sojourntimeLT{expLT(2,s) * detLT(1,s)}} }`)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	d := c.Net.Transitions[0].Dist(petri.Marking{1})
	want := dist.NewConvolution(dist.NewExponential(2), dist.NewDeterministic(1))
	s := complex128(0.7 + 0.4i)
	if cmplx.Abs(d.LST(s)-want.LST(s)) > 1e-14 {
		t.Errorf("convolution LST %v, want %v", d.LST(s), want.LST(s))
	}
	if math.Abs(d.Mean()-1.5) > 1e-12 {
		t.Errorf("convolution mean %v, want 1.5", d.Mean())
	}
}

func TestLexerCommentsAndNumbers(t *testing.T) {
	lx := newLexer("% comment line\n1.5e-3 foo // trailing\n\\cmd")
	t1, err := lx.next()
	if err != nil || t1.kind != tokNumber || t1.text != "1.5e-3" {
		t.Fatalf("t1 = %+v err %v", t1, err)
	}
	t2, _ := lx.next()
	if t2.kind != tokIdent || t2.text != "foo" {
		t.Fatalf("t2 = %+v", t2)
	}
	t3, _ := lx.next()
	if t3.kind != tokCommand || t3.text != "cmd" {
		t.Fatalf("t3 = %+v", t3)
	}
	if t3.line != 3 {
		t.Errorf("line = %d, want 3", t3.line)
	}
}

func TestLinspace(t *testing.T) {
	got := Linspace(1, 3, 5)
	want := []float64{1, 1.5, 2, 2.5, 3}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("linspace %v", got)
		}
	}
	if one := Linspace(2, 9, 1); len(one) != 1 || one[0] != 2 {
		t.Errorf("single-point linspace %v", one)
	}
}

func TestHeavyTailTransformFunctions(t *testing.T) {
	spec, err := Parse(`\model{ \statevector{ \type{short}{p} } \initial{p=1;}
	  \transition{t}{\condition{p>0}\action{next->p=p;}
	  \sojourntimeLT{0.5*paretoLT(2.5, 1, s) + 0.5*lognormalLT(0, 0.5, s)}} }`)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	d := c.Net.Transitions[0].Dist(petri.Marking{1})
	if _, ok := d.(dist.Mixture); !ok {
		t.Fatalf("heavy-tail mixture compiled to %T", d)
	}
	want := 0.5*dist.NewPareto(2.5, 1).Mean() + 0.5*dist.NewLogNormal(0, 0.5).Mean()
	if math.Abs(d.Mean()-want) > 1e-9 {
		t.Errorf("mean = %v, want %v", d.Mean(), want)
	}
}

func TestExpressionCanonicalFormIsStable(t *testing.T) {
	// Parsing an expression's String() must yield the same String() —
	// the property the distribution-interning cache relies on.
	exprs := []string{
		"p7 > MM-1",
		"0.8 * uniformLT(1.5,10,s) + 0.2 * erlangLT(0.001,5,s)",
		"(a + b) * (c - d) / 2",
		"!(x == 3) && y <= 4 || z != 0",
		"-q + 7.5e-2",
	}
	for _, src := range exprs {
		p1 := &parser{lx: newLexer(src)}
		if err := p1.advance(); err != nil {
			t.Fatal(err)
		}
		e1, err := p1.parseExpr()
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		canon := e1.String()
		p2 := &parser{lx: newLexer(canon)}
		if err := p2.advance(); err != nil {
			t.Fatal(err)
		}
		e2, err := p2.parseExpr()
		if err != nil {
			t.Fatalf("canonical %q: %v", canon, err)
		}
		if e2.String() != canon {
			t.Errorf("%q: canonical form unstable: %q vs %q", src, canon, e2.String())
		}
	}
}

func TestEvalRealOperatorTable(t *testing.T) {
	consts := map[string]float64{"x": 3, "y": 0}
	cases := []struct {
		src  string
		want float64
	}{
		{"1 + 2 * 3", 7},
		{"(1 + 2) * 3", 9},
		{"x / 2", 1.5},
		{"x - 5", -2},
		{"x == 3", 1},
		{"x != 3", 0},
		{"x >= 4", 0},
		{"x < 4 && y == 0", 1},
		{"y != 0 || x > 2", 1},
		{"!(x > 2)", 0},
		{"-x", -3},
	}
	for _, c := range cases {
		p := &parser{lx: newLexer(c.src)}
		if err := p.advance(); err != nil {
			t.Fatal(err)
		}
		e, err := p.parseExpr()
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		got, err := evalReal(resolve(e, nil, consts), nil)
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		if got != c.want {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
	// Division by zero and unknown identifiers are reported, not NaN.
	for _, bad := range []string{"1 / y", "zz + 1"} {
		p := &parser{lx: newLexer(bad)}
		if err := p.advance(); err != nil {
			t.Fatal(err)
		}
		e, err := p.parseExpr()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := evalReal(resolve(e, nil, consts), nil); err == nil {
			t.Errorf("%q evaluated without error", bad)
		}
	}
}

func TestTPointsBounded(t *testing.T) {
	spec, err := Parse(strings.Replace(minimalSpec, `\t_points{5}`, `\t_points{1e12}`, 1))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := petri.Explore(c.Net, petri.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.ResolveMeasure(spec.Passages[0], ss); err == nil || !strings.Contains(err.Error(), "t_points") {
		t.Errorf("a 10¹²-point t-grid resolved with err = %v; want a t_points error", err)
	}
}

func TestSojournErrorInExploreIsAnError(t *testing.T) {
	// The compile-time probe cannot reject a transform whose parameters
	// only go wrong in reachable markings; exploration must then report
	// it rather than panic.
	spec, err := Parse(strings.Replace(minimalSpec, "expLT(2, s)", "expLT(pa - 1, s)", 1))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, err = petri.Explore(c.Net, petri.ExploreOptions{})
	var ee *petri.EvalError
	if !errors.As(err, &ee) || !strings.Contains(err.Error(), "exponential rate") {
		t.Errorf("err = %v; want the exponential-rate failure as a petri.EvalError", err)
	}
}
