package dnamaca

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"hydra/internal/petri"
)

// The oracle is the tree-walker the resolved evaluator replaced: it
// looks every identifier up by name, in the marking's places and then
// the constants, each time it is evaluated.

type oracleEnv interface {
	lookup(name string) (float64, bool)
}

type oracleConsts map[string]float64

func (c oracleConsts) lookup(name string) (float64, bool) {
	v, ok := c[name]
	return v, ok
}

type oracleMarking struct {
	m        petri.Marking
	placeIdx map[string]int
	consts   map[string]float64
}

func (e *oracleMarking) lookup(name string) (float64, bool) {
	if i, ok := e.placeIdx[name]; ok {
		return float64(e.m[i]), true
	}
	v, ok := e.consts[name]
	return v, ok
}

func oracleEval(e Expr, en oracleEnv) (float64, error) {
	switch n := e.(type) {
	case numLit:
		return n.v, nil
	case varRef:
		if v, ok := en.lookup(n.name); ok {
			return v, nil
		}
		return 0, fmt.Errorf("dnamaca: unknown identifier %q", n.name)
	case unary:
		v, err := oracleEval(n.x, en)
		if err != nil {
			return 0, err
		}
		switch n.op {
		case "-":
			return -v, nil
		case "!":
			return boolVal(v == 0), nil
		}
		return 0, fmt.Errorf("dnamaca: unknown unary operator %q", n.op)
	case binary:
		l, err := oracleEval(n.l, en)
		if err != nil {
			return 0, err
		}
		switch n.op {
		case "&&":
			if l == 0 {
				return 0, nil
			}
			r, err := oracleEval(n.r, en)
			if err != nil {
				return 0, err
			}
			return boolVal(r != 0), nil
		case "||":
			if l != 0 {
				return 1, nil
			}
			r, err := oracleEval(n.r, en)
			if err != nil {
				return 0, err
			}
			return boolVal(r != 0), nil
		}
		r, err := oracleEval(n.r, en)
		if err != nil {
			return 0, err
		}
		switch n.op {
		case "+":
			return l + r, nil
		case "-":
			return l - r, nil
		case "*":
			return l * r, nil
		case "/":
			if r == 0 {
				return 0, fmt.Errorf("dnamaca: division by zero")
			}
			return l / r, nil
		case "==":
			return boolVal(l == r), nil
		case "!=":
			return boolVal(l != r), nil
		case "<":
			return boolVal(l < r), nil
		case "<=":
			return boolVal(l <= r), nil
		case ">":
			return boolVal(l > r), nil
		case ">=":
			return boolVal(l >= r), nil
		}
		return 0, fmt.Errorf("dnamaca: unknown operator %q", n.op)
	case call:
		return 0, fmt.Errorf("dnamaca: transform function %q is only valid inside \\sojourntimeLT", n.fn)
	}
	return 0, fmt.Errorf("dnamaca: unexpected expression node %T", e)
}

// corpusSeeds returns the string inputs of a fuzz target's checked-in
// corpus (testdata/fuzz/<target>).
func corpusSeeds(f *testing.F, target string) []string {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil {
		f.Fatal(err)
	}
	var out []string
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if lit, ok := strings.CutPrefix(line, "string("); ok {
				s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
				if err != nil {
					f.Fatalf("%s: %v", name, err)
				}
				out = append(out, s)
			}
		}
	}
	return out
}

// exprSpec has constants, marking-dependent weights and priorities,
// divisions that fail only in some markings, and every operator.
const exprSpec = `
\model{
  \statevector{ \type{short}{pa, pb, pc} }
  \constant{K}{2}
  \constant{H}{K/4 + 1}
  \initial{ pa = K; pb = 0; pc = 1; }
  \transition{go}{
    \condition{pa > 0 && (pb < K || !(pc == 0))}
    \action{ next->pa = pa - 1; next->pb = pb + pc/(pa - 1 + 2); }
    \weight{H * pa / (pb + 1) + (pc <= K)}
    \priority{1 + (pc >= K)}
    \sojourntimeLT{ return expLT(2, s); }
  }
  \transition{back}{
    \condition{pb > 0 || pa/(pc - 1) > 1}
    \action{ next->pa = pa + 1; next->pb = pb - 1; next->pc = -pc + 2*pc; }
    \weight{1/(pa - 3) + 5}
    \priority{pb != K}
    \sojourntimeLT{ return uniformLT(0, 1, s); }
  }
}
`

// evalOutcome is one evaluation's value, or the message of its error.
type evalOutcome struct {
	v   float64
	err string
}

func outcome(v float64, err error) evalOutcome {
	if err != nil {
		return evalOutcome{err: err.Error()}
	}
	return evalOutcome{v: v}
}

func (o evalOutcome) same(p evalOutcome) bool {
	return o.err == p.err && (o.v == p.v || math.IsNaN(o.v) && math.IsNaN(p.v))
}

// recovered runs fn and returns the message of the petri.EvalError it
// panics with, or "".
func recovered(t *testing.T, fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			ee, ok := r.(*petri.EvalError)
			if !ok {
				t.Fatalf("panic %v is not a petri.EvalError", r)
			}
			msg = ee.Error()
		}
	}()
	fn()
	return ""
}

// FuzzMarkingExpr checks the resolved evaluator against the oracle on
// every compiled spec: the constants, and each transition's condition,
// weight, priority and actions — both the expressions alone and the
// compiled transition functions, errors and their messages included —
// in random markings.
func FuzzMarkingExpr(f *testing.F) {
	for i, src := range append(append([]string{exprSpec}, parseSeeds...), corpusSeeds(f, "FuzzParse")...) {
		f.Add(src, int64(i))
	}
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		defer hangGuard(src)()
		spec, err := Parse(src)
		if err != nil {
			return
		}
		c, err := Compile(spec)
		if err != nil {
			return
		}
		consts := map[string]float64{}
		for _, cd := range spec.Model.Constants {
			v, err := oracleEval(cd.Value, oracleConsts(consts))
			if err != nil {
				t.Fatalf("constant %s compiled but the oracle fails: %v", cd.Name, err)
			}
			consts[cd.Name] = v
		}
		for name, v := range consts {
			if got := c.Constants[name]; !(evalOutcome{v: got}).same(evalOutcome{v: v}) {
				t.Fatalf("constant %s = %v, oracle %v", name, got, v)
			}
		}
		r := rand.New(rand.NewSource(seed))
		m := make(petri.Marking, len(spec.Model.Places))
		for trial := 0; trial < 16; trial++ {
			for i := range m {
				m[i] = int32(r.Intn(4))
				if r.Intn(8) == 0 {
					m[i] = int32(r.Intn(1 << 20))
				}
			}
			en := &oracleMarking{m: m, placeIdx: c.placeIdx, consts: consts}
			for k, ts := range spec.Model.Transitions {
				checkTransition(t, ts, c.Net.Transitions[k], c, en)
			}
		}
	})
}

// checkTransition compares one compiled transition with the oracle in
// the marking en.m.
func checkTransition(t *testing.T, ts *TransitionSpec, tr *petri.Transition, c *Compiled, en *oracleMarking) {
	t.Helper()
	m := en.m
	where := fmt.Sprintf("dnamaca: transition %s (line %d)", ts.Name, ts.Line)
	eval := func(what string, e Expr) evalOutcome {
		want := outcome(oracleEval(e, en))
		if got := outcome(evalReal(resolve(e, c.placeIdx, c.Constants), m)); !got.same(want) {
			t.Fatalf("%s: %s %s in %v = %+v, oracle %+v", where, what, e, m, got, want)
		}
		return want
	}
	fail := func(what, got, want string) {
		t.Fatalf("%s: %s in %v: compiled %q, oracle %q", where, what, m, got, want)
	}

	cond := eval("condition", ts.Condition)
	var enabled bool
	msg := recovered(t, func() { enabled = tr.Enabled(m) })
	if cond.err != "" {
		if want := fmt.Sprintf("%s: condition: %s", where, cond.err); msg != want {
			fail("condition", msg, want)
		}
	} else if msg != "" || enabled != (cond.v != 0) {
		fail("condition", fmt.Sprint(enabled, msg), fmt.Sprint(cond.v != 0))
	}

	w := evalOutcome{v: 1}
	if ts.Weight != nil {
		w = eval("weight", ts.Weight)
	}
	var weight float64
	msg = recovered(t, func() { weight = tr.Weight(m) })
	if w.err != "" {
		if want := fmt.Sprintf("%s: weight: %s", where, w.err); msg != want {
			fail("weight", msg, want)
		}
	} else if msg != "" || !(evalOutcome{v: weight}).same(w) {
		fail("weight", fmt.Sprint(weight, msg), fmt.Sprint(w.v))
	}

	p := evalOutcome{v: 1}
	if ts.Priority != nil {
		p = eval("priority", ts.Priority)
	}
	var prio int
	msg = recovered(t, func() { prio = tr.Priority(m) })
	switch {
	case p.err != "":
		if want := fmt.Sprintf("%s: priority 0 (err %s)", where, p.err); msg != want {
			fail("priority", msg, want)
		}
	case !isInteger(p.v):
		if want := fmt.Sprintf("%s: priority %v (err <nil>)", where, p.v); msg != want {
			fail("priority", msg, want)
		}
	case msg != "" || prio != int(math.Round(p.v)):
		fail("priority", fmt.Sprint(prio, msg), fmt.Sprint(p.v))
	}

	want := m.Clone()
	wantMsg := ""
	for _, a := range ts.Actions {
		v := eval("action "+a.Place, a.Value)
		if v.err != "" {
			wantMsg = fmt.Sprintf("%s: action %s: %s", where, a.Place, v.err)
			break
		}
		if !isInteger(v.v) {
			wantMsg = fmt.Sprintf("%s: action %s yields non-integer %v in marking %v", where, a.Place, v.v, m)
			break
		}
		want[c.placeIdx[a.Place]] = int32(math.Round(v.v))
	}
	var next petri.Marking
	msg = recovered(t, func() { next = tr.Fire(m) })
	if msg != wantMsg || wantMsg == "" && fmt.Sprint(next) != fmt.Sprint(want) {
		fail("fire", fmt.Sprint(next, msg), fmt.Sprint(want, wantMsg))
	}
}

func TestMarkingExprSeedsReachErrors(t *testing.T) {
	// exprSpec's divisions fail in some markings: the differential
	// check above must see evaluation errors, not only values.
	spec, err := Parse(exprSpec)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	back := spec.Model.Transitions[1]
	_, err = evalReal(resolve(back.Weight, c.placeIdx, c.Constants), petri.Marking{3, 0, 0})
	_, oerr := oracleEval(back.Weight, &oracleMarking{m: petri.Marking{3, 0, 0}, placeIdx: c.placeIdx, consts: c.Constants})
	if err == nil || oerr == nil || err.Error() != oerr.Error() || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("weight of back at pa=3: resolved %v, oracle %v; want the same division-by-zero error", err, oerr)
	}
	msg := recovered(t, func() { c.Net.Transitions[1].Weight(petri.Marking{3, 0, 0}) })
	if !strings.HasSuffix(msg, "weight: dnamaca: division by zero") {
		t.Errorf("Weight panic %q, want the weight's division by zero", msg)
	}
}
