package dnamaca

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"hydra/internal/petri"
)

// fuzzMaxStates bounds exploration inside the fuzz targets, so a spec
// whose net is unbounded costs a few hundred markings, not the 5·10⁶
// default.
const fuzzMaxStates = 200

// loadBounded is the front end LoadSpec runs — parse, compile, explore,
// resolve every measure — with exploration bounded. Errors are the
// expected outcome for most inputs; a panic or an unbounded allocation
// is a bug.
func loadBounded(src string) {
	spec, err := Parse(src)
	if err != nil {
		return
	}
	c, err := Compile(spec)
	if err != nil {
		return
	}
	ss, err := petri.Explore(c.Net, petri.ExploreOptions{MaxStates: fuzzMaxStates})
	if err != nil {
		return
	}
	for _, ms := range spec.Passages {
		c.ResolveMeasure(ms, ss)
	}
	for _, ms := range spec.Transients {
		c.ResolveMeasure(ms, ss)
	}
	for _, sm := range spec.StateMeasures {
		c.ResolveStateMeasure(sm, ss)
	}
}

// hangGuard crashes the process if the input is still loading after ten
// seconds, so the fuzzer records a hang as a crasher instead of stalling
// (an Erlang transform with 10¹² phases once looped phase by phase).
// The returned func disarms it.
func hangGuard(input string) func() {
	t := time.AfterFunc(10*time.Second, func() {
		panic(fmt.Sprintf("input still loading after 10s: %q", input))
	})
	return func() { t.Stop() }
}

// parseSeeds are FuzzParse's hand-written seeds; FuzzMarkingExpr starts
// from them too.
var parseSeeds = []string{
	minimalSpec,
	strings.Replace(minimalSpec, "expLT(2, s)", "0.4*expLT(2, s) + 0.6*erlangLT(3, 2, s)", 1),
	strings.Replace(minimalSpec, `\t_points{5}`, `\t_points{50}`, 1),
	// Malformed: truncated, unbalanced, unknown blocks and words.
	minimalSpec[:len(minimalSpec)/2],
	`\model{ \statevector{ \type{short}{a} } \initial{ a = 1; }`,
	`\model{}}`,
	`\model{ \statevector{ \type{short}{a} } \constant{k}{a} \initial{ a = k; } }`,
	`\model{ \statevector{ \type{short}{a, a} } \initial{ a = 1; } }`,
	`\passage{ \sourcecondition{x == 1} }`,
	"\\model{ \\statevector{ \\type{short}{a} } \\initial{ a = 1e999; } }",
}

func FuzzParse(f *testing.F) {
	for _, src := range parseSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		defer hangGuard(src)()
		loadBounded(src)
	})
}

// distSpec splices a \sojourntimeLT body into a two-state model: the
// spliced transform times the token's move from p to q.
const distSpec = `
\model{
  \statevector{ \type{short}{p, q} }
  \initial{ p = 1; q = 0; }
  \constant{lam}{2}
  \transition{go}{
    \condition{p > 0}
    \action{ next->p = p - 1; next->q = q + 1; }
    \sojourntimeLT{ return %s; }
  }
  \transition{back}{
    \condition{q > 0}
    \action{ next->p = p + 1; next->q = q - 1; }
    \sojourntimeLT{ return expLT(1, s); }
  }
}
\passage{
  \sourcecondition{p == 1}
  \targetcondition{q == 1}
  \t_start{0.5} \t_stop{2} \t_points{4}
}
`

func FuzzDistExpr(f *testing.F) {
	for _, expr := range []string{
		"expLT(2, s)",
		"expLT(lam*p, s)",
		"uniformLT(0.2, 1.0, s)",
		"erlangLT(4, 2, s)",
		"0.8 * uniformLT(1.5,10,s) + 0.2 * erlangLT(0.001,5,s)",
		"expLT(1, s) * detLT(0.5, s)",
		"lam/(lam+s)",
		"immediateLT()",
		"gammaLT(0.5, 2, s)",
		"weibullLT(1.5, 2, s)",
		"paretoLT(2.5, 1, s)",
		"lognormalLT(0, 0.5, s)",
		"0.5 * expLT(1, s)",
		"erlangLT(1, 1e12, s)",
		"1/s",
		"expLT(1, s",
	} {
		f.Add(expr)
	}
	f.Fuzz(func(t *testing.T, expr string) {
		defer hangGuard(expr)()
		loadBounded(fmt.Sprintf(distSpec, expr))
	})
}
