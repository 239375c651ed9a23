package dnamaca

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"hydra/internal/petri"
)

// Expr is a node of the expression language shared by conditions,
// actions, weights, priorities and sojourn-time transforms.
type Expr interface {
	// String renders a canonical form (used for distribution interning).
	String() string
}

type numLit struct{ v float64 }

// varRef is an identifier. The parser leaves it unresolved; resolve
// binds it to a place (read from the marking by index) or to a
// constant's value, keeping the name for String and error messages.
type varRef struct {
	name string
	kind refKind
	slot int     // refPlace: index into the marking
	val  float64 // refConst: the value
}

type refKind uint8

const (
	refUnknown refKind = iota // evaluating it is an "unknown identifier" error
	refPlace
	refConst
)

type unary struct {
	op string // "-" or "!"
	x  Expr
}

type binary struct {
	op   string
	l, r Expr
}

type call struct {
	fn   string
	args []Expr
}

func (n numLit) String() string { return trimFloat(n.v) }
func (v varRef) String() string { return v.name }
func (u unary) String() string  { return u.op + "(" + u.x.String() + ")" }
func (b binary) String() string {
	return "(" + b.l.String() + b.op + b.r.String() + ")"
}
func (c call) String() string {
	parts := make([]string, len(c.args))
	for i, a := range c.args {
		parts[i] = a.String()
	}
	return c.fn + "(" + strings.Join(parts, ",") + ")"
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	return s
}

// resolve returns e with every identifier bound once, against the
// place indices and then the constant table, so that evaluation reads
// m[i] or a value instead of looking a name up. Either table may be
// nil; a name in neither stays unknown and is reported if it is ever
// evaluated. The result has e's shape and String.
func resolve(e Expr, places map[string]int, consts map[string]float64) Expr {
	switch n := e.(type) {
	case varRef:
		if i, ok := places[n.name]; ok {
			return varRef{name: n.name, kind: refPlace, slot: i}
		}
		if v, ok := consts[n.name]; ok {
			return varRef{name: n.name, kind: refConst, val: v}
		}
		return varRef{name: n.name}
	case unary:
		return unary{op: n.op, x: resolve(n.x, places, consts)}
	case binary:
		return binary{op: n.op, l: resolve(n.l, places, consts), r: resolve(n.r, places, consts)}
	case call:
		args := make([]Expr, len(n.args))
		for i, a := range n.args {
			args[i] = resolve(a, places, consts)
		}
		return call{fn: n.fn, args: args}
	}
	return e
}

// evalReal evaluates a resolved expression (see resolve) to a float64
// in marking m, which may be nil if the expression reads no place.
// Boolean subexpressions yield 1 or 0; relational and logical operators
// treat non-zero as true.
func evalReal(e Expr, m petri.Marking) (float64, error) {
	switch n := e.(type) {
	case numLit:
		return n.v, nil
	case varRef:
		switch n.kind {
		case refPlace:
			return float64(m[n.slot]), nil
		case refConst:
			return n.val, nil
		}
		return 0, fmt.Errorf("dnamaca: unknown identifier %q", n.name)
	case unary:
		v, err := evalReal(n.x, m)
		if err != nil {
			return 0, err
		}
		switch n.op {
		case "-":
			return -v, nil
		case "!":
			if v == 0 {
				return 1, nil
			}
			return 0, nil
		}
		return 0, fmt.Errorf("dnamaca: unknown unary operator %q", n.op)
	case binary:
		l, err := evalReal(n.l, m)
		if err != nil {
			return 0, err
		}
		// Short-circuit logicals.
		switch n.op {
		case "&&":
			if l == 0 {
				return 0, nil
			}
			r, err := evalReal(n.r, m)
			if err != nil {
				return 0, err
			}
			return boolVal(r != 0), nil
		case "||":
			if l != 0 {
				return 1, nil
			}
			r, err := evalReal(n.r, m)
			if err != nil {
				return 0, err
			}
			return boolVal(r != 0), nil
		}
		r, err := evalReal(n.r, m)
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
	default:
		return 0, fmt.Errorf("dnamaca: unexpected expression node %T", e)
	}
}

func boolVal(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// freeVars collects the identifiers referenced by the expression, by
// name, excluding the Laplace variable s.
func freeVars(e Expr, into map[string]varRef) {
	switch n := e.(type) {
	case varRef:
		if n.name != "s" {
			into[n.name] = n
		}
	case unary:
		freeVars(n.x, into)
	case binary:
		freeVars(n.l, into)
		freeVars(n.r, into)
	case call:
		for _, a := range n.args {
			freeVars(a, into)
		}
	}
}

// sortedVars returns the free identifiers of an expression (see
// freeVars), sorted by name.
func sortedVars(e Expr) []varRef {
	set := map[string]varRef{}
	freeVars(e, set)
	out := make([]varRef, 0, len(set))
	for _, v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// isInteger reports whether v is close enough to an integer for token
// counts and priorities.
func isInteger(v float64) bool {
	return math.Abs(v-math.Round(v)) < 1e-9
}
