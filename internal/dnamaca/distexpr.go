package dnamaca

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"hydra/internal/dist"
	"hydra/internal/petri"
)

// The transform functions of the specification language. Each takes its
// distribution parameters followed by the Laplace variable s, matching
// the paper's uniformLT(1.5, 10, s) and erlangLT(0.001, 5, s).
var distConstructors = map[string]struct {
	args  int // parameter count excluding the trailing s
	build func(args []float64) (dist.Distribution, error)
}{
	"uniformLT": {2, func(a []float64) (dist.Distribution, error) {
		return safeDist(func() dist.Distribution { return dist.NewUniform(a[0], a[1]) })
	}},
	"erlangLT": {2, func(a []float64) (dist.Distribution, error) {
		if !isInteger(a[1]) || a[1] < 1 {
			return nil, fmt.Errorf("erlangLT phase count %v is not a positive integer", a[1])
		}
		return safeDist(func() dist.Distribution { return dist.NewErlang(a[0], int(math.Round(a[1]))) })
	}},
	"expLT": {1, func(a []float64) (dist.Distribution, error) {
		return safeDist(func() dist.Distribution { return dist.NewExponential(a[0]) })
	}},
	"detLT": {1, func(a []float64) (dist.Distribution, error) {
		return safeDist(func() dist.Distribution { return dist.NewDeterministic(a[0]) })
	}},
	"gammaLT": {2, func(a []float64) (dist.Distribution, error) {
		return safeDist(func() dist.Distribution { return dist.NewGamma(a[0], a[1]) })
	}},
	"weibullLT": {2, func(a []float64) (dist.Distribution, error) {
		return safeDist(func() dist.Distribution { return dist.NewWeibull(a[0], a[1]) })
	}},
	"immediateLT": {0, func([]float64) (dist.Distribution, error) {
		return dist.NewDeterministic(0), nil
	}},
	"paretoLT": {2, func(a []float64) (dist.Distribution, error) {
		return safeDist(func() dist.Distribution { return dist.NewPareto(a[0], a[1]) })
	}},
	"lognormalLT": {2, func(a []float64) (dist.Distribution, error) {
		return safeDist(func() dist.Distribution { return dist.NewLogNormal(a[0], a[1]) })
	}},
}

func safeDist(build func() dist.Distribution) (d dist.Distribution, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	return build(), nil
}

// buildDistribution interprets a resolved \sojourntimeLT expression
// (see resolve) structurally in marking m, producing a full
// Distribution — samplable by the simulator — whenever the expression
// is a weighted sum of products of the known transform functions.
// Expressions that use s in other ways fall back to an analysis-only
// transform (see exprLST).
func buildDistribution(e Expr, m petri.Marking) (dist.Distribution, error) {
	terms, err := convertSum(e, m)
	if err == nil {
		return assemble(terms)
	}
	structuralErr := err
	// Fallback: arbitrary transform, analysis-only.
	d, err := newExprLST(e, m)
	if err != nil {
		return nil, fmt.Errorf("dnamaca: sojourn expression is neither structural (%v) nor a valid transform (%v)", structuralErr, err)
	}
	return d, nil
}

// wTerm is one mixture branch: weight times a distribution.
type wTerm struct {
	w float64
	d dist.Distribution
}

func assemble(terms []wTerm) (dist.Distribution, error) {
	if len(terms) == 0 {
		return nil, fmt.Errorf("empty sojourn expression")
	}
	var sum float64
	for _, t := range terms {
		if t.w <= 0 {
			return nil, fmt.Errorf("mixture weight %v is not positive", t.w)
		}
		sum += t.w
	}
	if math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("mixture weights sum to %v, not 1 — the expression is not a probability transform", sum)
	}
	if len(terms) == 1 {
		return terms[0].d, nil
	}
	ws := make([]float64, len(terms))
	ds := make([]dist.Distribution, len(terms))
	for i, t := range terms {
		ws[i] = t.w
		ds[i] = t.d
	}
	return dist.NewMixture(ws, ds), nil
}

// convertSum flattens the expression into mixture terms.
func convertSum(e Expr, m petri.Marking) ([]wTerm, error) {
	switch n := e.(type) {
	case binary:
		if n.op == "+" {
			l, err := convertSum(n.l, m)
			if err != nil {
				return nil, err
			}
			r, err := convertSum(n.r, m)
			if err != nil {
				return nil, err
			}
			return append(l, r...), nil
		}
	}
	t, err := convertProduct(e, m)
	if err != nil {
		return nil, err
	}
	return []wTerm{t}, nil
}

// convertProduct interprets scalar·LT·LT… products: scalars multiply the
// weight, transform factors convolve.
func convertProduct(e Expr, m petri.Marking) (wTerm, error) {
	factors, err := flattenProduct(e, m)
	if err != nil {
		return wTerm{}, err
	}
	out := wTerm{w: 1}
	var convParts []dist.Distribution
	for _, f := range factors {
		if f.isScalar {
			out.w *= f.scalar
			continue
		}
		convParts = append(convParts, f.d)
	}
	switch len(convParts) {
	case 0:
		return wTerm{}, fmt.Errorf("term %q has no transform factor", e)
	case 1:
		out.d = convParts[0]
	default:
		out.d = dist.NewConvolution(convParts...)
	}
	return out, nil
}

type factor struct {
	isScalar bool
	scalar   float64
	d        dist.Distribution
}

func flattenProduct(e Expr, m petri.Marking) ([]factor, error) {
	switch n := e.(type) {
	case binary:
		switch n.op {
		case "*":
			l, err := flattenProduct(n.l, m)
			if err != nil {
				return nil, err
			}
			r, err := flattenProduct(n.r, m)
			if err != nil {
				return nil, err
			}
			return append(l, r...), nil
		case "/":
			l, err := flattenProduct(n.l, m)
			if err != nil {
				return nil, err
			}
			den, err := evalReal(n.r, m)
			if err != nil {
				return nil, fmt.Errorf("divisor in %q is not scalar: %v", e, err)
			}
			if den == 0 {
				return nil, fmt.Errorf("division by zero in %q", e)
			}
			return append(l, factor{isScalar: true, scalar: 1 / den}), nil
		}
	case call:
		d, err := buildCall(n, m)
		if err != nil {
			return nil, err
		}
		return []factor{{d: d}}, nil
	case unary:
		if n.op == "-" {
			inner, err := flattenProduct(n.x, m)
			if err != nil {
				return nil, err
			}
			return append(inner, factor{isScalar: true, scalar: -1}), nil
		}
	}
	// Anything else must be a scalar subexpression (no s, no calls).
	v, err := evalReal(e, m)
	if err != nil {
		return nil, fmt.Errorf("%q is not a scalar: %v", e, err)
	}
	return []factor{{isScalar: true, scalar: v}}, nil
}

// buildCall turns a transform-function call into a distribution.
func buildCall(c call, m petri.Marking) (dist.Distribution, error) {
	ctor, ok := distConstructors[c.fn]
	if !ok {
		return nil, fmt.Errorf("unknown transform function %q", c.fn)
	}
	if len(c.args) != ctor.args+1 {
		return nil, fmt.Errorf("%s takes %d parameters plus s, got %d arguments", c.fn, ctor.args, len(c.args))
	}
	last := c.args[len(c.args)-1]
	if v, ok := last.(varRef); !ok || v.name != "s" {
		return nil, fmt.Errorf("the final argument of %s must be the Laplace variable s", c.fn)
	}
	vals := make([]float64, ctor.args)
	for i := 0; i < ctor.args; i++ {
		v, err := evalReal(c.args[i], m)
		if err != nil {
			return nil, fmt.Errorf("argument %d of %s: %v", i+1, c.fn, err)
		}
		vals[i] = v
	}
	d, err := ctor.build(vals)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", c.fn, err)
	}
	return d, nil
}

// exprLST is the analysis-only fallback distribution: its transform is
// the expression evaluated over ℂ with s bound, so any transform the
// modeller can write is admissible for passage-time analysis (§5.2:
// "any arbitrary Laplace transform function can be specified"); it
// cannot be sampled, so simulation of such models is refused.
type exprLST struct {
	e     Expr          // resolved (see resolve)
	m     petri.Marking // the marking e's places read
	canon string
}

// newExprLST captures the resolved expression e in marking m.
func newExprLST(e Expr, m petri.Marking) (*exprLST, error) {
	// The canonical form names the value of every free identifier.
	var parts []string
	for _, v := range sortedVars(e) {
		if v.kind == refUnknown {
			return nil, fmt.Errorf("unknown identifier %q", v.name)
		}
		val, _ := evalReal(v, m)
		parts = append(parts, fmt.Sprintf("%s=%g", v.name, val))
	}
	x := &exprLST{e: e, m: m.Clone()}
	// Validate by probing one point, and check total probability: any
	// genuine sojourn transform satisfies L(0) = 1.
	if _, err := x.eval(1 + 1i); err != nil {
		return nil, err
	}
	at0, err := x.eval(0)
	if err != nil {
		// Some transforms (e.g. containing 1/s factors) are singular at
		// exactly 0; probe just right of it instead.
		at0, err = x.eval(1e-9)
		if err != nil {
			return nil, err
		}
	}
	if math.Abs(real(at0)-1) > 1e-6 || math.Abs(imag(at0)) > 1e-6 {
		return nil, fmt.Errorf("transform evaluates to %v at s=0, want 1 (not a probability distribution)", at0)
	}
	x.canon = fmt.Sprintf("lt[%s|%s]", e.String(), strings.Join(parts, ","))
	return x, nil
}

func (x *exprLST) eval(s complex128) (complex128, error) {
	return evalComplex(x.e, x.m, s)
}

// LST implements dist.Distribution.
func (x *exprLST) LST(s complex128) complex128 {
	v, err := x.eval(s)
	if err != nil {
		// Construction validated the expression; an error here means a
		// genuine singularity at this s.
		panic(fmt.Sprintf("dnamaca: evaluating transform at s=%v: %v", s, err))
	}
	return v
}

// Mean estimates −L′(0) by central difference.
func (x *exprLST) Mean() float64 {
	const h = 1e-6
	lp, err1 := x.eval(complex(h, 0))
	lm, err2 := x.eval(complex(-h, 0))
	if err1 != nil || err2 != nil {
		panic("dnamaca: transform not differentiable at 0")
	}
	return real((lm - lp) / complex(2*h, 0))
}

// Sample is unavailable for analysis-only transforms.
func (x *exprLST) Sample(*rand.Rand) float64 {
	panic(fmt.Sprintf("dnamaca: %s is an analysis-only transform and cannot be sampled; use structural mixtures of the *LT functions for simulation", x.canon))
}

func (x *exprLST) String() string { return x.canon }

// evalComplex evaluates a resolved expression over ℂ with s bound and
// every other identifier read as a real, places from marking m.
func evalComplex(e Expr, m petri.Marking, s complex128) (complex128, error) {
	switch n := e.(type) {
	case numLit:
		return complex(n.v, 0), nil
	case varRef:
		if n.name == "s" {
			return s, nil
		}
		if n.kind != refUnknown {
			v, _ := evalReal(n, m)
			return complex(v, 0), nil
		}
		return 0, fmt.Errorf("unknown identifier %q", n.name)
	case unary:
		v, err := evalComplex(n.x, m, s)
		if err != nil {
			return 0, err
		}
		if n.op == "-" {
			return -v, nil
		}
		return 0, fmt.Errorf("operator %q not defined on transforms", n.op)
	case binary:
		l, err := evalComplex(n.l, m, s)
		if err != nil {
			return 0, err
		}
		r, err := evalComplex(n.r, m, s)
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
				return 0, fmt.Errorf("division by zero")
			}
			return l / r, nil
		default:
			return 0, fmt.Errorf("operator %q not defined on transforms", n.op)
		}
	case call:
		ctor, ok := distConstructors[n.fn]
		if !ok {
			return 0, fmt.Errorf("unknown transform function %q", n.fn)
		}
		if len(n.args) != ctor.args+1 {
			return 0, fmt.Errorf("%s takes %d parameters plus s", n.fn, ctor.args)
		}
		vals := make([]float64, ctor.args)
		for i := 0; i < ctor.args; i++ {
			v, err := evalComplex(n.args[i], m, s)
			if err != nil {
				return 0, err
			}
			if imag(v) != 0 {
				return 0, fmt.Errorf("parameter %d of %s is not real", i+1, n.fn)
			}
			vals[i] = real(v)
		}
		sv, err := evalComplex(n.args[len(n.args)-1], m, s)
		if err != nil {
			return 0, err
		}
		d, err := ctor.build(vals)
		if err != nil {
			return 0, err
		}
		return d.LST(sv), nil
	default:
		return 0, fmt.Errorf("unexpected node %T", e)
	}
}
