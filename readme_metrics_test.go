package hydra_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// registeredFamilies reads the metric families the Go sources in dirs
// register: every obs.Registry constructor call whose name is a
// "hydra_" string literal, with the type the constructor makes and the
// label keys it declares. It reads the source rather than a running
// registry because a registry only lists a labelled family once a
// sample exists.
func registeredFamilies(t *testing.T, dirs ...string) map[string]string {
	t.Helper()
	// Constructor → (type, index of the first label-key argument or -1).
	ctors := map[string]struct {
		typ        string
		firstLabel int
	}{
		"NewCounter": {"counter", -1}, "NewCounterFunc": {"counter", -1}, "NewCounterVec": {"counter", 2},
		"NewGauge": {"gauge", -1}, "NewGaugeFunc": {"gauge", -1}, "NewGaugeVec": {"gauge", 2},
		"NewHistogram": {"histogram", -1}, "NewHistogramVec": {"histogram", 3},
	}
	out := make(map[string]string)
	fset := token.NewFileSet()
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				ctor, ok := ctors[sel.Sel.Name]
				if !ok {
					return true
				}
				name, ok := stringLit(call.Args[0])
				if !ok || !strings.HasPrefix(name, "hydra_") {
					return true
				}
				var labels []string
				if ctor.firstLabel >= 0 {
					for _, a := range call.Args[ctor.firstLabel:] {
						l, ok := stringLit(a)
						if !ok {
							t.Fatalf("%s: %s has a label key that is not a string literal", fset.Position(a.Pos()), name)
						}
						labels = append(labels, l)
					}
				}
				if _, dup := out[name]; dup {
					t.Errorf("%s: family %s registered twice", fset.Position(call.Pos()), name)
				}
				out[name] = ctor.typ + " | " + strings.Join(labels, ", ")
				return true
			})
		}
	}
	return out
}

func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

// readmeMetricsTable parses README's /metrics table: one row per
// family, "| `name` | type | labels | meaning |".
func readmeMetricsTable(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "| `hydra_") {
			continue
		}
		cols := strings.Split(line, "|")
		if len(cols) < 5 {
			t.Fatalf("README metrics row %q has too few columns", line)
		}
		name := strings.Trim(strings.TrimSpace(cols[1]), "`")
		if strings.ContainsAny(name, "`/ ") {
			t.Errorf("README metrics row %q names more than one family; give each its own row", line)
			continue
		}
		if _, dup := out[name]; dup {
			t.Errorf("README lists %s twice", name)
		}
		out[name] = strings.TrimSpace(cols[2]) + " | " + strings.TrimSpace(cols[3])
	}
	return out
}

// TestReadmeMetricsTableMatchesRegistry holds README's /metrics table
// to exactly the families internal/server, internal/pipeline and
// internal/obs register, with the same type and label keys.
func TestReadmeMetricsTableMatchesRegistry(t *testing.T) {
	code := registeredFamilies(t, "internal/server", "internal/pipeline", "internal/obs")
	doc := readmeMetricsTable(t)
	if len(code) == 0 {
		t.Fatal("found no registered hydra_ families")
	}
	names := make([]string, 0, len(code)+len(doc))
	for n := range code {
		names = append(names, n)
	}
	for n := range doc {
		if _, ok := code[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		c, inCode := code[n]
		d, inDoc := doc[n]
		switch {
		case !inDoc:
			t.Errorf("%s (%s) is registered but missing from README's metrics table", n, c)
		case !inCode:
			t.Errorf("%s is in README's metrics table but no longer registered", n)
		case c != d:
			t.Errorf("%s: README says %q, code registers %q (type | labels)", n, d, c)
		}
	}
}
