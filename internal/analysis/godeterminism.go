package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// DeterminismScope lists the packages whose output must be bit-for-bit
// reproducible: the catalog generators (the testbed's published artifacts
// must never change between runs), the TESS extraction pipeline they feed,
// the integration-layer comparison code whose diagnostics the benchmark
// reports verbatim, and the heterogeneity detector whose evidence
// `thalia detect` prints verbatim.
var DeterminismScope = []string{
	"thalia/internal/catalog",
	"thalia/internal/tess",
	"thalia/internal/integration",
	"thalia/internal/schemamatch",
}

// Determinism returns the analyzer that bans nondeterminism sources from
// generator code: wall-clock reads (time.Now), random numbers (math/rand,
// math/rand/v2), and map iteration whose order leaks into ordered output
// (a range over a map that appends to a slice or writes to a builder, in a
// function that never sorts).
func Determinism() *GoAnalyzer { return DeterminismFor(DeterminismScope) }

// DeterminismFor scopes the determinism analyzer to the given import paths.
func DeterminismFor(scope []string) *GoAnalyzer {
	return &GoAnalyzer{
		Name: "determinism",
		Doc:  "catalog generator output must not depend on time, randomness, or map order",
		Run: func(pkgs []*GoPackage) []Finding {
			var out []Finding
			for _, p := range pkgs {
				if !inScope(p, scope) {
					continue
				}
				out = append(out, runDeterminism(p)...)
			}
			return out
		},
	}
}

func runDeterminism(p *GoPackage) []Finding {
	var out []Finding
	add := func(pos ast.Node, format string, args ...interface{}) {
		file, line, col := p.Position(pos.Pos())
		out = append(out, Finding{Check: "determinism", File: file, Line: line, Column: col,
			Message: fmt.Sprintf(format, args...)})
	}
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == "math/rand" || path == "math/rand/v2" {
				add(imp, "import of %s in deterministic generator code", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if obj := p.Info.Uses[n.Sel]; obj != nil && obj.Pkg() != nil &&
					obj.Pkg().Path() == "time" && obj.Name() == "Now" {
					add(n, "time.Now in deterministic generator code")
				}
			case *ast.FuncDecl:
				if n.Body != nil {
					out = append(out, checkMapOrder(p, n)...)
				}
				return true
			}
			return true
		})
	}
	return out
}

// checkMapOrder flags range-over-map loops inside fn whose bodies emit
// ordered output (append to a slice, write to a builder or buffer, build up
// a string) while fn never calls anything sort-like. Sorting anywhere in
// the function is accepted as the fix: collect-then-sort is the idiomatic
// remedy and proving it covers the loop would need dataflow the analyzer
// deliberately avoids.
func checkMapOrder(p *GoPackage, fn *ast.FuncDecl) []Finding {
	if functionSorts(p, fn) {
		return nil
	}
	var out []Finding
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := p.Info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		if !emitsOrderedOutput(p, rng.Body) {
			return true
		}
		file, line, col := p.Position(rng.Pos())
		out = append(out, Finding{Check: "determinism", File: file, Line: line, Column: col,
			Message: fmt.Sprintf("map iteration order leaks into ordered output in %s (sort the keys first)", fn.Name.Name)})
		return true
	})
	return out
}

// functionSorts reports whether the function calls into package sort (or
// any function whose name starts with "Sort" or contains "sorted").
func functionSorts(p *GoPackage, fn *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := calleeOf(p.Info, call)
		if obj == nil {
			return true
		}
		if obj.Pkg() != nil && (obj.Pkg().Path() == "sort" || obj.Pkg().Path() == "slices") {
			found = true
		}
		if strings.HasPrefix(obj.Name(), "Sort") || strings.Contains(strings.ToLower(obj.Name()), "sorted") {
			found = true
		}
		return !found
	})
	return found
}

// emitsOrderedOutput reports whether a loop body feeds an ordered sink:
// append(), Write*/String-building method calls, or string concatenation.
func emitsOrderedOutput(p *GoPackage, body *ast.BlockStmt) bool {
	emits := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				if obj, ok := p.Info.Uses[fun].(*types.Builtin); ok && obj.Name() == "append" {
					emits = true
				}
			case *ast.SelectorExpr:
				if strings.HasPrefix(fun.Sel.Name, "Write") {
					emits = true
				}
			}
		case *ast.AssignStmt:
			// s += ... on a string accumulates in iteration order.
			if n.Tok.String() == "+=" && len(n.Lhs) == 1 {
				if tv, ok := p.Info.Types[n.Lhs[0]]; ok {
					if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						emits = true
					}
				}
			}
		}
		return !emits
	})
	return emits
}
