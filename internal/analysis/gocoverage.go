package analysis

import (
	"fmt"
	"go/ast"
	"go/scanner"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// coverageRow is one vocabulary THALIA must keep complete. Its members are
// either the exported constants of a named type declared in decl, or (when
// iface is set) the exported types in decl whose pointer implements the
// named interface. Every member needs a site — a switch or type-switch case
// label in the site package resolving to it, or, when site is empty, any use
// outside decl — and, when untested is set, a mention as an identifier token
// in the site package's _test.go files (comments do not count). Findings
// are reported at the member's declaration.
type coverageRow struct {
	name, doc string
	decl      string // import path declaring the vocabulary
	vocab     string // the named type (or interface) defining the members
	iface     bool
	site      string // import path of the dispatch package; "" = any other package
	unsited   string // message format for a member without a site
	untested  string // message format for a member no test names; "" = no test rule
}

// The coverage table, one row per check, in DefaultGoAnalyzers order.
var (
	// A trace kind nobody emits is a dead word: readers grep for it,
	// dashboards filter on it, and nothing ever produces it.
	explainKindsRow = coverageRow{
		name:    "explainkinds",
		doc:     "every explain.Kind constant is emitted by at least one instrumentation site",
		decl:    "thalia/internal/explain",
		vocab:   "Kind",
		unsited: "explain.%s is declared but no instrumentation site emits it",
	}
	// A fault kind that validates but never injects is a silent no-op in
	// every fault plan naming it. (Validation deliberately goes through a
	// map literal, so a case label is unambiguously a dispatch site.)
	faultKindsRow = coverageRow{
		name:     "faultkinds",
		doc:      "every faultline.Kind has an injection dispatch site and a test exercising it",
		decl:     "thalia/internal/faultline",
		vocab:    "Kind",
		site:     "thalia/internal/faultline",
		unsited:  "faultline.%s has no injection dispatch site (no switch case consumes it)",
		untested: "faultline.%s is exercised by no test in its package",
	}
	// A node kind the compiler cannot lower would silently diverge from the
	// interpreter the first time a query used it.
	planCoverageRow = coverageRow{
		name:     "plancoverage",
		doc:      "every xquery Expr node kind has a compile case in the plan package and a test exercising it",
		decl:     "thalia/internal/xquery",
		vocab:    "Expr",
		iface:    true,
		site:     "thalia/internal/xquery/plan",
		unsited:  "xquery.%s has no compile case in the plan package (the compiler cannot lower it)",
		untested: "xquery.%s is exercised by no test in the plan package",
	}
	// A class the generator cannot dispatch silently vanishes from every
	// generated workload whose mix names it.
	scenarioCoverageRow = coverageRow{
		name:     "scenariocoverage",
		doc:      "every hetero.Case has a transform dispatch site in the scenario generator and a test exercising it",
		decl:     "thalia/internal/hetero",
		vocab:    "Case",
		site:     "thalia/internal/scenario",
		unsited:  "hetero.%s has no transform dispatch site in the scenario generator (the class cannot be generated)",
		untested: "hetero.%s is exercised by no test in the scenario package",
	}
)

// ExplainKinds keeps the explain trace vocabulary emitted.
func ExplainKinds() *GoAnalyzer { return explainKindsRow.analyzer() }

// FaultKinds keeps every fault kind injected and tested.
func FaultKinds() *GoAnalyzer { return faultKindsRow.analyzer() }

// PlanCoverage keeps the compiled-plan engine total over the XQuery AST.
func PlanCoverage() *GoAnalyzer { return planCoverageRow.analyzer() }

// ScenarioCoverage keeps the scenario generator total over the taxonomy.
func ScenarioCoverage() *GoAnalyzer { return scenarioCoverageRow.analyzer() }

// The fixture seams: each points a row at packages of a test module.
func faultKindsFor(path string) *GoAnalyzer { return faultKindsRow.at(path, path).analyzer() }
func planCoverageFor(astPath, planPath string) *GoAnalyzer {
	return planCoverageRow.at(astPath, planPath).analyzer()
}
func scenarioCoverageFor(casePath, genPath string) *GoAnalyzer {
	return scenarioCoverageRow.at(casePath, genPath).analyzer()
}

// at returns the row with its declaring and site packages rebound.
func (r coverageRow) at(decl, site string) coverageRow {
	r.decl, r.site = decl, site
	return r
}

func (r coverageRow) analyzer() *GoAnalyzer {
	return &GoAnalyzer{Name: r.name, Doc: r.doc, Run: r.run}
}

func (r coverageRow) run(pkgs []*GoPackage) []Finding {
	var decl, site *GoPackage
	for _, p := range pkgs {
		if p.ImportPath == r.decl {
			decl = p
		}
		if p.ImportPath == r.site {
			site = p
		}
	}
	if decl == nil || (r.site != "" && site == nil) {
		return nil // part of the row is outside the analysis scope
	}
	members := r.members(decl)
	if len(members) == 0 {
		return nil
	}

	// The importer materializes its own objects for each dependency, so a
	// reference matches a member by package path and name, not identity.
	sited := map[string]bool{}
	mark := func(obj types.Object) {
		if obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == r.decl && members[obj.Name()] != nil {
			sited[obj.Name()] = true
		}
	}
	if site == nil {
		for _, p := range pkgs {
			if p.ImportPath != r.decl {
				for _, obj := range p.Info.Uses {
					mark(obj)
				}
			}
		}
	} else {
		for _, f := range site.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if cc, ok := n.(*ast.CaseClause); ok {
					for _, label := range cc.List {
						mark(labelObject(site.Info, label))
					}
				}
				return true
			})
		}
	}
	var tested map[string]bool
	if r.untested != "" {
		tested = testIdents(site.Dir)
	}

	names := make([]string, 0, len(members))
	for name := range members {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []Finding
	report := func(obj types.Object, format string) {
		file, line, col := decl.Position(obj.Pos())
		out = append(out, Finding{Check: r.name, File: file, Line: line, Column: col,
			Message: fmt.Sprintf(format, obj.Name())})
	}
	for _, name := range names {
		if !sited[name] {
			report(members[name], r.unsited)
		}
		if r.untested != "" && !tested[name] {
			report(members[name], r.untested)
		}
	}
	return out
}

// members returns the row's vocabulary in the declaring package, by name.
func (r coverageRow) members(decl *GoPackage) map[string]types.Object {
	scope := decl.Types.Scope()
	vocab, ok := scope.Lookup(r.vocab).(*types.TypeName)
	if !ok {
		return nil
	}
	iface, _ := vocab.Type().Underlying().(*types.Interface)
	out := map[string]types.Object{}
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		switch obj := obj.(type) {
		case *types.Const:
			if !r.iface && types.Identical(obj.Type(), vocab.Type()) {
				out[name] = obj
			}
		case *types.TypeName:
			if r.iface && iface != nil && obj != vocab && !types.IsInterface(obj.Type()) &&
				types.Implements(types.NewPointer(obj.Type()), iface) {
				out[name] = obj
			}
		}
	}
	return out
}

// labelObject resolves a switch or type-switch case label — a constant,
// a type, or a pointer to a type, optionally package-qualified — to the
// object it names.
func labelObject(info *types.Info, label ast.Expr) types.Object {
	e := ast.Unparen(label)
	if star, ok := e.(*ast.StarExpr); ok {
		e = ast.Unparen(star.X)
	}
	switch x := e.(type) {
	case *ast.Ident:
		return info.Uses[x]
	case *ast.SelectorExpr:
		return info.Uses[x.Sel]
	}
	return nil
}

// testIdents returns the identifiers appearing as tokens in the _test.go
// files of a package directory. The loader parses only non-test files, so
// this scans the sources; comments are skipped, so a member mentioned only
// in prose does not count as exercised.
func testIdents(dir string) map[string]bool {
	idents := map[string]bool{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return idents
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		var s scanner.Scanner
		s.Init(fset.AddFile(e.Name(), -1, len(src)), src, nil, 0)
		for {
			_, tok, lit := s.Scan()
			if tok == token.EOF {
				break
			}
			if tok == token.IDENT {
				idents[lit] = true
			}
		}
	}
	return idents
}
