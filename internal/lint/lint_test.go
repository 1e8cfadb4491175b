package lint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// loadFixture type-checks one synthetic source file as a package with the
// given import path and returns it ready for analyzers. Fixtures may
// import anything from the standard library.
func loadFixture(t *testing.T, importPath, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	p := &Package{
		Path:  importPath,
		Fset:  fset,
		Files: []*ast.File{file},
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		suppressions: map[string][]suppression{},
	}
	p.suppressions["fixture.go"] = collectSuppressions(fset, file)
	gc := importer.ForCompiler(fset, "gc", nil)
	srcImp := importer.ForCompiler(fset, "source", nil)
	cfg := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			pkg, err := gc.Import(path)
			if err == nil {
				return pkg, nil
			}
			return srcImp.Import(path)
		}),
		Error: func(err error) { p.TypeErrors = append(p.TypeErrors, err) },
	}
	p.Types, _ = cfg.Check(importPath, fset, p.Files, p.Info)
	for _, te := range p.TypeErrors {
		t.Fatalf("fixture does not type-check: %v", te)
	}
	return p
}

// runFixture applies one analyzer to a fixture through the full driver so
// suppression resolution is exercised.
func runFixture(t *testing.T, a *Analyzer, importPath, src string) []Finding {
	t.Helper()
	return Run([]*Package{loadFixture(t, importPath, src)}, []*Analyzer{a})
}

// partition splits findings into active and suppressed sets.
func partition(fs []Finding) (active, suppressed []Finding) {
	for _, f := range fs {
		if f.Suppressed {
			suppressed = append(suppressed, f)
		} else {
			active = append(active, f)
		}
	}
	return active, suppressed
}

func TestSuppressionDirectiveParsing(t *testing.T) {
	p := loadFixture(t, "repro/internal/fix", `package fix

//nebula:lint-ignore float-eq calibration constants are exact
var a = 1.5

// nebula:lint-ignore all legacy file
var b = 2.5
`)
	if got := len(p.suppressions["fixture.go"]); got != 2 {
		t.Fatalf("parsed %d directives, want 2", got)
	}
	if reason, ok := p.suppressedAt("float-eq", "fixture.go", 4); !ok || reason != "calibration constants are exact" {
		t.Fatalf("line-above suppression not found: %q %v", reason, ok)
	}
	// The "all" directive covers any rule on its own or the next line.
	if _, ok := p.suppressedAt("sync", "fixture.go", 7); !ok {
		t.Fatal("all-rule suppression not found")
	}
	// Unrelated rule/line combinations stay active.
	if _, ok := p.suppressedAt("sync", "fixture.go", 4); ok {
		t.Fatal("sync suppressed by a float-eq directive")
	}
	if _, ok := p.suppressedAt("float-eq", "fixture.go", 5); ok {
		t.Fatal("directive leaked two lines down")
	}
}

func TestReportTallies(t *testing.T) {
	findings := []Finding{
		{Rule: "float-eq", Severity: SeverityError},
		{Rule: "panic-audit", Severity: SeverityWarning},
		{Rule: "sync", Severity: SeverityError, Suppressed: true, SuppressReason: "justified"},
	}
	r := NewReport(findings)
	if r.Errors != 1 || r.Warnings != 1 || r.Suppressed != 1 {
		t.Fatalf("tallies %d/%d/%d, want 1/1/1", r.Errors, r.Warnings, r.Suppressed)
	}
}
