package lint

import (
	"path/filepath"
	"testing"
)

// TestDeadexportFixtureModule runs the rule on a seeded module with a
// command, a separate _benchmark module and test files. It must flag
// the name only a test uses, the unused unexported function, a method
// named like a standard-library function the benchmark calls, the type
// that only its own method names (and that method), and the waiver
// with no reason; and it must pass the names cmd/ or _benchmark/ use,
// a method reached only through fmt.Stringer, a method the benchmark
// selects, and a waived helper.
func TestDeadexportFixtureModule(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "deadmod"))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		for _, te := range p.TypeErrors {
			t.Fatalf("%s: type error: %v", p.Path, te)
		}
	}
	want := []string{
		"lib.OnlyTests has no non-test user; delete it, or mark deliberate test or bench API //nebula:test-support <reason>",
		"lib.unused has no non-test user; delete it, or mark deliberate test or bench API //nebula:test-support <reason>",
		"lib.Meter.Println has no non-test user; delete it, or mark deliberate test or bench API //nebula:test-support <reason>",
		"lib.Meter.Count has no non-test user; delete it, or mark deliberate test or bench API //nebula:test-support <reason>",
		"lib.orphan has no non-test user; delete it, or mark deliberate test or bench API //nebula:test-support <reason>",
		"lib.orphan.self has no non-test user; delete it, or mark deliberate test or bench API //nebula:test-support <reason>",
		"//nebula:test-support on lib.Bare gives no reason; name the test or bench that needs it",
	}
	fs := Run(pkgs, []*Analyzer{DeadexportAnalyzer()})
	if len(fs) != len(want) {
		for _, f := range fs {
			t.Logf("%s: %s", f.Position(), f.Message)
		}
		t.Fatalf("%d findings, want %d", len(fs), len(want))
	}
	for i, f := range fs {
		if f.Message != want[i] {
			t.Errorf("finding %d at %s = %q, want %q", i, f.Position(), f.Message, want[i])
		}
		if f.Severity != SeverityError || f.Package != "example.com/dead/internal/lib" {
			t.Errorf("finding %d: severity %v, package %q", i, f.Severity, f.Package)
		}
	}
}
