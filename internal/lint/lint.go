// Package lint implements nebula-lint, a repo-specific static-analysis
// suite enforcing the simulator's reproducibility and robustness
// invariants. It is built only on the standard library (go/parser, go/ast,
// go/types) so the module stays dependency-free.
//
// The suite currently enforces eleven rules:
//
//   - determinism: internal packages other than internal/rng must not
//     import math/rand (or math/rand/v2) or read the wall clock via
//     time.Now/time.Since/time.Until. All randomness flows through the
//     seeded internal/rng package so experiments replay bit-for-bit.
//   - float-eq: == and != between floating-point operands are flagged
//     outside test files (comparisons against an exact zero literal are
//     permitted as divide-by-zero guards).
//   - panic-audit: panic calls in library (non-main) packages are
//     reported and ranked unless they are recognized invariant-violation
//     forms (Must* helpers, or messages naming an invariant/unreachable
//     state/internal error). Panics inside internal/reliability escalate
//     to error severity: fault-handling code must return errors (the
//     DegradedError path), never panic.
//   - errcheck: call statements in cmd/ and internal/ that discard a
//     returned error are flagged, with a small whitelist for fmt printing
//     and in-memory writers that cannot fail.
//   - errwrap: fmt.Errorf calls that format an error-typed argument with
//     %v, %s or %q instead of %w are flagged — a value verb flattens the
//     cause and severs the errors.Is/errors.As chain the typed session
//     errors (CompileError → DegradedError) rely on.
//   - sync: sync.Mutex/RWMutex/WaitGroup/Once/Cond values that are copied
//     (bare parameters, results, assignments) and wg.Add calls issued
//     inside the spawned goroutine instead of before the go statement.
//   - obsguard: fmt.Print* and log.Print*/Fatal*/Panic* calls inside
//     internal/ packages (internal/lint excepted) are errors — library
//     code reports through returned errors and internal/obs recorders,
//     never by writing to the ambient console, so the machine-readable
//     exports the CI gates diff stay byte-clean.
//   - genstamp: on any type carrying a kernel generation field (a `gen`
//     counter plus an `invalidate` method, e.g. crossbar.Crossbar),
//     every method that writes device state — field or element
//     assignment, directly or through same-type callees — must call
//     invalidate() on every path before the write. Fields and methods
//     outside the read-visible contract are declared with
//     //nebula:genstamp-exempt. See genstamp.go.
//   - hotalloc: functions annotated //nebula:hotpath, and everything
//     they transitively call within the module, may not contain
//     allocation-inducing constructs (make, growing append, slice/map
//     literals, closures, interface boxing, fmt.Sprint*, string
//     concatenation in loops). Amortized grow-on-demand guards and
//     terminating error/panic paths are recognized as off the
//     steady-state path; //nebula:coldpath marks the rest. See
//     hotalloc.go.
//   - ctxflow: inside internal/ packages context.Context must be the
//     first parameter, and context.Background()/context.TODO() are
//     banned — contexts enter at roots (cmd/, examples, tests) and are
//     threaded down. See ctxflow.go.
//   - deadexport: every package-scope name in internal/ needs a use in a
//     non-test file of the module (cmd/, examples/, the root package and
//     the _benchmark module count); methods that satisfy an interface
//     are exempt, and deliberate test or bench API is declared with
//     //nebula:test-support <reason>. See deadexport.go.
//
// The first seven rules are per-package and purely syntax/type driven;
// genstamp, hotalloc and ctxflow are flow analyses over the module-wide
// call graph built by NewProgram (callgraph.go), and deadexport reads
// the uses of every package the Program holds.
//
// Any finding can be suppressed with a justification comment on the same
// line or the line directly above it:
//
//	//nebula:lint-ignore <rule> <reason>
//
// Suppressed findings are retained in the JSON report (Suppressed: true)
// but do not affect the exit status.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Severity classifies how a finding affects the lint exit status.
type Severity int

const (
	// SeverityWarning findings are reported but do not fail the gate.
	SeverityWarning Severity = iota
	// SeverityError findings fail the gate unless suppressed.
	SeverityError
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	if s == SeverityError {
		return "error"
	}
	return "warning"
}

// MarshalJSON encodes the severity as its lowercase name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	// Rule is the analyzer name (e.g. "determinism").
	Rule string `json:"rule"`
	// Package is the import path of the package the finding is in.
	Package string `json:"package"`
	// File, Line and Col locate the finding.
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	// Message describes the violation.
	Message  string   `json:"message"`
	Severity Severity `json:"severity"`
	// Suppressed marks findings covered by a //nebula:lint-ignore
	// directive; SuppressReason carries the justification text.
	Suppressed     bool   `json:"suppressed,omitempty"`
	SuppressReason string `json:"suppressReason,omitempty"`
}

// Position renders the file:line:col anchor of the finding.
func (f Finding) Position() string {
	return fmt.Sprintf("%s:%d:%d", f.File, f.Line, f.Col)
}

// Package is one type-checked package presented to analyzers.
type Package struct {
	// Path is the import path (e.g. "repro/internal/convert").
	Path string
	// Dir is the directory the package was loaded from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	// Types and Info hold the go/types results. Info is always non-nil;
	// Types may be nil if type checking failed catastrophically.
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects type-checker diagnostics (analysis proceeds on
	// partial information).
	TypeErrors []error

	loader       *Loader                  // the loader that read it
	suppressions map[string][]suppression // file -> directives
}

// IsMain reports whether the package is a command (package main).
func (p *Package) IsMain() bool {
	return len(p.Files) > 0 && p.Files[0].Name.Name == "main"
}

// Analyzer is one lint rule. Exactly one of Run and RunProgram is set:
// Run rules inspect packages independently, RunProgram rules see the
// whole module at once (with its call graph) for inter-procedural flow
// analysis.
type Analyzer struct {
	// Name is the rule name used in reports and suppression directives.
	Name string
	// Doc is a one-line description.
	Doc string
	// Severity is applied to every finding the rule emits.
	Severity Severity
	// Run inspects one package and returns raw findings. The driver fills
	// in Rule/Severity/Package and resolves suppressions.
	Run func(p *Package) []Finding
	// RunProgram inspects the whole module. Findings are attributed to
	// packages by file; the driver resolves suppressions the same way.
	RunProgram func(prog *Program) []Finding
}

// Analyzers returns the full nebula-lint suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer(),
		FloatEqAnalyzer(),
		PanicAuditAnalyzer(),
		ErrcheckAnalyzer(),
		ErrwrapAnalyzer(),
		SyncAnalyzer(),
		ObsguardAnalyzer(),
		GenstampAnalyzer(),
		HotallocAnalyzer(),
		CtxflowAnalyzer(),
		DeadexportAnalyzer(),
	}
}

// AnalyzerNames returns the rule names of the full suite, in order.
func AnalyzerNames() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return names
}

// Run applies every analyzer to every package and returns findings sorted
// by file, line and rule. Suppression directives are resolved here so
// analyzers never need to consult comments. The module-wide Program for
// flow analyzers is built once and shared.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var prog *Program
	for _, a := range analyzers {
		if a.RunProgram != nil {
			prog = NewProgram(pkgs)
			break
		}
	}
	var out []Finding
	finalize := func(a *Analyzer, p *Package, f Finding) Finding {
		f.Rule = a.Name
		// The analyzer's severity is a floor: a rule may escalate
		// individual findings (e.g. panic-audit inside the
		// reliability subsystem) but never emit below its level.
		if a.Severity > f.Severity {
			f.Severity = a.Severity
		}
		if p != nil {
			f.Package = p.Path
			if reason, ok := p.suppressedAt(a.Name, f.File, f.Line); ok {
				f.Suppressed = true
				f.SuppressReason = reason
			}
		}
		return f
	}
	for _, p := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			for _, f := range a.Run(p) {
				out = append(out, finalize(a, p, f))
			}
		}
	}
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		for _, f := range a.RunProgram(prog) {
			out = append(out, finalize(a, prog.PackageFor(f.File), f))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		if out[i].Col != out[j].Col {
			return out[i].Col < out[j].Col
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

// suppression is one parsed //nebula:lint-ignore directive.
type suppression struct {
	rule   string // rule name, or "all"
	reason string
	line   int // line the directive appears on
}

// IgnoreDirective is the comment prefix that suppresses a finding.
const IgnoreDirective = "nebula:lint-ignore"

// collectSuppressions scans a file's comments for ignore directives.
func collectSuppressions(fset *token.FileSet, file *ast.File) []suppression {
	var out []suppression
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, IgnoreDirective) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(text, IgnoreDirective))
			rule, reason := rest, ""
			if sp := strings.IndexAny(rest, " \t"); sp >= 0 {
				rule, reason = rest[:sp], strings.TrimSpace(rest[sp:])
			}
			if rule == "" {
				continue
			}
			out = append(out, suppression{
				rule:   rule,
				reason: reason,
				line:   fset.Position(c.Pos()).Line,
			})
		}
	}
	return out
}

// suppressedAt reports whether a directive for rule covers file:line. A
// directive applies to its own line and the line directly below it (the
// standalone-comment-above-the-statement form).
func (p *Package) suppressedAt(rule, file string, line int) (string, bool) {
	for _, s := range p.suppressions[file] {
		if s.rule != rule && s.rule != "all" {
			continue
		}
		if s.line == line || s.line == line-1 {
			return s.reason, true
		}
	}
	return "", false
}

// pathIsInternal reports whether the package lives under internal/ of the
// repo module (any depth).
func pathIsInternal(path string) bool {
	return strings.Contains(path, "/internal/") || strings.HasSuffix(path, "/internal")
}

// pathIsCmd reports whether the package lives under cmd/.
func pathIsCmd(path string) bool {
	return strings.Contains(path, "/cmd/")
}

// typeIsFloat reports whether t's underlying type is a floating-point
// scalar (or untyped float constant).
func typeIsFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&types.IsFloat != 0
}

// namedSyncType returns the sync package type name ("Mutex", ...) if t is
// one of the by-value-unsafe sync types, or "" otherwise.
func namedSyncType(t types.Type) string {
	n, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return ""
	}
	switch obj.Name() {
	case "Mutex", "RWMutex", "WaitGroup", "Once", "Cond", "Pool", "Map":
		return obj.Name()
	}
	return ""
}

// findingAt builds a position-filled finding for the driver to complete.
func findingAt(fset *token.FileSet, pos token.Pos, msg string) Finding {
	position := fset.Position(pos)
	return Finding{
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Message: msg,
	}
}
