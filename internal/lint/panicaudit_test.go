package lint

import "testing"

func TestPanicAuditFlagsRecoverablePanics(t *testing.T) {
	src := `package compiler

import "fmt"

func Lower(name string) int {
	if name == "" {
		panic("compiler: empty layer name")
	}
	if len(name) > 64 {
		panic(fmt.Sprintf("compiler: name %q too long", name))
	}
	return len(name)
}
`
	active, _ := partition(runFixture(t, PanicAuditAnalyzer(), "repro/internal/compiler", src))
	if len(active) != 2 {
		t.Fatalf("findings %d, want 2: %+v", len(active), active)
	}
	for _, f := range active {
		if f.Severity != SeverityWarning {
			t.Fatalf("panic-audit must report warnings, got %v", f.Severity)
		}
	}
}

func TestPanicAuditRecognizedInvariantForms(t *testing.T) {
	src := `package compiler

import "fmt"

func MustLower(name string) int {
	if name == "" {
		panic("empty name") // Must* helpers may panic
	}
	return len(name)
}

func step(state int) {
	switch state {
	case 0, 1:
	default:
		panic(fmt.Sprintf("compiler: unreachable state %d", state))
	}
}

func check(ok bool) {
	if !ok {
		panic("compiler: schedule invariant violated")
	}
}

func guarded() {
	defer func() {
		if r := recover(); r != nil {
			panic(r) // re-panic after cleanup
		}
	}()
}
`
	if fs := runFixture(t, PanicAuditAnalyzer(), "repro/internal/compiler", src); len(fs) != 0 {
		t.Fatalf("recognized invariant forms should pass, got %+v", fs)
	}
	// Commands may panic freely (flag handling exits anyway).
	mainSrc := `package main

func main() { panic("boom") }
`
	if fs := runFixture(t, PanicAuditAnalyzer(), "repro/cmd/tool", mainSrc); len(fs) != 0 {
		t.Fatalf("package main should be exempt, got %+v", fs)
	}
}

func TestPanicAuditReliabilityEscalation(t *testing.T) {
	// Inside the reliability subsystem a plain panic is a gate failure:
	// fault handling must return the DegradedError path, not crash.
	src := `package reliability

func mitigate(residual int) {
	if residual > 0 {
		panic("reliability: mitigation exhausted")
	}
}

func MustPolicy(ok bool) {
	if !ok {
		panic("bad policy") // Must* helpers stay exempt even here
	}
}
`
	active, _ := partition(runFixture(t, PanicAuditAnalyzer(), "repro/internal/reliability", src))
	if len(active) != 1 {
		t.Fatalf("findings %d, want 1: %+v", len(active), active)
	}
	if active[0].Severity != SeverityError {
		t.Fatalf("reliability panic must escalate to error, got %v", active[0].Severity)
	}
	if NewReport(active).Errors != 1 {
		t.Fatalf("escalated finding must fail the gate")
	}
}

func TestPanicAuditSuppressedFinding(t *testing.T) {
	src := `package compiler

func divide(a, b int) int {
	if b == 0 {
		//nebula:lint-ignore panic-audit caller pre-validates divisor
		panic("compiler: zero divisor")
	}
	return a / b
}
`
	active, suppressed := partition(runFixture(t, PanicAuditAnalyzer(), "repro/internal/compiler", src))
	if len(active) != 0 || len(suppressed) != 1 {
		t.Fatalf("active %d suppressed %d, want 0/1", len(active), len(suppressed))
	}
}
