// Package lib is the deadexport fixture: each declaration is either
// used by a non-test file of the module, or is a seeded finding.
package lib

import "fmt"

// UsedByCmd is called by cmd/tool.
func UsedByCmd() int { return helper() }

// helper is used by UsedByCmd.
func helper() int { return 1 }

// OnlyTests is called by lib_test.go alone: a finding.
func OnlyTests() int { return 2 }

// unused calls only itself: a finding.
func unused() int { return unused() }

// UsedByBench is called only from the _benchmark module.
func UsedByBench() int { return 3 }

// Celsius reaches its String method through fmt.Stringer alone.
type Celsius float64

func (c Celsius) String() string { return fmt.Sprintf("%.1fC", float64(c)) }

// Meter is built by cmd/tool; only the benchmark calls Read.
type Meter struct{ n int }

// NewMeter returns a meter.
func NewMeter() *Meter { return &Meter{n: 4} }

// Read is selected by name in the _benchmark module.
func (m *Meter) Read() int { return m.n }

// Println shares its name with fmt.Println, which the benchmark calls:
// a package selector is no method call, so this is a finding.
func (m *Meter) Println() {}

// Count shares its name with Tally's field, which the benchmark reads:
// a field selector is no method call, so this is a finding.
func (m *Meter) Count() int { return m.n }

// Tally is returned to the benchmark, which reads its Count field.
type Tally struct{ Count int }

// NewTally returns a tally.
func NewTally() Tally { return Tally{Count: 1} }

// orphan is named only by itself and its own method: both are findings.
type orphan struct{}

func (o orphan) self() orphan { return o }

// Reference is deliberate test API.
//
//nebula:test-support lib_test.go holds UsedByCmd to it
func Reference() int { return 1 }

// Bare carries a waiver with no reason: a finding.
//
//nebula:test-support
func Bare() int { return 5 }
