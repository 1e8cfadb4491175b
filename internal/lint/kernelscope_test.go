package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestDeterminismCoversKernelFiles pins that the frozen-kernel read
// path (internal/crossbar/kernel.go and its tests) is inside the
// loader's scope, so the determinism and float-equality rules apply to
// it like any other simulator internals. A loader exclusion — or a move
// of the kernel out of internal/ — would silently drop the fastest,
// most bitwise-sensitive code in the tree from the lint gate.
func TestDeterminismCoversKernelFiles(t *testing.T) {
	root, err := filepath.Abs("../..")
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
	var cb *Package
	for _, p := range pkgs {
		if p.Path == "repro/internal/crossbar" {
			cb = p
			break
		}
	}
	if cb == nil {
		t.Fatal("loader did not load repro/internal/crossbar")
	}
	found := false
	for _, f := range cb.Files {
		name := filepath.Base(cb.Fset.Position(f.Pos()).Filename)
		if name == "kernel.go" {
			found = true
		}
	}
	if !found {
		t.Fatal("kernel.go not in the crossbar package's loaded file set")
	}
	// The whole module is analyzed, not the crossbar package alone: the
	// deadexport rule judges a name by its users in every package.
	for _, fd := range Run(pkgs, Analyzers()) {
		if fd.Suppressed || fd.Package != cb.Path {
			continue
		}
		if strings.HasPrefix(filepath.Base(fd.File), "kernel") {
			t.Errorf("%s: %s:%d: %s", fd.Rule, fd.File, fd.Line, fd.Message)
		}
	}
}
