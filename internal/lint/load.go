package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ModulePath reads the module path from the go.mod at root.
func ModulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s/go.mod", root)
}

// Loader parses and type-checks packages of one module from source. It
// resolves intra-module imports itself and delegates everything else to
// the toolchain's importers, so it needs no dependencies beyond the
// standard library.
type Loader struct {
	Root   string // module root directory
	Module string // module path from go.mod

	fset *token.FileSet
	pkgs map[string]*Package // import path -> loaded package
	std  types.Importer      // stdlib importer (gc, with source fallback)
	stdS types.Importer
}

// NewLoader returns a loader for the module rooted at root.
func NewLoader(root string) (*Loader, error) {
	module, err := ModulePath(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:   root,
		Module: module,
		fset:   fset,
		pkgs:   map[string]*Package{},
		std:    importer.ForCompiler(fset, "gc", nil),
		stdS:   importer.ForCompiler(fset, "source", nil),
	}, nil
}

// LoadAll discovers every package directory under the module root
// (skipping hidden directories and testdata) and loads them all,
// returning packages sorted by import path.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.Root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.Root, dir)
		if err != nil {
			return nil, err
		}
		path := l.Module
		if rel != "." {
			path = l.Module + "/" + filepath.ToSlash(rel)
		}
		p, err := l.Load(path)
		if err != nil {
			return nil, fmt.Errorf("lint: loading %s: %w", path, err)
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// Load parses and type-checks one package by import path (memoized).
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	l.pkgs[path] = nil // cycle guard
	dir := l.dirFor(path)
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}

	p := &Package{
		Path:   path,
		Dir:    dir,
		Fset:   l.fset,
		Files:  files,
		loader: l,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		suppressions: map[string][]suppression{},
	}
	for _, f := range files {
		fname := l.fset.Position(f.Pos()).Filename
		p.suppressions[fname] = collectSuppressions(l.fset, f)
	}

	cfg := types.Config{
		Importer: importerFunc(func(ip string) (*types.Package, error) { return l.importPkg(ip) }),
		Error: func(err error) {
			p.TypeErrors = append(p.TypeErrors, err)
		},
	}
	tpkg, _ := cfg.Check(path, l.fset, files, p.Info)
	p.Types = tpkg
	l.pkgs[path] = p
	return p, nil
}

// dirFor maps an intra-module import path to its directory.
func (l *Loader) dirFor(path string) string {
	if path == l.Module {
		return l.Root
	}
	rel := strings.TrimPrefix(path, l.Module+"/")
	return filepath.Join(l.Root, filepath.FromSlash(rel))
}

// parseDir parses every non-test Go file in dir with comments.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// over returns a loader for the module rooted at root that imports
// through l: every package l has loaded, and every standard-library
// package, resolves to the very package l type-checked against, so
// objects keep their identity across the two modules. It reads a
// module that imports l's through a replace directive, such as the
// benchmark module under the root.
func (l *Loader) over(root string) (*Loader, error) {
	module, err := ModulePath(root)
	if err != nil {
		return nil, err
	}
	o := &Loader{Root: root, Module: module, fset: l.fset, pkgs: map[string]*Package{}, std: l.std, stdS: l.stdS}
	for path, p := range l.pkgs {
		o.pkgs[path] = p
	}
	return o, nil
}

// importPkg resolves an import: a package the loader holds resolves to
// itself, other intra-module paths load from source, and everything
// else goes to the stdlib importer (gc export data first, falling back
// to type-checking the standard library from source).
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if p := l.pkgs[path]; p != nil && p.Types != nil {
		return p.Types, nil
	}
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		if p.Types == nil {
			return nil, fmt.Errorf("type-checking %s failed", path)
		}
		return p.Types, nil
	}
	pkg, err := l.std.Import(path)
	if err == nil {
		return pkg, nil
	}
	return l.stdS.Import(path)
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
