package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// The deadexport analyzer keeps code that nothing runs out of
// internal/: every package-scope func, method, type, var and const
// declared there, exported or not, must be used by some non-test file
// of the module. The loader never parses _test.go files, so a name that
// only its own tests call has no use here. cmd/, examples/ and the root
// package count as users because they are loaded like any other
// package; so does the _benchmark module, which LoadAll skips: it is
// type-checked on its own against the loaded packages (its replace
// directive points at the root), so each of its selectors resolves to
// the one field, method or name it selects.
//
// A name's own declaration is not a use of it: the receiver and body of
// a method, a self-recursive call, and a type's mentions of itself in
// its own spec and methods do not keep it alive.
//
// Methods that satisfy an interface are exempt, whether the interface
// is declared in the module, written inline in it, or declared in any
// package the module imports (gob.GobEncoder, types.Importer, ...): the
// call then goes through the interface and names no method.
//
// A deliberate test or bench API (a reference walk, a fixture builder)
// carries a waiver in its declaration's doc comment, reason required:
//
//	//nebula:test-support <reason>
//
// A waiver without a reason is itself a finding.

// TestSupportDirective marks a declaration as API kept for tests and
// benchmarks only.
const TestSupportDirective = "nebula:test-support"

// benchmarkDir is the separate benchmark module under the root. It
// imports this module's internal packages, so its uses count.
const benchmarkDir = "_benchmark"

// DeadexportAnalyzer returns the deadexport rule.
func DeadexportAnalyzer() *Analyzer {
	return &Analyzer{
		Name:       "deadexport",
		Doc:        "package-scope names in internal/ need a non-test user or a //nebula:test-support <reason> waiver",
		Severity:   SeverityError,
		RunProgram: runDeadexport,
	}
}

// declSite is one audited package-scope declaration.
type declSite struct {
	pkg   *Package
	obj   types.Object
	ident *ast.Ident
	docs  []*ast.CommentGroup
	own   []span // ranges whose uses of the name are its own
}

func runDeadexport(prog *Program) []Finding {
	sites := map[types.Object]*declSite{}
	var order []*declSite
	add := func(p *Package, ident *ast.Ident, node ast.Node, docs ...*ast.CommentGroup) {
		obj := p.Info.Defs[ident]
		if obj == nil || ident.Name == "_" || ident.Name == "init" {
			return
		}
		d := &declSite{pkg: p, obj: obj, ident: ident, docs: docs, own: []span{{node.Pos(), node.End()}}}
		sites[obj] = d
		order = append(order, d)
	}
	methodSpans := map[*types.TypeName][]span{}
	for _, p := range prog.Pkgs {
		if !pathIsInternal(p.Path) || p.IsMain() {
			continue
		}
		for _, file := range p.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					add(p, d.Name, d, d.Doc)
					if recv := receiverNamed(p, d); recv != nil {
						methodSpans[recv.Obj()] = append(methodSpans[recv.Obj()], span{d.Pos(), d.End()})
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(p, s.Name, s, d.Doc, s.Doc)
						case *ast.ValueSpec:
							for _, name := range s.Names {
								add(p, name, s, d.Doc, s.Doc)
							}
						}
					}
				}
			}
		}
	}
	for tn, spans := range methodSpans {
		if d := sites[tn]; d != nil {
			d.own = append(d.own, spans...)
		}
	}

	used := map[types.Object]bool{}
	for _, p := range prog.Pkgs {
		for id, obj := range p.Info.Uses {
			obj = originOf(obj)
			if d := sites[obj]; d != nil && !inSpans(d.own, id.Pos()) {
				used[obj] = true
			}
		}
	}
	for obj := range benchmarkUses(prog) {
		if sites[obj] != nil {
			used[obj] = true
		}
	}

	ifaces := interfacesByMethod(prog)
	var out []Finding
	for _, d := range order {
		waived, reasonless := testSupportWaiver(d.docs)
		if reasonless != nil {
			out = append(out, findingAt(d.pkg.Fset, reasonless.Pos(), fmt.Sprintf(
				"//%s on %s gives no reason; name the test or bench that needs it", TestSupportDirective, qualifiedName(d.obj))))
		}
		if waived || used[d.obj] {
			continue
		}
		if isMethod(d.obj) && satisfiesInterface(d.obj.(*types.Func), ifaces) {
			continue
		}
		out = append(out, findingAt(d.pkg.Fset, d.ident.Pos(), fmt.Sprintf(
			"%s has no non-test user; delete it, or mark deliberate test or bench API //%s <reason>", qualifiedName(d.obj), TestSupportDirective)))
	}
	return out
}

// originOf maps an instantiated generic function, method or field to
// its declaration.
func originOf(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// isMethod reports whether obj is a method.
func isMethod(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	return ok && fn.Type().(*types.Signature).Recv() != nil
}

// qualifiedName renders pkg.Name, or pkg.Type.Method for a method.
func qualifiedName(obj types.Object) string {
	name := obj.Name()
	if isMethod(obj) {
		t := obj.Type().(*types.Signature).Recv().Type()
		if pt, ok := t.(*types.Pointer); ok {
			t = pt.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			name = n.Obj().Name() + "." + name
		}
	}
	return obj.Pkg().Name() + "." + name
}

// testSupportWaiver reports whether the doc comments carry the waiver,
// and returns the directive comment when it gives no reason.
func testSupportWaiver(docs []*ast.CommentGroup) (waived bool, reasonless *ast.Comment) {
	for _, cg := range docs {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			rest, ok := strings.CutPrefix(text, TestSupportDirective)
			if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
				continue
			}
			if strings.TrimSpace(rest) == "" {
				return true, c
			}
			return true, nil
		}
	}
	return false, nil
}

// benchmarkUses type-checks the non-test files of the benchmark module
// under the module root against the loaded packages and returns every
// object its code uses. A module without a benchmark has no uses.
func benchmarkUses(prog *Program) map[types.Object]bool {
	uses := map[types.Object]bool{}
	if len(prog.Pkgs) == 0 || prog.Pkgs[0].loader == nil {
		return uses
	}
	ml := prog.Pkgs[0].loader
	l, err := ml.over(filepath.Join(ml.Root, benchmarkDir))
	if err != nil {
		return uses
	}
	p, err := l.Load(l.Module)
	if err != nil {
		return uses
	}
	for _, obj := range p.Info.Uses {
		uses[originOf(obj)] = true
	}
	return uses
}

// interfacesByMethod indexes by method name every interface declared or
// written inline in the module and every interface declared in a
// package the module imports, directly or not.
func interfacesByMethod(prog *Program) map[string][]*types.Interface {
	out := map[string][]*types.Interface{}
	addIface := func(iface *types.Interface) {
		if !iface.IsMethodSet() {
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			out[name] = append(out[name], iface)
		}
	}
	for _, iface := range errorInterfaces() {
		addIface(iface)
	}
	seen := map[*types.Package]bool{}
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if pkg == nil || seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
				addIface(iface)
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, p := range prog.Pkgs {
		visit(p.Types)
		for expr, tv := range p.Info.Types {
			if _, lit := expr.(*ast.InterfaceType); !lit {
				continue
			}
			if iface, ok := tv.Type.(*types.Interface); ok {
				addIface(iface)
			}
		}
	}
	return out
}

// errorInterfaces returns the error interface and the interfaces the
// errors package asserts inline, where its export data does not show
// them: errors.Is, As and Unwrap reach these methods through them.
func errorInterfaces() []*types.Interface {
	errType := types.Universe.Lookup("error").Type()
	tuple := func(t types.Type) *types.Tuple { return types.NewTuple(types.NewVar(token.NoPos, nil, "", t)) }
	method := func(name string, params, results *types.Tuple) *types.Func {
		return types.NewFunc(token.NoPos, nil, name, types.NewSignatureType(nil, nil, nil, params, results, false))
	}
	out := []*types.Interface{errType.Underlying().(*types.Interface)}
	for _, m := range []*types.Func{
		method("Unwrap", nil, tuple(errType)),
		method("Unwrap", nil, tuple(types.NewSlice(errType))),
		method("Is", tuple(errType), tuple(types.Typ[types.Bool])),
		method("As", tuple(types.Universe.Lookup("any").Type()), tuple(types.Typ[types.Bool])),
	} {
		out = append(out, types.NewInterfaceType([]*types.Func{m}, nil).Complete())
	}
	return out
}

// satisfiesInterface reports whether the method's receiver type, by
// value or by pointer, implements an indexed interface that declares a
// method of the same name.
func satisfiesInterface(fn *types.Func, ifaces map[string][]*types.Interface) bool {
	t := fn.Type().(*types.Signature).Recv().Type()
	if pt, ok := t.(*types.Pointer); ok {
		t = pt.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.TypeParams().Len() > 0 {
		return false
	}
	for _, iface := range ifaces[fn.Name()] {
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}
