package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The hotalloc analyzer proves the zero-allocation property of the
// engine's steady-state read path. Functions annotated with a
// //nebula:hotpath doc-comment directive are roots; the analyzer takes
// the transitive closure over the intra-module call graph and rejects
// allocation-inducing constructs anywhere in the closure: make/new,
// appends that can grow, slice and map composite literals,
// &T{...} heap literals, closures, boxing of concrete values into
// interface parameters, fmt.Sprint*/Errorf, and string concatenation
// inside loops.
//
// Real hot paths are not allocation-free in the naive syntactic sense,
// so three idioms are recognized as off the steady state:
//
//   - Cold exits. A return statement whose results carry a non-nil
//     error (directly or inside a call's result tuple) is an error
//     tail, and a panic call is an invariant failure; both terminate
//     the hot iteration, so the statement — including any fmt.Errorf
//     inside it — is skipped entirely, and calls made only there are
//     not pulled into the closure. //nebula:coldpath on (or directly
//     above) a statement marks other cold regions explicitly.
//     Escape analysis does not share the excuse: a hot function's own
//     slice or pointer parameter boxed into an interface anywhere in
//     its body — panic(fmt.Sprintf("%v", idx)) in a cold exit included
//     — is moved to the heap at every call site. Such boxing is
//     reported even inside cold regions; format a copy instead.
//   - Amortized growth guards. Inside the body of an if whose
//     condition consults len/cap or compares against nil, allocation
//     constructs are excused: "grow scratch when undersized" runs a
//     bounded number of times, not per iteration. The excuse covers
//     only the allocation constructs — calls made under a guard are
//     still pulled into the hot closure (the kernel-dispatch guard in
//     MACReadInto must not hide its callees).
//   - Recycled appends. append(x[:0], ...) and appends to a variable
//     previously reset with x = x[:0] reuse capacity and settle after
//     warm-up.
//
// Calls through interfaces and function values are not resolved by the
// call graph and therefore not checked (the documented callgraph.go
// boundary); keep hot paths monomorphic.

// HotpathDirective marks a function as a hot-path root in its doc
// comment.
const HotpathDirective = "nebula:hotpath"

// ColdpathDirective marks a statement (same line or line above) as off
// the steady-state path.
const ColdpathDirective = "nebula:coldpath"

// HotallocAnalyzer returns the hotalloc rule.
func HotallocAnalyzer() *Analyzer {
	return &Analyzer{
		Name:       "hotalloc",
		Doc:        "//nebula:hotpath closures must be free of allocation-inducing constructs",
		Severity:   SeverityError,
		RunProgram: runHotalloc,
	}
}

func runHotalloc(prog *Program) []Finding {
	var findings []Finding
	// Roots in deterministic (package, file, declaration) order.
	var queue []*FuncInfo
	root := map[*FuncInfo]string{}
	for _, p := range prog.Pkgs {
		for _, file := range p.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !hasDirective(fd.Doc, HotpathDirective) {
					continue
				}
				obj, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				if fi := prog.Funcs[obj]; fi != nil {
					root[fi] = fi.Name()
					queue = append(queue, fi)
				}
			}
		}
	}
	coldLines := coldpathLines(prog)
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		hc := &hotChecker{fn: fn, root: root[fn]}
		hc.analyze(coldLines[fn.Pkg])
		findings = append(findings, hc.findings...)
		for _, site := range fn.Callees {
			if hc.inCold(site.Call.Pos()) {
				continue
			}
			callee := site.Callee
			if _, seen := root[callee]; seen {
				continue
			}
			root[callee] = root[fn]
			queue = append(queue, callee)
		}
	}
	return findings
}

// coldpathLines indexes, per package and file, the lines carrying a
// //nebula:coldpath directive.
func coldpathLines(prog *Program) map[*Package]map[string]map[int]bool {
	out := map[*Package]map[string]map[int]bool{}
	for _, p := range prog.Pkgs {
		files := map[string]map[int]bool{}
		for _, file := range p.Files {
			fname := p.Fset.Position(file.Pos()).Filename
			lines := map[int]bool{}
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					if hasDirective(&ast.CommentGroup{List: []*ast.Comment{c}}, ColdpathDirective) {
						lines[p.Fset.Position(c.Pos()).Line] = true
					}
				}
			}
			files[fname] = lines
		}
		out[p] = files
	}
	return out
}

// span is a source interval.
type span struct{ from, to token.Pos }

func (s span) contains(pos token.Pos) bool { return pos >= s.from && pos <= s.to }

func inSpans(spans []span, pos token.Pos) bool {
	for _, s := range spans {
		if s.contains(pos) {
			return true
		}
	}
	return false
}

// hotChecker analyzes one function of the hot closure.
type hotChecker struct {
	fn       *FuncInfo
	root     string
	findings []Finding

	cold    []span // skipped entirely: error tails, panics, //nebula:coldpath
	excused []span // growth-guard bodies: allocation constructs excused
	loops   []span // loop bodies: string concatenation banned here
}

func (hc *hotChecker) inCold(pos token.Pos) bool { return inSpans(hc.cold, pos) }

func (hc *hotChecker) analyze(coldFiles map[string]map[int]bool) {
	p := hc.fn.Pkg
	body := hc.fn.Decl.Body
	fname := p.Fset.Position(body.Pos()).Filename
	coldDirective := coldFiles[fname]

	// Pass 1: classify regions.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			if hc.returnsError(n) {
				hc.cold = append(hc.cold, span{n.Pos(), n.End()})
			}
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok && isBuiltinCall(p, call, "panic") {
				hc.cold = append(hc.cold, span{n.Pos(), n.End()})
			}
		case *ast.IfStmt:
			if isGrowthGuard(p, n) {
				hc.excused = append(hc.excused, span{n.Body.Pos(), n.Body.End()})
			}
		case *ast.ForStmt:
			hc.loops = append(hc.loops, span{n.Body.Pos(), n.Body.End()})
		case *ast.RangeStmt:
			hc.loops = append(hc.loops, span{n.Body.Pos(), n.Body.End()})
		}
		if stmt, ok := n.(ast.Stmt); ok && coldDirective != nil {
			line := p.Fset.Position(stmt.Pos()).Line
			if coldDirective[line] || coldDirective[line-1] {
				hc.cold = append(hc.cold, span{stmt.Pos(), stmt.End()})
			}
		}
		return true
	})

	// Pass 2: flag banned constructs outside cold regions, tracking
	// recycled-append destinations in source order.
	recycled := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if hc.inCold(n.Pos()) {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			hc.noteRecycled(n, recycled)
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 &&
				typeIsString(p.Info.Types[n.Lhs[0]].Type) && inSpans(hc.loops, n.Pos()) {
				hc.flag(n.Pos(), "string concatenation in a loop reallocates every iteration")
			}
		case *ast.CallExpr:
			hc.checkCall(n, recycled)
		case *ast.CompositeLit:
			t := p.Info.Types[n].Type
			if t == nil {
				break
			}
			switch t.Underlying().(type) {
			case *types.Slice:
				if !inSpans(hc.excused, n.Pos()) {
					hc.flag(n.Pos(), "slice literal allocates")
				}
			case *types.Map:
				if !inSpans(hc.excused, n.Pos()) {
					hc.flag(n.Pos(), "map literal allocates")
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok && !inSpans(hc.excused, n.Pos()) {
					hc.flag(n.Pos(), "&composite literal escapes to the heap")
				}
			}
		case *ast.FuncLit:
			hc.flag(n.Pos(), "closure allocates; hoist the function or pass state explicitly")
			return false
		case *ast.BinaryExpr:
			if n.Op == token.ADD && typeIsString(p.Info.Types[n.X].Type) && inSpans(hc.loops, n.Pos()) {
				hc.flag(n.Pos(), "string concatenation in a loop reallocates every iteration")
			}
		}
		return true
	})

	// Pass 3: inside cold regions, parameters boxed into interfaces.
	params := hc.pointerParams()
	if len(params) == 0 {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && hc.inCold(call.Pos()) {
			hc.checkColdBoxing(call, params)
		}
		return true
	})
}

// pointerParams returns the function's receiver and parameters whose
// types are slices or pointers — what an interface conversion leaks.
func (hc *hotChecker) pointerParams() map[types.Object]bool {
	p := hc.fn.Pkg
	out := map[types.Object]bool{}
	var lists []*ast.FieldList
	if hc.fn.Decl.Recv != nil {
		lists = append(lists, hc.fn.Decl.Recv)
	}
	lists = append(lists, hc.fn.Decl.Type.Params)
	for _, fl := range lists {
		for _, field := range fl.List {
			for _, name := range field.Names {
				obj := p.Info.Defs[name]
				if obj == nil {
					continue
				}
				switch obj.Type().Underlying().(type) {
				case *types.Slice, *types.Pointer:
					out[obj] = true
				}
			}
		}
	}
	return out
}

// checkColdBoxing flags arguments of a cold-region call that box one of
// params into an interface: through an interface parameter (variadic
// ...interface{} slots included), a conversion, or panic itself.
func (hc *hotChecker) checkColdBoxing(call *ast.CallExpr, params map[types.Object]bool) {
	p := hc.fn.Pkg
	boxed := func(arg ast.Expr) {
		id, ok := ast.Unparen(arg).(*ast.Ident)
		if !ok || !params[p.Info.Uses[id]] {
			return
		}
		hc.flag(arg.Pos(), "cold exit boxes parameter "+id.Name+" into an interface, so escape analysis moves it to the heap at every call site; format a copy")
	}
	if isBuiltinCall(p, call, "panic") {
		for _, arg := range call.Args {
			boxed(arg)
		}
		return
	}
	tv := p.Info.Types[call.Fun]
	if tv.Type == nil {
		return
	}
	if tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			boxed(call.Args[0])
		}
		return
	}
	if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
		for _, arg := range interfaceArgs(call, sig) {
			boxed(arg)
		}
	}
}

// flag records one finding with hot-path provenance.
func (hc *hotChecker) flag(pos token.Pos, msg string) {
	prov := "declared //nebula:hotpath"
	if hc.root != hc.fn.Name() {
		prov = "hot via root " + hc.root
	}
	hc.findings = append(hc.findings, findingAt(hc.fn.Pkg.Fset, pos, fmt.Sprintf(
		"%s in hot function %s (%s)", msg, hc.fn.Name(), prov)))
}

// checkCall classifies one call expression on the hot path.
func (hc *hotChecker) checkCall(call *ast.CallExpr, recycled map[string]bool) {
	p := hc.fn.Pkg
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isB := p.Info.Uses[id].(*types.Builtin); isB {
			switch b.Name() {
			case "make":
				if !inSpans(hc.excused, call.Pos()) {
					hc.flag(call.Pos(), "make allocates")
				}
			case "new":
				if !inSpans(hc.excused, call.Pos()) {
					hc.flag(call.Pos(), "new allocates")
				}
			case "append":
				if !hc.appendIsRecycled(call, recycled) && !inSpans(hc.excused, call.Pos()) {
					hc.flag(call.Pos(), "append may grow its backing array; recycle with x = append(x[:0], ...) or guard the growth")
				}
			}
			return
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if fn, ok := p.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			if strings.HasPrefix(fn.Name(), "Sprint") || fn.Name() == "Errorf" {
				hc.flag(call.Pos(), "fmt."+fn.Name()+" allocates and boxes its operands")
				return
			}
		}
	}
	tv := p.Info.Types[call.Fun]
	if tv.Type == nil {
		return
	}
	if tv.IsType() {
		// Conversion: concrete → interface boxes.
		if types.IsInterface(tv.Type) && len(call.Args) == 1 && isConcrete(p.Info.Types[call.Args[0]].Type) {
			hc.flag(call.Pos(), "conversion boxes a concrete value into an interface")
		}
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	hc.checkBoxing(call, sig)
}

// checkBoxing flags arguments that box concrete values into interface
// parameters, including variadic ...interface{} slots.
func (hc *hotChecker) checkBoxing(call *ast.CallExpr, sig *types.Signature) {
	for _, arg := range interfaceArgs(call, sig) {
		if isConcrete(hc.fn.Pkg.Info.Types[arg].Type) {
			hc.flag(arg.Pos(), "argument boxes a concrete value into an interface parameter")
		}
	}
}

// interfaceArgs returns the call's arguments that land in interface
// parameters, including variadic ...interface{} slots (a spread
// slice... passes an existing slice and boxes nothing).
func interfaceArgs(call *ast.CallExpr, sig *types.Signature) []ast.Expr {
	params := sig.Params()
	if params == nil {
		return nil
	}
	fixed := params.Len()
	if sig.Variadic() {
		fixed--
	}
	var out []ast.Expr
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < fixed:
			pt = params.At(i).Type()
		case sig.Variadic() && call.Ellipsis == token.NoPos:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		default:
			continue
		}
		if types.IsInterface(pt) {
			out = append(out, arg)
		}
	}
	return out
}

// appendIsRecycled reports whether the append reuses capacity: its
// destination is x[:0] inline or a variable previously reset to [:0].
func (hc *hotChecker) appendIsRecycled(call *ast.CallExpr, recycled map[string]bool) bool {
	if len(call.Args) == 0 {
		return false
	}
	dst := ast.Unparen(call.Args[0])
	if isZeroReslice(dst) {
		return true
	}
	return recycled[types.ExprString(dst)]
}

// noteRecycled tracks recycled-append destinations: x = x[:0] and
// x = append(x[:0], ...) make x recycled, x = append(x, ...) keeps it,
// any other assignment clears it.
func (hc *hotChecker) noteRecycled(n *ast.AssignStmt, recycled map[string]bool) {
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i, l := range n.Lhs {
		key := types.ExprString(ast.Unparen(l))
		r := ast.Unparen(n.Rhs[i])
		if s, ok := r.(*ast.SliceExpr); ok && isZeroReslice(s) && types.ExprString(ast.Unparen(s.X)) == key {
			recycled[key] = true
			continue
		}
		if call, ok := r.(*ast.CallExpr); ok && isBuiltinCall(hc.fn.Pkg, call, "append") && len(call.Args) > 0 {
			dst := ast.Unparen(call.Args[0])
			if s, ok := dst.(*ast.SliceExpr); ok && isZeroReslice(s) && types.ExprString(ast.Unparen(s.X)) == key {
				recycled[key] = true
				continue
			}
			if types.ExprString(dst) == key {
				continue // x = append(x, ...) keeps x's status
			}
		}
		delete(recycled, key)
	}
}

// isZeroReslice matches e[:0].
func isZeroReslice(e ast.Expr) bool {
	s, ok := ast.Unparen(e).(*ast.SliceExpr)
	if !ok || s.Low != nil || s.High == nil {
		return false
	}
	lit, ok := ast.Unparen(s.High).(*ast.BasicLit)
	return ok && lit.Value == "0"
}

// returnsError reports whether a return statement carries a non-nil
// error, directly or inside a call's result tuple — the error-tail
// pattern that terminates a hot iteration.
func (hc *hotChecker) returnsError(ret *ast.ReturnStmt) bool {
	p := hc.fn.Pkg
	for _, r := range ret.Results {
		tv := p.Info.Types[r]
		if tv.Type == nil {
			continue
		}
		if b, ok := tv.Type.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		if _, isNil := ast.Unparen(r).(*ast.Ident); isNil && types.ExprString(ast.Unparen(r)) == "nil" {
			continue
		}
		if typeCarriesError(tv.Type) {
			return true
		}
	}
	return false
}

// typeCarriesError reports whether t is error or a tuple containing
// error.
func typeCarriesError(t types.Type) bool {
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if typeCarriesError(tup.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// isGrowthGuard reports whether an if condition consults len/cap or a
// nil comparison — the amortized grow-on-demand idiom.
func isGrowthGuard(p *Package, n *ast.IfStmt) bool {
	guard := false
	check := func(e ast.Expr) {
		ast.Inspect(e, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.CallExpr:
				if isBuiltinCall(p, x, "len") || isBuiltinCall(p, x, "cap") {
					guard = true
				}
			case *ast.BinaryExpr:
				if isNilIdent(x.X) || isNilIdent(x.Y) {
					guard = true
				}
			}
			return true
		})
	}
	check(n.Cond)
	return guard
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// isBuiltinCall reports whether the call invokes the named builtin.
func isBuiltinCall(p *Package, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := p.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// isConcrete reports whether t is a concrete (boxable) type: not an
// interface, not untyped nil.
func isConcrete(t types.Type) bool {
	if t == nil || types.IsInterface(t) {
		return false
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	return true
}

// typeIsString reports whether t's underlying type is string.
func typeIsString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
