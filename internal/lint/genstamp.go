package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The genstamp analyzer proves the kernel-invalidation contract of
// generation-stamped types (crossbar.Crossbar today): any method that
// writes device state — a field or element assignment, directly or
// through same-type callees — must have called invalidate() on every
// path reaching the write, so a baked read kernel can never observe a
// mutation it was not invalidated for. This statically supersedes the
// hand-maintained per-mutator freshness table: the analyzer discovers
// the mutator set from the code instead of trusting a test author to
// extend a list.
//
// A type is "stamped" when it declares an unsigned integer field named
// gen and an invalidate method in the same package. Every other field
// is device state by default; fields and methods outside the
// read-visible contract opt out with a declaration-site directive
// (reason text required):
//
//	//nebula:genstamp-exempt <reason>
//
// on the field (activity counters, caches keyed by gen) or on the
// method (lazy allocation that leaves read results unchanged). Exempt
// is a contract annotation reviewed with the declaration — distinct
// from //nebula:lint-ignore, which waives one finding at one site.
//
// The flow analysis is a forward walk over each method body tracking
// whether invalidate has definitely been called ("inv"). inv is
// established by a direct c.invalidate() statement or by calling a
// same-receiver method that itself invalidates on every return (e.g.
// writeDevice), and is monotone — nothing un-invalidates — so loop
// bodies are analyzed once from their entry state. Branches merge
// conservatively: paths that terminate (return/panic) drop out of the
// merge. Locals assigned from receiver fields of reference type
// (slice/map/pointer) are tracked as aliases so writes through them
// count as device writes. Writes through escaped pointers other than
// &c.field call arguments are outside the analysis, as are calls made
// through interfaces or function values (the callgraph.go boundary).

// GenstampExemptDirective marks a struct field or method of a stamped
// type as outside the generation contract.
const GenstampExemptDirective = "nebula:genstamp-exempt"

// GenstampAnalyzer returns the genstamp rule.
func GenstampAnalyzer() *Analyzer {
	return &Analyzer{
		Name:     "genstamp",
		Doc:      "device-state writes on generation-stamped types must be dominated by invalidate()",
		Severity: SeverityError,
		RunProgram: func(prog *Program) []Finding {
			fs, _ := genstampAnalyze(prog)
			return fs
		},
	}
}

// MutatorSurvey runs the genstamp discovery over prog and returns, per
// stamped type (keyed "pkgpath.TypeName"), the sorted names of methods
// that write device state directly or via same-type callees. The
// runtime freshness table cross-checks against this so the two gates
// cannot silently diverge.
//
//nebula:test-support the crossbar freshness table test cross-checks its mutator list against it
func MutatorSurvey(prog *Program) map[string][]string {
	_, survey := genstampAnalyze(prog)
	return survey
}

// stampedType is one discovered generation-stamped type.
type stampedType struct {
	named      *types.Named
	pkg        *Package
	invalidate *types.Func
	exempt     map[string]bool // field name -> exempt from the contract
}

func (s *stampedType) key() string {
	return s.pkg.Path + "." + s.named.Obj().Name()
}

// genstampAnalyze discovers stamped types and checks every method.
func genstampAnalyze(prog *Program) ([]Finding, map[string][]string) {
	var findings []Finding
	survey := map[string][]string{}
	for _, st := range stampedTypes(prog) {
		ck := &genstampChecker{prog: prog, st: st, summaries: map[*types.Func]*mutSummary{}}
		var names []string
		for _, m := range ck.methods() {
			sum := ck.summary(m)
			findings = append(findings, sum.findings...)
			if sum.writes {
				names = append(names, m.Obj.Name())
			}
		}
		sort.Strings(names)
		survey[st.key()] = names
	}
	return findings, survey
}

// stampedTypes discovers every generation-stamped struct type in the
// program, in deterministic (package, file, declaration) order.
func stampedTypes(prog *Program) []*stampedType {
	var out []*stampedType
	for _, p := range prog.Pkgs {
		if p.Types == nil {
			continue
		}
		for _, file := range p.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					sd, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					tn, ok := p.Info.Defs[ts.Name].(*types.TypeName)
					if !ok {
						continue
					}
					named, ok := tn.Type().(*types.Named)
					if !ok || !hasGenField(p, sd) {
						continue
					}
					inv := invalidateMethodOf(p, named)
					if inv == nil {
						continue
					}
					st := &stampedType{named: named, pkg: p, invalidate: inv, exempt: map[string]bool{}}
					for _, f := range sd.Fields.List {
						if hasDirective(f.Doc, GenstampExemptDirective) || hasDirective(f.Comment, GenstampExemptDirective) {
							for _, n := range f.Names {
								st.exempt[n.Name] = true
							}
						}
					}
					out = append(out, st)
				}
			}
		}
	}
	return out
}

// hasGenField reports whether the struct declares an unsigned integer
// field named gen.
func hasGenField(p *Package, sd *ast.StructType) bool {
	for _, f := range sd.Fields.List {
		for _, n := range f.Names {
			if n.Name != "gen" {
				continue
			}
			t := p.Info.Types[f.Type].Type
			if t == nil {
				continue
			}
			if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsUnsigned != 0 {
				return true
			}
		}
	}
	return false
}

// invalidateMethodOf returns the type's invalidate method if declared
// in the same package, else nil.
func invalidateMethodOf(p *Package, named *types.Named) *types.Func {
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, p.Types, "invalidate")
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() != p.Types {
		return nil
	}
	return fn
}

// hasDirective reports whether the comment group carries the given
// machine directive (alone or followed by free text).
func hasDirective(cg *ast.CommentGroup, directive string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == directive || strings.HasPrefix(text, directive+" ") {
			return true
		}
	}
	return false
}

// mutSummary is the memoized per-method result.
type mutSummary struct {
	// writes reports whether the method writes device state, directly
	// or via same-type callees — the MutatorSurvey membership bit.
	writes bool
	// alwaysInvalidates reports whether every normal return of the
	// method has called invalidate — what lets callers rely on e.g.
	// writeDevice to establish the invalidated state.
	alwaysInvalidates bool
	findings          []Finding
}

// genstampChecker analyzes all methods of one stamped type.
type genstampChecker struct {
	prog      *Program
	st        *stampedType
	summaries map[*types.Func]*mutSummary
}

// methods returns the type's method declarations in deterministic
// order, excluding invalidate itself and exempt methods.
func (ck *genstampChecker) methods() []*FuncInfo {
	var out []*FuncInfo
	p := ck.st.pkg
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || receiverNamed(p, fd) != ck.st.named {
				continue
			}
			obj, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok || obj == ck.st.invalidate {
				continue
			}
			if hasDirective(fd.Doc, GenstampExemptDirective) {
				continue
			}
			if fi := ck.prog.Funcs[obj]; fi != nil {
				out = append(out, fi)
			}
		}
	}
	return out
}

// summary computes (memoized) the method's mutation summary, emitting
// findings for device writes not dominated by invalidate.
func (ck *genstampChecker) summary(m *FuncInfo) *mutSummary {
	if s, ok := ck.summaries[m.Obj]; ok {
		return s
	}
	// Conservative placeholder breaks recursion cycles: an in-progress
	// method neither writes nor invalidates until proven otherwise.
	s := &mutSummary{}
	ck.summaries[m.Obj] = s
	if hasDirective(m.Decl.Doc, GenstampExemptDirective) {
		return s
	}
	mc := &methodChecker{ck: ck, m: m, recv: receiverObj(m.Pkg, m.Decl), sum: s}
	if mc.recv == nil {
		return s
	}
	st := newGenState()
	mc.stmt(m.Decl.Body, st)
	if !st.term && !st.inv {
		mc.endsWithoutInv = true
	}
	s.alwaysInvalidates = !mc.endsWithoutInv
	// Survey propagation: any call on the receiver to a writing method,
	// wherever it appears, makes this method a (transitive) mutator.
	ast.Inspect(m.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if callee := mc.receiverCallee(call); callee != nil && callee != m.Obj {
			if fi := ck.prog.Funcs[callee]; fi != nil && ck.summary(fi).writes {
				s.writes = true
			}
		}
		return true
	})
	return s
}

// genState is the abstract state of the forward walk.
type genState struct {
	// inv records whether invalidate has definitely been called on
	// every path reaching this point.
	inv bool
	// term records whether every path to this point has terminated
	// (returned, panicked, or branched away).
	term bool
	// aliases maps local variables of reference type to the receiver
	// field they were copied from.
	aliases map[types.Object]string
}

func newGenState() *genState {
	return &genState{aliases: map[types.Object]string{}}
}

func (st *genState) clone() *genState {
	c := &genState{inv: st.inv, term: st.term, aliases: map[types.Object]string{}}
	for k, v := range st.aliases {
		c.aliases[k] = v
	}
	return c
}

// mergeInto folds the outcomes of sibling branches back into st: only
// non-terminated branches constrain inv, and aliases union (an alias
// on any path makes later writes through the variable device writes).
func (st *genState) mergeInto(branches ...*genState) {
	inv := true
	term := true
	for _, b := range branches {
		if b.term {
			continue
		}
		term = false
		if !b.inv {
			inv = false
		}
		for k, v := range b.aliases {
			st.aliases[k] = v
		}
	}
	st.inv = inv && !term
	st.term = term
}

// methodChecker runs the walk over one method body.
type methodChecker struct {
	ck             *genstampChecker
	m              *FuncInfo
	recv           types.Object
	sum            *mutSummary
	endsWithoutInv bool
}

func (mc *methodChecker) pkg() *Package { return mc.m.Pkg }

func (mc *methodChecker) isRecv(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && mc.pkg().Info.Uses[id] == mc.recv
}

// receiverCallee resolves a call on the receiver (c.method(...)) to
// its *types.Func, or nil for anything else.
func (mc *methodChecker) receiverCallee(call *ast.CallExpr) *types.Func {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !mc.isRecv(sel.X) {
		return nil
	}
	fn, _ := mc.pkg().Info.Uses[sel.Sel].(*types.Func)
	return fn
}

// fieldOf resolves the receiver field an lvalue ultimately writes,
// looking through index expressions, selector chains and tracked
// aliases.
func (mc *methodChecker) fieldOf(e ast.Expr, st *genState) (string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := mc.pkg().Info.Uses[e]
		if obj == nil {
			obj = mc.pkg().Info.Defs[e]
		}
		if f, ok := st.aliases[obj]; ok {
			return f, true
		}
	case *ast.SelectorExpr:
		if mc.isRecv(e.X) {
			return e.Sel.Name, true
		}
		return mc.fieldOf(e.X, st)
	case *ast.IndexExpr:
		return mc.fieldOf(e.X, st)
	case *ast.StarExpr:
		return mc.fieldOf(e.X, st)
	}
	return "", false
}

// checkWrite records a device write and emits a finding when the
// invalidated state has not been established. A plain identifier
// target rebinds a local (updateAliases handles it); only writes
// through selectors, indexes or dereferences reach device state.
func (mc *methodChecker) checkWrite(lhs ast.Expr, st *genState, pos token.Pos) {
	if _, rebind := ast.Unparen(lhs).(*ast.Ident); rebind {
		return
	}
	field, ok := mc.fieldOf(lhs, st)
	if !ok || field == "gen" || mc.ck.st.exempt[field] {
		return
	}
	mc.sum.writes = true
	if !st.inv {
		mc.sum.findings = append(mc.sum.findings, findingAt(mc.pkg().Fset, pos, fmt.Sprintf(
			"%s.%s writes device field %q of generation-stamped type %s on a path that has not called invalidate(); a baked read kernel could survive this mutation",
			mc.ck.st.named.Obj().Name(), mc.m.Obj.Name(), field, mc.ck.st.key())))
	}
}

// scanEscapes flags &c.field arguments: handing out the address of a
// non-exempt device field is treated as a write at the call site.
func (mc *methodChecker) scanEscapes(e ast.Expr, st *genState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		u, ok := n.(*ast.UnaryExpr)
		if !ok || u.Op != token.AND {
			return true
		}
		if _, isLit := ast.Unparen(u.X).(*ast.CompositeLit); isLit {
			return true
		}
		mc.checkWrite(u.X, st, u.Pos())
		return true
	})
}

// callEffect applies the state effect of a statement-level call:
// invalidate (or an alwaysInvalidates same-type method) establishes
// the invalidated state; panic terminates the path.
func (mc *methodChecker) callEffect(call *ast.CallExpr, st *genState) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isB := mc.pkg().Info.Uses[id].(*types.Builtin); isB && b.Name() == "panic" {
			st.term = true
			return
		}
	}
	callee := mc.receiverCallee(call)
	if callee == nil {
		return
	}
	if callee == mc.ck.st.invalidate {
		st.inv = true
		return
	}
	if fi := mc.ck.prog.Funcs[callee]; fi != nil && mc.ck.summary(fi).alwaysInvalidates {
		st.inv = true
	}
}

// updateAliases tracks locals copied from reference-typed receiver
// fields (or from other aliases) so writes through them are seen.
func (mc *methodChecker) updateAliases(lhs, rhs []ast.Expr, define bool, st *genState) {
	if len(lhs) != len(rhs) {
		return
	}
	for i, l := range lhs {
		id, ok := ast.Unparen(l).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		var obj types.Object
		if define {
			obj = mc.pkg().Info.Defs[id]
		} else {
			obj = mc.pkg().Info.Uses[id]
		}
		if obj == nil {
			continue
		}
		delete(st.aliases, obj)
		r := ast.Unparen(rhs[i])
		if sel, ok := r.(*ast.SelectorExpr); ok && mc.isRecv(sel.X) && isRefType(mc.pkg().Info.Types[r].Type) {
			st.aliases[obj] = sel.Sel.Name
		} else if rid, ok := r.(*ast.Ident); ok {
			src := mc.pkg().Info.Uses[rid]
			if f, ok := st.aliases[src]; ok {
				st.aliases[obj] = f
			}
		}
	}
}

// isRefType reports whether writes through a copy of the value write
// the original (slices, maps, pointers).
func isRefType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Pointer:
		return true
	}
	return false
}

// stmt advances the abstract state through one statement, emitting
// findings for undominated device writes.
func (mc *methodChecker) stmt(s ast.Stmt, st *genState) {
	if s == nil || st.term {
		return
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, sub := range s.List {
			mc.stmt(sub, st)
		}
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			mc.scanEscapes(r, st)
		}
		for _, l := range s.Lhs {
			mc.checkWrite(l, st, l.Pos())
		}
		if s.Tok == token.DEFINE || s.Tok == token.ASSIGN {
			mc.updateAliases(s.Lhs, s.Rhs, s.Tok == token.DEFINE, st)
		}
	case *ast.IncDecStmt:
		mc.checkWrite(s.X, st, s.X.Pos())
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			for _, a := range call.Args {
				mc.scanEscapes(a, st)
			}
			mc.callEffect(call, st)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) == len(vs.Names) {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, n := range vs.Names {
						lhs[i] = n
					}
					mc.updateAliases(lhs, vs.Values, true, st)
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			mc.scanEscapes(r, st)
		}
		if !st.inv {
			mc.endsWithoutInv = true
		}
		st.term = true
	case *ast.BranchStmt:
		// break/continue/goto leave the linear walk; treating the path
		// as terminated keeps the merge conservative.
		st.term = true
	case *ast.IfStmt:
		mc.stmt(s.Init, st)
		mc.scanEscapes(s.Cond, st)
		body := st.clone()
		mc.stmt(s.Body, body)
		alt := st.clone()
		mc.stmt(s.Else, alt)
		st.mergeInto(body, alt)
	case *ast.ForStmt:
		mc.stmt(s.Init, st)
		// invalidate is monotone and nothing resets it, so one walk of
		// the body from the loop-entry state is exact for this lattice.
		body := st.clone()
		mc.stmt(s.Body, body)
		mc.stmt(s.Post, body)
		st.mergeInto(st.clone(), body)
	case *ast.RangeStmt:
		body := st.clone()
		mc.stmt(s.Body, body)
		st.mergeInto(st.clone(), body)
	case *ast.SwitchStmt:
		mc.stmt(s.Init, st)
		mc.caseMerge(s.Body, st, hasDefaultClause(s.Body))
	case *ast.TypeSwitchStmt:
		mc.stmt(s.Init, st)
		mc.caseMerge(s.Body, st, hasDefaultClause(s.Body))
	case *ast.SelectStmt:
		mc.caseMerge(s.Body, st, false)
	case *ast.LabeledStmt:
		mc.stmt(s.Stmt, st)
	case *ast.DeferStmt, *ast.GoStmt:
		// Deferred/spawned work runs outside the linear walk; its writes
		// are caught only if the callee is itself a checked method.
	}
}

// caseMerge walks each clause of a switch/select body from the current
// state and merges the outcomes; a missing default keeps the
// fall-through path in the merge.
func (mc *methodChecker) caseMerge(body *ast.BlockStmt, st *genState, hasDefault bool) {
	var branches []*genState
	for _, clause := range body.List {
		b := st.clone()
		switch c := clause.(type) {
		case *ast.CaseClause:
			for _, sub := range c.Body {
				mc.stmt(sub, b)
			}
		case *ast.CommClause:
			mc.stmt(c.Comm, b)
			for _, sub := range c.Body {
				mc.stmt(sub, b)
			}
		}
		branches = append(branches, b)
	}
	if !hasDefault {
		branches = append(branches, st.clone())
	}
	st.mergeInto(branches...)
}

// hasDefaultClause reports whether a switch body has a default case.
func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, clause := range body.List {
		if c, ok := clause.(*ast.CaseClause); ok && c.List == nil {
			return true
		}
	}
	return false
}
