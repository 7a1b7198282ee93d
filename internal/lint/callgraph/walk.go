package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"quest/internal/lint/loader"
)

// walker traverses one function body, recording call edges, allocation
// sites, and tracked observer calls on its node, while maintaining the set
// of observer-class expressions proven non-nil by dominating guards.
type walker struct {
	b    *builder
	pkg  *loader.Package
	node *Node
	// top is the enclosing declared function (for literal naming); nlits
	// counts literals under it in syntax order.
	top   *Node
	nlits *int
	// guards holds the printed form of observer-class expressions that are
	// non-nil on every execution reaching the current statement: pushed
	// entering `if x != nil` bodies and after early-return `if x == nil`
	// guards, popped leaving the dominated region.
	guards []string
}

func (w *walker) gated() bool { return len(w.guards) > 0 }

func (w *walker) guardedExact(expr string) bool {
	for _, g := range w.guards {
		if g == expr {
			return true
		}
	}
	return false
}

// walkBlock walks a statement list, accumulating early-return guards: after
// `if x == nil { return }` the rest of the block has x non-nil.
func (w *walker) walkBlock(list []ast.Stmt) {
	save := len(w.guards)
	for _, s := range list {
		w.walkStmt(s)
		if ifs, ok := s.(*ast.IfStmt); ok && ifs.Else == nil && ifs.Init == nil && terminates(ifs.Body) {
			w.guards = append(w.guards, w.nonNil(ifs.Cond, false)...)
		}
	}
	w.guards = w.guards[:save]
}

func (w *walker) walkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		w.walkBlock(s.List)
	case *ast.IfStmt:
		w.walkStmt(s.Init)
		w.walkExpr(s.Cond)
		save := len(w.guards)
		w.guards = append(w.guards, w.nonNil(s.Cond, true)...)
		w.walkBlock(s.Body.List)
		w.guards = w.guards[:save]
		if s.Else != nil {
			w.guards = append(w.guards, w.nonNil(s.Cond, false)...)
			w.walkStmt(s.Else)
			w.guards = w.guards[:save]
		}
	case *ast.ForStmt:
		w.walkStmt(s.Init)
		w.walkExpr(s.Cond)
		w.walkStmt(s.Post)
		w.walkBlock(s.Body.List)
	case *ast.RangeStmt:
		w.walkExpr(s.X)
		w.walkBlock(s.Body.List)
	case *ast.SwitchStmt:
		w.walkStmt(s.Init)
		w.walkExpr(s.Tag)
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				w.walkExpr(e)
			}
			w.walkBlock(cc.Body)
		}
	case *ast.TypeSwitchStmt:
		w.walkStmt(s.Init)
		w.walkStmt(s.Assign)
		for _, c := range s.Body.List {
			w.walkBlock(c.(*ast.CaseClause).Body)
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			w.walkStmt(cc.Comm)
			w.walkBlock(cc.Body)
		}
	case *ast.ExprStmt:
		w.walkExpr(s.X)
	case *ast.SendStmt:
		w.walkExpr(s.Chan)
		w.walkExpr(s.Value)
	case *ast.IncDecStmt:
		w.walkExpr(s.X)
	case *ast.AssignStmt:
		if s.Tok == token.ADD_ASSIGN && len(s.Lhs) == 1 && w.isString(s.Lhs[0]) {
			w.site(s.TokPos, "string concat")
		}
		for _, e := range s.Rhs {
			w.walkExpr(e)
		}
		for _, e := range s.Lhs {
			w.walkExpr(e)
		}
	case *ast.GoStmt:
		// A go statement allocates its goroutine (and any captured frame)
		// even when the callee itself is clean.
		w.site(s.Go, "go")
		w.walkCall(s.Call)
	case *ast.DeferStmt:
		w.walkCall(s.Call)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.walkExpr(e)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, sp := range gd.Specs {
				if vs, ok := sp.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.walkExpr(e)
					}
				}
			}
		}
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt)
	}
}

func (w *walker) walkExpr(e ast.Expr) {
	switch e := e.(type) {
	case nil:
	case *ast.CallExpr:
		w.walkCall(e)
	case *ast.FuncLit:
		w.walkLit(e)
	case *ast.BinaryExpr:
		if e.Op == token.ADD && w.isString(e) {
			w.site(e.OpPos, "string concat")
		}
		w.walkExpr(e.X)
		w.walkExpr(e.Y)
	case *ast.UnaryExpr:
		if cl, ok := e.X.(*ast.CompositeLit); ok && e.Op == token.AND {
			w.site(e.Pos(), "&composite")
			w.walkCompositeElts(cl)
			return
		}
		w.walkExpr(e.X)
	case *ast.CompositeLit:
		switch w.typeOf(e).(type) {
		case *types.Slice:
			w.site(e.Pos(), "slice literal")
		case *types.Map:
			w.site(e.Pos(), "map literal")
		}
		w.walkCompositeElts(e)
	case *ast.KeyValueExpr:
		w.walkExpr(e.Value)
	case *ast.ParenExpr:
		w.walkExpr(e.X)
	case *ast.StarExpr:
		w.walkExpr(e.X)
	case *ast.TypeAssertExpr:
		w.walkExpr(e.X)
	case *ast.IndexExpr:
		w.walkExpr(e.X)
		w.walkExpr(e.Index)
	case *ast.IndexListExpr:
		w.walkExpr(e.X)
	case *ast.SliceExpr:
		w.walkExpr(e.X)
		w.walkExpr(e.Low)
		w.walkExpr(e.High)
		w.walkExpr(e.Max)
	case *ast.SelectorExpr:
		w.walkExpr(e.X)
	}
}

func (w *walker) walkCompositeElts(cl *ast.CompositeLit) {
	for _, el := range cl.Elts {
		w.walkExpr(el)
	}
}

// walkLit creates the node for a function literal, links it from the
// enclosing function, and walks its body with an empty guard stack (the
// graph assumes a literal is callable whenever its enclosing function runs;
// enclosing guards gate only the parent→literal edge).
func (w *walker) walkLit(lit *ast.FuncLit) {
	*w.nlits++
	n := &Node{
		Lit: lit, Pkg: w.pkg, Pos: lit.Pos(),
		Name: fmt.Sprintf("%s.func%d", w.top.Name, *w.nlits),
	}
	w.b.g.nodes = append(w.b.g.nodes, n)
	w.b.litNodes[lit] = n
	w.node.Edges = append(w.node.Edges, Edge{To: n, Pos: lit.Pos(), Gated: w.gated()})
	w.site(lit.Pos(), "closure")
	child := &walker{b: w.b, pkg: w.pkg, node: n, top: w.top, nlits: w.nlits}
	child.walkBlock(lit.Body.List)
}

func (w *walker) walkCall(call *ast.CallExpr) {
	if call == nil {
		return
	}
	fun := ast.Unparen(call.Fun)
	// Generic instantiation: step through the index expression to the
	// underlying function.
	switch f := fun.(type) {
	case *ast.IndexExpr:
		if _, isFn := w.typeOf(f.X).(*types.Signature); isFn {
			fun = ast.Unparen(f.X)
		}
	case *ast.IndexListExpr:
		if _, isFn := w.typeOf(f.X).(*types.Signature); isFn {
			fun = ast.Unparen(f.X)
		}
	}

	// Type conversion, not a call.
	if tv, ok := w.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && stringSliceConversion(tv.Type, w.typeOf(call.Args[0])) {
			w.site(call.Pos(), "string conversion")
		}
		for _, a := range call.Args {
			w.walkExpr(a)
		}
		return
	}

	var callee *types.Func
	var recvExpr ast.Expr
	switch f := fun.(type) {
	case *ast.Ident:
		switch obj := w.pkg.Info.Uses[f].(type) {
		case *types.Builtin:
			switch obj.Name() {
			case "make":
				w.site(call.Pos(), "make")
			case "new":
				w.site(call.Pos(), "new")
			case "append":
				w.site(call.Pos(), "append")
			}
			for _, a := range call.Args {
				w.walkExpr(a)
			}
			return
		case *types.Func:
			callee = obj
		}
	case *ast.SelectorExpr:
		if sel, ok := w.pkg.Info.Selections[f]; ok {
			callee, _ = sel.Obj().(*types.Func)
			recvExpr = f.X
		} else if obj, ok := w.pkg.Info.Uses[f.Sel].(*types.Func); ok {
			callee = obj // qualified pkg.Func
		}
		w.walkExpr(f.X)
	case *ast.FuncLit:
		// Immediately-invoked literal: walkLit links and walks it.
		w.walkLit(f)
	default:
		w.walkExpr(fun)
	}

	if callee != nil {
		w.recordCall(call, callee, recvExpr)
	}
	for _, a := range call.Args {
		w.walkExpr(a)
	}
	if callee != nil {
		w.checkClosureRoots(call, callee)
		w.checkBoxing(call, callee)
	}
}

// recordCall adds edges (resolving interface dispatch to in-module
// implementors) and tracked-observer calls for a resolved static callee.
func (w *walker) recordCall(call *ast.CallExpr, callee *types.Func, recvExpr ast.Expr) {
	gated := w.gated()
	sig, _ := callee.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if iface, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
			for _, impl := range w.b.methodIndex.implementors(iface, callee.Name()) {
				if to := w.b.g.byFunc[impl]; to != nil {
					w.node.Edges = append(w.node.Edges, Edge{To: to, Pos: call.Pos(), Gated: gated})
				}
			}
		} else if to := w.b.g.byFunc[callee]; to != nil {
			w.node.Edges = append(w.node.Edges, Edge{To: to, Pos: call.Pos(), Gated: gated})
		}
	} else if to := w.b.g.byFunc[callee]; to != nil {
		w.node.Edges = append(w.node.Edges, Edge{To: to, Pos: call.Pos(), Gated: gated})
	}

	if recvExpr == nil {
		return
	}
	pkgSuffix, typeName := w.trackedType(w.typeOf(recvExpr))
	if pkgSuffix == "" {
		return
	}
	recv := types.ExprString(recvExpr)
	w.node.Tracked = append(w.node.Tracked, TrackedCall{
		Pos: call.Pos(), PkgSuffix: pkgSuffix, TypeName: typeName,
		Method: callee.Name(), Recv: recv,
		Gated: gated, GatedOnRecv: w.guardedExact(recv),
	})
}

// trackedType reports the (package suffix, type name) of t when it is a
// tracked observer type per Config.TrackedTypes, after stripping one
// pointer level.
func (w *walker) trackedType(t types.Type) (pkgSuffix, typeName string) {
	if t == nil {
		return "", ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", ""
	}
	path, name := named.Obj().Pkg().Path(), named.Obj().Name()
	for suffix, names := range w.b.cfg.TrackedTypes {
		if !pathMatches(path, suffix) {
			continue
		}
		for _, n := range names {
			if n == name {
				return suffix, name
			}
		}
	}
	return "", ""
}

// checkClosureRoots roots function-valued arguments of configured engine
// entry points (the per-trial closures the engines call through func
// values the graph cannot follow).
func (w *walker) checkClosureRoots(call *ast.CallExpr, callee *types.Func) {
	if !w.b.matchesClosureRoot(callee) {
		return
	}
	for _, a := range call.Args {
		switch a := ast.Unparen(a).(type) {
		case *ast.FuncLit:
			if n := w.b.litNodes[a]; n != nil {
				w.b.closureRoots = append(w.b.closureRoots, n)
			}
		case *ast.Ident:
			if fn, ok := w.pkg.Info.Uses[a].(*types.Func); ok {
				if n := w.b.g.byFunc[fn]; n != nil {
					w.b.closureRoots = append(w.b.closureRoots, n)
				}
			}
		case *ast.SelectorExpr:
			if fn, ok := w.pkg.Info.Uses[a.Sel].(*types.Func); ok {
				if n := w.b.g.byFunc[fn]; n != nil {
					w.b.closureRoots = append(w.b.closureRoots, n)
				}
			}
		}
	}
}

// rootTypedLiterals roots every function literal whose type is identical
// to a function-typed parameter of a configured closure root (mc.BatchFn
// for mc.Run), in node order. Call-site rooting alone misses a literal that
// reaches the engine through a struct field or a variable.
func (b *builder) rootTypedLiterals() {
	var params []types.Type
	for _, spec := range b.cfg.ClosureRoots {
		for _, n := range b.g.Lookup(spec) {
			sig := n.Fn.Type().(*types.Signature)
			for i := 0; i < sig.Params().Len(); i++ {
				if t, ok := sig.Params().At(i).Type().Underlying().(*types.Signature); ok {
					params = append(params, t)
				}
			}
		}
	}
	if len(params) == 0 {
		return
	}
	for _, n := range b.g.nodes {
		if n.Lit == nil {
			continue
		}
		lt := n.Pkg.Info.TypeOf(n.Lit)
		for _, t := range params {
			if lt != nil && types.Identical(lt, t) {
				b.closureRoots = append(b.closureRoots, n)
				break
			}
		}
	}
}

func (b *builder) matchesClosureRoot(callee *types.Func) bool {
	for _, spec := range b.cfg.ClosureRoots {
		p, recv, fn, ok := parseSpec(spec)
		if !ok || fn != callee.Name() || recv != recvTypeName(callee) {
			continue
		}
		if callee.Pkg() != nil && pathMatches(callee.Pkg().Path(), p) {
			return true
		}
	}
	return false
}

// checkBoxing records interface-boxing sites: a concrete non-pointer value
// passed where the parameter type is an interface heap-allocates the boxed
// copy. Pointer(-shaped) values and nil do not.
func (w *walker) checkBoxing(call *ast.CallExpr, callee *types.Func) {
	sig, ok := callee.Type().(*types.Signature)
	if !ok || call.Ellipsis.IsValid() {
		return
	}
	params := sig.Params()
	for i, a := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			st, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = st.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := w.typeOf(a)
		if at == nil || boxingFree(at) {
			continue
		}
		w.site(a.Pos(), "interface boxing")
	}
}

// boxingFree reports types whose conversion to interface does not allocate:
// pointers, interfaces, funcs, chans, maps, unsafe pointers, and nil.
func boxingFree(t types.Type) bool {
	if b, ok := t.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return true
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

func (w *walker) site(pos token.Pos, what string) {
	w.node.Allocs = append(w.node.Allocs, AllocSite{Pos: pos, What: what, Gated: w.gated()})
}

func (w *walker) typeOf(e ast.Expr) types.Type {
	if e == nil {
		return nil
	}
	if tv, ok := w.pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func (w *walker) isString(e ast.Expr) bool {
	t := w.typeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// nonNil returns the printed observer-class expressions proven non-nil when
// cond evaluates to `when`: `x != nil && y != nil` (when=true) yields both;
// `x == nil || y == nil` (when=false, i.e. the else branch or the block
// after an early return) likewise.
func (w *walker) nonNil(cond ast.Expr, when bool) []string {
	switch c := cond.(type) {
	case *ast.ParenExpr:
		return w.nonNil(c.X, when)
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			return w.nonNil(c.X, !when)
		}
	case *ast.BinaryExpr:
		switch {
		case (c.Op == token.LAND && when) || (c.Op == token.LOR && !when):
			return append(w.nonNil(c.X, when), w.nonNil(c.Y, when)...)
		case (c.Op == token.NEQ && when) || (c.Op == token.EQL && !when):
			if x := w.nilComparand(c); x != nil && w.observerClass(x) {
				return []string{types.ExprString(x)}
			}
		}
	}
	return nil
}

// nilComparand returns the non-nil operand of a `x OP nil` comparison.
func (w *walker) nilComparand(c *ast.BinaryExpr) ast.Expr {
	if tv, ok := w.pkg.Info.Types[c.Y]; ok && tv.IsNil() {
		return c.X
	}
	if tv, ok := w.pkg.Info.Types[c.X]; ok && tv.IsNil() {
		return c.Y
	}
	return nil
}

// observerClass reports whether e's type is one whose nil guard gates a
// cold path: an observer-package named type (possibly behind a pointer or
// slice), a func value, or an error.
func (w *walker) observerClass(e ast.Expr) bool {
	t := w.typeOf(e)
	if t == nil {
		return false
	}
	if types.Identical(t, types.Universe.Lookup("error").Type()) {
		return true
	}
strip:
	for {
		switch u := t.Underlying().(type) {
		case *types.Signature:
			return true
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		default:
			break strip
		}
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	path := named.Obj().Pkg().Path()
	for _, suffix := range w.b.cfg.ObserverPkgs {
		if pathMatches(path, suffix) {
			return true
		}
	}
	return false
}

// terminates reports whether every path through the block ends control
// flow (return, branch, panic, os.Exit-style call is not modeled — return
// and branch cover the guard idiom).
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	return stmtTerminates(b.List[len(b.List)-1])
}

func stmtTerminates(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(s)
	}
	return false
}

// stringSliceConversion reports string <-> []byte/[]rune conversions, which
// copy and allocate.
func stringSliceConversion(to, from types.Type) bool {
	if from == nil {
		return false
	}
	return (isStringT(to) && isByteRuneSlice(from)) || (isByteRuneSlice(to) && isStringT(from))
}

func isStringT(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	e, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (e.Kind() == types.Uint8 || e.Kind() == types.Int32)
}
