// Package callgraph builds a whole-module static call graph over the
// loader's type information, so the questvet analyzers can reason
// *interprocedurally* about the repository's hot-path contract: the pinned
// allocation budgets (mc.Run ≤ 8 allocs/call, the decoder's exact-match
// path ≤ 6 allocs/op) and the nil-gated-observability invariant hold along
// every call chain rooted at a hot entry point, not just inside the function
// that happens to contain the call. Like the rest of internal/lint it is
// stdlib-only — no golang.org/x/tools — and deliberately scoped to what the
// analyzers need:
//
//   - Static call edges: direct calls to module functions and methods,
//     resolved through go/types.
//   - Interface dispatch bounded by the module: a call through an interface
//     method adds an edge to every in-module concrete type that implements
//     the interface. (The simulator never receives implementations from
//     outside the module, so this bound is exact for the hot paths.)
//   - Function literals: a literal defined inside F is assumed callable from
//     F (an over-approximation that covers the worker-goroutine and observer
//     closures the engine is built from). Literals passed at a call site
//     named by Config.ClosureRoots — the Monte-Carlo engine's trial-function
//     parameter — additionally become hot roots themselves, and so does
//     every literal whose type is that parameter's function type, wherever
//     it is built: a trial closure stored in a struct field or variable on
//     its way to the engine is still called once per lane.
//   - Gating: an edge, allocation site, or tracked observer call that is
//     dominated by a nil guard on an observer-class expression (a tracer,
//     collector, sampler, recorder, metrics registry, a func-typed hook, or
//     an error) is marked Gated. The hot-path pins are defined with
//     observers off and errors absent, so reachability for budget auditing
//     follows only ungated edges; what hides behind `if tr != nil` is the
//     observers-on path the pins deliberately exclude.
//
// Soundness envelope: calls through plain func-typed values (not literals,
// not named functions) produce no edge — the repository's hot paths receive
// such values only at the engine boundary, where Config.ClosureRoots roots
// the closures by call site and by type. Dynamic dispatch outside the
// module (stdlib callbacks) is likewise invisible. The graph
// over-approximates everywhere else, which is the right failure mode for a
// lint: a reported path exists syntactically even if runtime configuration
// never takes it, and the //quest:allow + budget-file machinery absorbs the
// deliberate cases.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"quest/internal/lint/loader"
)

// HotDirective marks a function declaration as a hot-path root in source:
// a comment line `//quest:hotpath` in the doc comment of a FuncDecl. The
// built-in root table in internal/lint/questvet covers the real entry
// points; the directive exists for testdata fixtures and for new hot entry
// points that want the contract before they earn a budget-file row.
const HotDirective = "quest:hotpath"

// Config selects the roots and the observer vocabulary of a build.
type Config struct {
	// Roots are function specs (see Lookup) naming hot entry points:
	// "internal/mce.(*MCE).StepCycle", "internal/mc.Run". Package paths
	// are suffix-matched so the same spec works on the real module and on
	// analysistest fixture modules.
	Roots []string
	// ClosureRoots are function specs of callees whose function-literal (or
	// named-function) arguments are hot roots: the trial closures handed to
	// mc.Run run once per lane of trials and carry the per-trial hot path
	// even though the engine calls them through a func value the graph
	// cannot see. Every literal whose type is identical to one of the
	// callee's function-typed parameters is rooted too, so a closure that
	// reaches the engine through a field or variable is not missed.
	ClosureRoots []string
	// ObserverPkgs are package-path suffixes whose named types gate hot
	// paths ("internal/tracing", "internal/metrics", ...). A nil guard on an
	// expression of (a pointer/slice/map of) such a type — or of func or
	// error type — marks the guarded region Gated.
	ObserverPkgs []string
	// TrackedTypes maps observer package suffixes to the type names whose
	// method calls are recorded per node (for gateflow): e.g.
	// "internal/tracing" -> {"Tracer"}.
	TrackedTypes map[string][]string
}

// A Node is one function in the graph: a declared function or method
// (Fn != nil) or a function literal (Lit != nil).
type Node struct {
	Fn  *types.Func
	Lit *ast.FuncLit
	Pkg *loader.Package
	Pos token.Pos
	// Name is the canonical spec-style name: "quest/internal/mc.Run",
	// "quest/internal/mce.(*MCE).StepCycle"; literals append ".funcN" to
	// their enclosing function's name in syntax order.
	Name string
	// Edges are the outgoing calls, in syntax order.
	Edges []Edge
	// Allocs are the allocation sites in this function's body, in syntax
	// order.
	Allocs []AllocSite
	// Tracked are the calls to tracked observer-type methods in this
	// function's body, in syntax order.
	Tracked []TrackedCall
	// root records why this node is a hot root ("" if it is not one).
	root string
}

// An Edge is one static call.
type Edge struct {
	To  *Node
	Pos token.Pos
	// Gated marks calls dominated by an observer nil guard: the target runs
	// only on the observers-on (or error) path the hot-path pins exclude.
	Gated bool
}

// An AllocSite is one syntactic allocation in a function body.
type AllocSite struct {
	Pos token.Pos
	// What names the allocation kind: "make", "new", "append", "&composite",
	// "slice literal", "map literal", "closure", "go", "string concat",
	// "string conversion", "interface boxing".
	What  string
	Gated bool
}

// A TrackedCall is one call to a method of a tracked observer type.
type TrackedCall struct {
	Pos token.Pos
	// PkgSuffix/TypeName/Method identify the callee: "internal/tracing",
	// "Tracer", "Span".
	PkgSuffix, TypeName, Method string
	// Recv is the printed receiver expression ("m.tr", "ctx.Heat").
	Recv string
	// Gated: dominated by some observer nil guard. GatedOnRecv: dominated by
	// a nil guard naming exactly Recv — the form the nogate invariant
	// requires, because only it proves the receiver itself is non-nil.
	Gated, GatedOnRecv bool
}

// Graph is the built call graph with hot-path reachability.
type Graph struct {
	Fset   *token.FileSet
	Module string

	nodes  []*Node
	byFunc map[*types.Func]*Node
	roots  []*Node
	// pred maps each hot node to its predecessor on a shortest root path
	// (roots map to themselves).
	pred       map[*Node]*Node
	unresolved []string
}

// Build constructs the graph over pkgs (typically prog.LoadModule()).
func Build(prog *loader.Program, pkgs []*loader.Package, cfg Config) *Graph {
	g := &Graph{
		Fset:   prog.Fset,
		Module: prog.Module,
		byFunc: make(map[*types.Func]*Node),
	}
	b := &builder{
		g: g, cfg: &cfg,
		methodIndex: buildMethodIndex(pkgs),
		litNodes:    make(map[*ast.FuncLit]*Node),
	}

	// Pass 1: a node per function declaration, so forward references
	// resolve regardless of package order.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &Node{Fn: fn, Pkg: pkg, Pos: fd.Pos(), Name: funcName(fn)}
				if hasHotDirective(fd) {
					n.root = "//" + HotDirective
				}
				g.nodes = append(g.nodes, n)
				g.byFunc[fn] = n
			}
		}
	}

	// Pass 2: walk every body — edges, literals, allocation sites, tracked
	// calls, closure roots.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				node := g.byFunc[fn]
				if node == nil {
					continue
				}
				nlits := 0
				w := &walker{b: b, pkg: pkg, node: node, top: node, nlits: &nlits}
				w.walkBlock(fd.Body.List)
			}
		}
	}

	// Resolve configured roots, remembering specs that match nothing so the
	// driver can refuse a silently-disabled audit.
	seen := map[*Node]bool{}
	addRoot := func(n *Node, why string) {
		if !seen[n] {
			seen[n] = true
			if n.root == "" {
				n.root = why
			}
			g.roots = append(g.roots, n)
		}
	}
	for _, spec := range cfg.Roots {
		ns := g.Lookup(spec)
		if len(ns) == 0 {
			g.unresolved = append(g.unresolved, spec)
			continue
		}
		for _, n := range ns {
			addRoot(n, spec)
		}
	}
	for _, n := range g.nodes {
		if n.root != "" && !seen[n] {
			addRoot(n, n.root)
		}
	}
	b.rootTypedLiterals()
	for _, n := range b.closureRoots {
		addRoot(n, "trial closure")
	}

	// Hot reachability: BFS over ungated edges from every root.
	g.pred = bfs(g.roots, false)
	return g
}

// builder carries the shared per-build state.
type builder struct {
	g            *Graph
	cfg          *Config
	methodIndex  *methodIndex
	litNodes     map[*ast.FuncLit]*Node
	closureRoots []*Node
}

// Nodes returns every node, in package/file/syntax order.
func (g *Graph) Nodes() []*Node { return g.nodes }

// NodesIn returns the nodes declared in pkg, in syntax order.
func (g *Graph) NodesIn(pkg *loader.Package) []*Node {
	var out []*Node
	for _, n := range g.nodes {
		if n.Pkg == pkg {
			out = append(out, n)
		}
	}
	return out
}

// Roots returns the resolved hot roots in resolution order.
func (g *Graph) Roots() []*Node { return g.roots }

// RootReason reports why n is a hot root ("" when it is not one).
func (g *Graph) RootReason(n *Node) string { return n.root }

// UnresolvedRoots lists Config.Roots specs that matched no function — a
// renamed entry point must fail loudly, or the audit silently turns off.
func (g *Graph) UnresolvedRoots() []string { return g.unresolved }

// Hot reports whether n is reachable from a hot root over ungated edges.
func (g *Graph) Hot(n *Node) bool { _, ok := g.pred[n]; return ok }

// HotPath returns the call chain from a root to n (inclusive), nil when n
// is not hot.
func (g *Graph) HotPath(n *Node) []*Node {
	if !g.Hot(n) {
		return nil
	}
	var rev []*Node
	for cur := n; ; cur = g.pred[cur] {
		rev = append(rev, cur)
		if g.pred[cur] == cur {
			break
		}
	}
	out := make([]*Node, len(rev))
	for i, n := range rev {
		out[len(rev)-1-i] = n
	}
	return out
}

// ReachableFrom returns every node reachable from roots over ungated edges
// (roots included), in deterministic BFS order.
func (g *Graph) ReachableFrom(roots ...*Node) []*Node {
	pred := bfs(roots, false)
	var out []*Node
	for _, n := range g.nodes { // node order, not map order
		if _, ok := pred[n]; ok {
			out = append(out, n)
		}
	}
	return out
}

// bfs computes predecessor links from roots; gated edges are followed only
// when followGated is set.
func bfs(roots []*Node, followGated bool) map[*Node]*Node {
	pred := make(map[*Node]*Node)
	queue := make([]*Node, 0, len(roots))
	for _, r := range roots {
		if _, ok := pred[r]; !ok {
			pred[r] = r
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Edges {
			if e.Gated && !followGated {
				continue
			}
			if _, ok := pred[e.To]; !ok {
				pred[e.To] = n
				queue = append(queue, e.To)
			}
		}
	}
	return pred
}

// Lookup resolves a function spec to nodes. Specs name a package path (or a
// path suffix) and a function: "internal/mc.Run",
// "quest/internal/mce.(*MCE).StepCycle", "internal/decoder.Lattice.Index".
// Pointerness of the receiver is ignored when matching.
func (g *Graph) Lookup(spec string) []*Node {
	pkgPath, recv, name, ok := parseSpec(spec)
	if !ok {
		return nil
	}
	var out []*Node
	for _, n := range g.nodes {
		if n.Fn == nil || n.Fn.Name() != name {
			continue
		}
		p := n.Fn.Pkg()
		if p == nil || !pathMatches(p.Path(), pkgPath) {
			continue
		}
		if recvTypeName(n.Fn) != recv {
			continue
		}
		out = append(out, n)
	}
	return out
}

// DisplayName renders a node name for diagnostics: the module prefix is
// trimmed so messages read "internal/mc.Run" regardless of module name.
func (g *Graph) DisplayName(n *Node) string {
	return strings.TrimPrefix(strings.TrimPrefix(n.Name, g.Module), "/")
}

// PathString renders a hot path as "a → b → c" with display names.
func (g *Graph) PathString(path []*Node) string {
	parts := make([]string, len(path))
	for i, n := range path {
		parts[i] = g.DisplayName(n)
	}
	return strings.Join(parts, " → ")
}

// parseSpec splits "path/pkg.(*T).M" into (path/pkg, T, M). For plain
// functions recv is "".
func parseSpec(spec string) (pkgPath, recv, name string, ok bool) {
	slash := strings.LastIndex(spec, "/")
	tail := spec[slash+1:]
	dot := strings.Index(tail, ".")
	if dot < 0 {
		return "", "", "", false
	}
	pkgPath = spec[:slash+1] + tail[:dot]
	rest := tail[dot+1:]
	if t, ok2 := strings.CutPrefix(rest, "(*"); ok2 {
		tn, m, found := strings.Cut(t, ").")
		if !found {
			return "", "", "", false
		}
		return pkgPath, tn, m, true
	}
	if tn, m, found := strings.Cut(rest, "."); found {
		return pkgPath, tn, m, true
	}
	return pkgPath, "", rest, true
}

func pathMatches(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// recvTypeName returns the name of fn's receiver type (pointer stripped),
// or "" for plain functions.
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch t := t.(type) {
	case *types.Named:
		return t.Obj().Name()
	case *types.Interface:
		return "" // abstract method; not a graph node anyway
	}
	return ""
}

// funcName builds the canonical node name for a declared function.
func funcName(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	if r := recvTypeName(fn); r != "" {
		sig := fn.Type().(*types.Signature)
		if _, ptr := sig.Recv().Type().(*types.Pointer); ptr {
			return fmt.Sprintf("%s.(*%s).%s", pkg, r, fn.Name())
		}
		return fmt.Sprintf("%s.%s.%s", pkg, r, fn.Name())
	}
	return pkg + "." + fn.Name()
}

func hasHotDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == HotDirective {
			return true
		}
	}
	return false
}

// methodIndex supports bounded interface dispatch: every in-module named
// type with methods, and the method set of its pointer type.
type methodIndex struct {
	types []*types.Named
}

func buildMethodIndex(pkgs []*loader.Package) *methodIndex {
	idx := &methodIndex{}
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.NumMethods() == 0 {
				continue
			}
			idx.types = append(idx.types, named)
		}
	}
	return idx
}

// implementors resolves an interface-method call to the concrete in-module
// methods that can satisfy it.
func (idx *methodIndex) implementors(iface *types.Interface, method string) []*types.Func {
	var out []*types.Func
	for _, named := range idx.types {
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Name() == method {
				out = append(out, m)
			}
		}
	}
	return out
}
