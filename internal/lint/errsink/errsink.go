// Package errsink defines the errsink analyzer: ignored error results on
// the artifact-writing paths. The byte-identity contract (ledgers merge
// and resume to identical bytes; events and bandwidth profiles validate
// against their schemas) only holds if a failed write fails the run — an
// error dropped on the floor turns a full disk or closed pipe into a
// silently-truncated artifact that downstream checkers then "validate".
//
// A call is flagged when its callee lives in a sink package
// (internal/jsonl, internal/ledger, internal/events, internal/bwprofile,
// tools/internal/cli), its signature returns an error, and the caller
// discards it: a bare expression statement, a deferred call, or an
// assignment that sends every error result to blank. internal/jsonl is a
// sink for the reading side of the same contract: a dropped parse error lets
// corrupt input through as if it had validated.
package errsink

import (
	"go/ast"
	"go/types"
	"strings"

	"quest/internal/lint/analysis"
)

// sinkPkgs are the package-path suffixes whose error results must not be
// dropped.
var sinkPkgs = []string{
	"internal/jsonl", // the reader every artifact stream parses through
	"internal/ledger",
	"internal/events",
	"internal/bwprofile",
	"tools/internal/cli",
}

// Analyzer flags discarded error results from artifact-writing packages.
var Analyzer = &analysis.Analyzer{
	Name: "errsink",
	Doc: "error result from a jsonl/ledger/events/bwprofile/cli call discarded; " +
		"a dropped write error breaks the byte-identity contract",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				if call, ok := s.X.(*ast.CallExpr); ok {
					check(pass, call, nil, "")
				}
			case *ast.DeferStmt:
				check(pass, s.Call, nil, "deferred ")
			case *ast.AssignStmt:
				if len(s.Rhs) == 1 {
					if call, ok := s.Rhs[0].(*ast.CallExpr); ok {
						check(pass, call, s.Lhs, "")
					}
				}
			}
			return true
		})
	}
	return nil
}

// check reports when call's callee is a sink-package function returning an
// error and lhs (nil for statement/defer positions) discards every error
// result.
func check(pass *analysis.Pass, call *ast.CallExpr, lhs []ast.Expr, how string) {
	callee := staticCallee(pass, call)
	if callee == nil || callee.Pkg() == nil || !isSinkPkg(callee.Pkg().Path()) {
		return
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return
	}
	errIdx := errorResults(sig)
	if len(errIdx) == 0 {
		return
	}
	if lhs != nil {
		// Tuple assignment: flag only when every error result goes to blank.
		if len(lhs) != sig.Results().Len() {
			return
		}
		for _, i := range errIdx {
			if id, ok := lhs[i].(*ast.Ident); !ok || id.Name != "_" {
				return
			}
		}
	}
	pass.Reportf(call.Pos(), "%serror result of %s.%s discarded; check it (writer errors must fail the run)",
		how, shortPkg(callee.Pkg().Path()), callee.Name())
}

func errorResults(sig *types.Signature) []int {
	var idx []int
	errType := types.Universe.Lookup("error").Type()
	for i := 0; i < sig.Results().Len(); i++ {
		if types.Identical(sig.Results().At(i).Type(), errType) {
			idx = append(idx, i)
		}
	}
	return idx
}

func isSinkPkg(path string) bool {
	for _, s := range sinkPkgs {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

func shortPkg(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// staticCallee resolves the called *types.Func, or nil for builtins,
// conversions, and dynamic calls.
func staticCallee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	if tv, ok := pass.Pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return nil
	}
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.Pkg.Info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := pass.Pkg.Info.Selections[f]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := pass.Pkg.Info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}
