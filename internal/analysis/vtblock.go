package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// VTBlock enforces the kernel's one scheduling rule interprocedurally: a
// function that can reach the virtual-time blocking primitive
// ((*Proc).park — everything Sleep, Join, Event.Wait, Resource.Acquire
// and Queue.Get funnel into) must not be called from a context that runs
// in the engine's event loop or whose execution order is nondeterministic:
//
//   - engine callbacks (function literals or method values handed to
//     Engine.At/After/schedule or Schedule.OnCrash) — there is no process
//     to suspend there, only the loop that advances virtual time, and the
//     kernel panics at run time ("parked outside its own process");
//   - functions marked `//iocheck:nonblocking` (the GM dispatch switch
//     and the deposed pump's serve path declare themselves);
//   - map-range bodies — if an iteration can park, wake order follows
//     Go's randomized map order and replay determinism is gone.
//
// Reachability comes from the CHA call graph, so the witness chain in
// each message names the exact path to the primitive. Calls through
// unresolvable function values are assumed non-blocking (documented
// approximation); `//iocheck:blocks` on a declaration seeds the summary
// where the graph cannot see.
var VTBlock = &Analyzer{
	Name:    "vtblock",
	Doc:     "functions reaching a virtual-time block must not run in engine callbacks, iocheck:nonblocking functions, or map-range bodies",
	Applies: internalPkg,
	Run:     runVTBlock,
}

func runVTBlock(pass *Pass) {
	if pass.Prog == nil {
		return
	}
	reported := make(map[token.Pos]bool)
	for _, f := range pass.Pkg.Files {
		for _, fd := range enclosingFuncs(f) {
			if Nonblocking(fd) {
				blockingCalls(pass, fd.Body, reported,
					"%s may block virtual time (%s), but "+fd.Name.Name+" is marked iocheck:nonblocking")
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					checkCallbackArgs(pass, n, reported)
				case *ast.RangeStmt:
					if isMapRangeStmt(pass.Pkg.Info, n) {
						blockingCalls(pass, n.Body, reported,
							"%s may block virtual time (%s) inside map iteration; wake order would follow the randomized map order")
					}
				}
				return true
			})
		}
	}
}

// checkCallbackArgs inspects one call site for engine-callback arguments:
// literals are scanned for blocking calls, function values are resolved
// through the graph.
func checkCallbackArgs(pass *Pass, call *ast.CallExpr, reported map[token.Pos]bool) {
	if _, callback := deferredCallKind(pass.Pkg, call); !callback {
		return
	}
	for _, a := range call.Args {
		if lit, ok := a.(*ast.FuncLit); ok {
			blockingCalls(pass, lit.Body, reported,
				"%s may block virtual time (%s), but this engine callback runs on the engine goroutine and must not park")
			continue
		}
		if !isFuncTyped(pass.Pkg.Info, a) {
			continue
		}
		fn := pass.Prog.FuncValue(pass.Pkg, a)
		if fn == nil || !fn.Blocks || reported[a.Pos()] {
			continue
		}
		reported[a.Pos()] = true
		pass.Reportf(a.Pos(),
			"%s may block virtual time (%s), but is registered as an engine callback and must not park",
			fn.String(), fn.BlockChain())
	}
}

// blockingCalls reports every call in body (own synchronous code only —
// launcher and callback literals are their own contexts) whose callee may
// block. format receives the callee name and its witness chain.
func blockingCalls(pass *Pass, body ast.Node, reported map[token.Pos]bool, format string) {
	walkOwnCode(pass.Pkg, body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, callee := range pass.Prog.Callees(pass.Pkg, call) {
			if !callee.Blocks {
				continue
			}
			if !reported[call.Pos()] {
				reported[call.Pos()] = true
				pass.Reportf(call.Pos(), format, callee.String(), callee.BlockChain())
			}
			break
		}
		return true
	})
}

func isMapRangeStmt(info *types.Info, rs *ast.RangeStmt) bool {
	tv, ok := info.Types[rs.X]
	if !ok {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

func isFuncTyped(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isFunc := tv.Type.Underlying().(*types.Signature)
	return isFunc
}
