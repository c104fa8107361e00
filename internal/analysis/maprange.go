package analysis

import (
	"go/ast"
	"go/types"
)

// MapRange flags `for … range` over a map whose body performs
// order-sensitive side effects: submitting overlay events, sending on the
// machine model, scheduling engine callbacks, firing signals, detaching
// endpoints — or appending to an order-bearing slice that is never sorted.
// Go randomizes map iteration order per run, so any such loop makes the
// event interleaving differ between two runs of the same seed: the exact
// nondeterminism leak the three-seed replay test exists to catch, and the
// classic one in core/datatap/evpath shutdown and tap fan-out paths.
//
// The rule sees the loop body only: a sink reached through a helper the
// body calls is not reported. core's TestKernelScheduleIsDeterministic
// catches that case at run time: it compares the kernel schedule and the
// trace of repeated runs of one seed.
var MapRange = &Analyzer{
	Name:    "maprange",
	Doc:     "forbid order-sensitive side effects inside map iteration; sort keys first",
	Applies: internalPkg,
	Run:     runMapRange,
}

// orderSinks are method names whose call order is observable in the
// simulation: they enqueue events, transfer simulated bytes, schedule
// callbacks, or release parked processes. The set is an in-repo contract
// shared by sim (At, After, Go, Fire, Signal), cluster (Send, Launch),
// evpath (Submit, CloseBridge), and datatap (Write, Put, TryPut, Requeue,
// RemoveWriter).
var orderSinks = map[string]bool{
	"Submit":       true,
	"Send":         true,
	"Write":        true,
	"At":           true,
	"After":        true,
	"Go":           true,
	"Fire":         true,
	"Signal":       true,
	"Put":          true,
	"TryPut":       true,
	"Requeue":      true,
	"RemoveWriter": true,
	"CloseBridge":  true,
	"Launch":       true,
}

func runMapRange(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, fd := range enclosingFuncs(f) {
			body := fd.Body
			ast.Inspect(body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok || !isMapRangeStmt(pass.Pkg.Info, rs) {
					return true
				}
				checkMapRange(pass, body, rs)
				return true
			})
		}
	}
}

// checkMapRange reports the first order-sensitive effect in the body of a
// map-range statement (one diagnostic per loop keeps the output readable).
func checkMapRange(pass *Pass, funcBody *ast.BlockStmt, rs *ast.RangeStmt) {
	info := pass.Pkg.Info
	var reported bool
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if reported {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || !orderSinks[sel.Sel.Name] {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					return true // package function, not one of our method sinks
				}
			}
			reported = true
			pass.Reportf(rs.Pos(),
				"map iteration order is nondeterministic, and the loop body calls %s.%s (order-sensitive side effect); iterate sorted keys instead",
				types.ExprString(sel.X), sel.Sel.Name)
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(info, call) || i >= len(n.Lhs) {
					continue
				}
				target, ok := n.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Uses[target]
				if obj == nil {
					obj = info.Defs[target]
				}
				if obj == nil || obj.Pos() >= rs.Pos() {
					continue // loop-local accumulator; its order dies with the loop
				}
				if sortedInFunc(info, funcBody, obj) {
					continue
				}
				reported = true
				pass.Reportf(rs.Pos(),
					"map iteration order is nondeterministic, and the loop body appends to %q, which is never sorted; sort the slice (or the map keys) before it carries order",
					target.Name)
				return false
			}
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

// isBuiltinAppend reports whether call invokes the append builtin.
func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// sortedInFunc reports whether the function body contains a call into the
// sort or slices packages with obj among the arguments — the "collect keys,
// sort, then iterate" idiom that makes a map-sourced slice deterministic.
func sortedInFunc(info *types.Info, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := info.Uses[pkgID].(*types.PkgName)
		if !ok {
			return true
		}
		if p := pn.Imported().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(a ast.Node) bool {
				if id, ok := a.(*ast.Ident); ok && info.Uses[id] == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}
