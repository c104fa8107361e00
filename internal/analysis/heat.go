package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Heat analysis: which functions run once (or more) per simulated event?
// The DES kernel executes millions of events per run, so an allocation
// inside a hot function multiplies into the Fig5 793k-allocs/op bill. The
// hot set is seeded at the kernel event loop and the per-event data-plane
// primitives (hotRootTable, plus //iocheck:hot markers) and propagated
// over the call graph, with three prunings that keep it honest:
//
//   - Interface dispatch is a heat boundary. CHA would flood heat through
//     Action.Handle and sim.Tracer into every implementer; instead an
//     implementation that really runs per event opts in with
//     //iocheck:hot (e.g. the trace kernel's Event method).
//   - Cold callees stop propagation: //iocheck:cold markers (pool-miss
//     slow paths, pressure-degradation paths), formatting methods
//     (String/Error/GoString/Format), and dump/shutdown/close/invalidate
//     name shapes.
//   - Cold blocks stop propagation: call sites inside error-handling
//     (`err != nil`), failed-comma-ok (`!ok`), or panic-reaching CFG
//     blocks are once-per-failure, not once-per-event.
//
// Launcher/callback function literals are not followed (walkOwnCode skips
// them); the launched bodies are hot only if they call hot primitives,
// which they reach as roots in their own right.

const (
	hotMarker  = "iocheck:hot"
	coldMarker = "iocheck:cold"
)

// hotRootTable seeds the heat fixpoint: per package-path suffix, the
// functions that execute at least once per simulated event (the engine
// loop, the park/unpark wait machinery, and the per-step data-plane
// entry points the paper's pipelines hammer).
var hotRootTable = map[string][]string{
	"internal/sim": {
		"(*Engine).Step", "(*Engine).schedule",
		"(*Proc).park", "(*Proc).unpark", "(*Proc).wake", "(*Proc).Sleep",
		"(*Proc).SleepWhile", "(*Proc).tick", "(*getTimer).expire",
		"(*Queue).Get", "(*Queue).GetTimeout", "(*Queue).GetPoll", "(*Queue).TryGet",
		"(*Queue).Put", "(*Queue).TryPut",
		"(*Event).Wait", "(*Event).WaitTimeout", "(*Event).Fire",
		"(*Resource).Acquire", "(*Resource).AcquireThen", "(*Resource).TryAcquire",
		"(*Resource).Release",
	},
	"internal/datatap": {
		"(*Writer).Write", "(*Writer).WriteTraced", "(*Writer).writeALO",
		"(*Reader).Fetch", "(*Reader).FetchTimeout", "(*Reader).FetchPoll", "(*Reader).pull",
		"(*Channel).redeliverDue", "(*Channel).reemit", "(*Channel).RedeliverLost",
		"(*Subscriber).step", "(*SubHub).Publish",
	},
	"internal/evpath": {
		"(*bridge).forward", "(*bridge).drain", "(*bridge).transferred",
		"(*Stone).handle", "(*Stone).fanOut",
	},
	"internal/bp": {
		"(*Writer).Append", "encodePG",
	},
	"internal/cluster": {
		"(*Machine).Send", "(*Machine).RDMAGet", "(*Transfer).step",
	},
}

// coldNameExact / coldNamePrefixes match functions that are off the
// per-event path by shape: formatting, teardown, diagnostics.
var coldNameExact = map[string]bool{
	"String": true, "Error": true, "GoString": true, "Format": true,
}

var coldNamePrefixes = []string{
	"Dump", "dump", "Shutdown", "shutdown", "Close", "close",
	"Invalidate", "invalidate",
}

// isHotRoot reports whether n seeds the heat fixpoint.
func (prog *Program) isHotRoot(n *FuncNode) bool {
	if hasDocMarker(n.Decl.Doc, hotMarker) {
		return true
	}
	name := n.String()
	for suffix, names := range hotRootTable {
		if !strings.HasSuffix(n.Pkg.PkgPath, suffix) {
			continue
		}
		for _, want := range names {
			if name == want {
				return true
			}
		}
	}
	return false
}

// isColdFunc reports whether n must not receive (or forward) heat.
func isColdFunc(n *FuncNode) bool {
	if hasDocMarker(n.Decl.Doc, coldMarker) {
		return true
	}
	name := n.Obj.Name()
	if coldNameExact[name] {
		return true
	}
	for _, p := range coldNamePrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// ensureHeat runs the heat propagation once per Program (both rules call
// it; the second call is a no-op). Deterministic: roots are discovered in
// prog.nodes order and the BFS queue preserves it, so hotVia witnesses
// are stable across runs.
func (prog *Program) ensureHeat() {
	if prog.heatDone {
		return
	}
	prog.heatDone = true
	var queue []*FuncNode
	for _, n := range prog.nodes {
		if prog.isHotRoot(n) && !isColdFunc(n) {
			n.Hot = true
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		cold := n.coldBlocks()
		for _, site := range n.Sites {
			if cold.contains(site.Call.Pos()) {
				continue
			}
			callee := staticCallee(n.Pkg, site)
			if callee == nil || callee.Hot || isColdFunc(callee) {
				continue
			}
			callee.Hot = true
			callee.hotVia = n
			queue = append(queue, callee)
		}
	}
}

// staticCallee returns the unique statically-resolved target of the call
// site, or nil for interface dispatch (a heat boundary — see the package
// comment above) and unresolved function values.
func staticCallee(pkg *Package, site *CallSite) *FuncNode {
	if len(site.Callees) != 1 {
		return nil
	}
	if sel, ok := ast.Unparen(site.Call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal && types.IsInterface(s.Recv()) {
			return nil
		}
	}
	return site.Callees[0]
}

// HotChain renders the witness path from a hot root to this function,
// e.g. "(*Writer).WriteTraced → (*Recorder).Begin".
func (n *FuncNode) HotChain() string {
	var parts []string
	for cur := n; cur != nil && len(parts) < 10; cur = cur.hotVia {
		parts = append(parts, cur.String())
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, " → ")
}

// posSpan is a half-open-ish source interval; contains uses the closed
// [Pos, End] range so every token of a covered statement (including
// nested function-literal bodies) tests inside.
type posSpan struct {
	pos, end token.Pos
}

// coldSet is the union of a function's cold-block source spans.
type coldSet []posSpan

func (cs coldSet) contains(p token.Pos) bool {
	for _, s := range cs {
		if s.pos <= p && p <= s.end {
			return true
		}
	}
	return false
}

// coldBlocks computes (once, cached) the source spans of n's cold CFG
// blocks: blocks only reachable through a cold edge — the taken branch of
// an `err != nil` / `x == nil` test or the failed branch of a bare
// comma-ok bool — and blocks that execute a panic call. Those run
// once-per-failure, so neither heat nor hotalloc findings flow there.
func (n *FuncNode) coldBlocks() coldSet {
	if n.coldDone {
		return n.coldSpans
	}
	n.coldDone = true
	cfg := BuildCFG(n.Decl)
	warm := make(map[*Block]bool)
	queue := []*Block{cfg.Entry}
	warm[cfg.Entry] = true
	for len(queue) > 0 {
		blk := queue[0]
		queue = queue[1:]
		if blockPanics(blk) {
			continue // a panicking block's successors are its own problem
		}
		for _, e := range blk.Succs {
			if coldEdge(n.Pkg, e) || warm[e.To] {
				continue
			}
			warm[e.To] = true
			queue = append(queue, e.To)
		}
	}
	for _, blk := range cfg.Blocks {
		if warm[blk] && !blockPanics(blk) {
			continue
		}
		for _, node := range blk.Nodes {
			n.coldSpans = append(n.coldSpans, posSpan{node.Pos(), node.End()})
		}
	}
	return n.coldSpans
}

// blockPanics reports whether the block executes a direct panic call.
func blockPanics(blk *Block) bool {
	for _, node := range blk.Nodes {
		if es, ok := node.(*ast.ExprStmt); ok && isPanicCall(es.X) {
			return true
		}
	}
	return false
}

// coldEdge classifies a CFG edge as entering failure handling. The
// recognized shapes are the repo's conventions: `err != nil` (error
// operand), `x == nil` guards, and the failed branch of a bare bool
// named ok/found (comma-ok tests). Anything else is warm — cold-pruning
// must under-approximate so findings are not silently dropped.
func coldEdge(pkg *Package, e *Edge) bool {
	if e.Cond == nil {
		return false
	}
	switch c := ast.Unparen(e.Cond).(type) {
	case *ast.BinaryExpr:
		if !isNilCompare(c) {
			return false
		}
		// Only error-typed nil tests are failure handling: `err != nil`'s
		// true branch (and `err == nil`'s false branch) is cold. A plain
		// `x == nil` guard is often the steady state (lazy init of a nil
		// map, nil-receiver guards) and stays warm.
		operand := c.X
		if isNilIdent(pkg.Info, operand) {
			operand = c.Y
		}
		if !isErrorExpr(pkg.Info, operand) {
			return false
		}
		if c.Op == token.NEQ {
			return e.Branch
		}
		return !e.Branch
	case *ast.Ident:
		if c.Name != "ok" && c.Name != "found" {
			return false
		}
		if tv, okT := pkg.Info.Types[c]; !okT || tv.Type == nil || !isBoolType(tv.Type) {
			return false
		}
		return !e.Branch
	}
	return false
}

func isErrorExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

func isBoolType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsBoolean != 0
}
