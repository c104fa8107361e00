package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// RoundTerm enforces the termination half of the round-lifecycle
// contract: every issued round reaches a terminal state — completed,
// fenced, or timed out — on all paths. Concretely, once a round-path Req
// leaves the issuer (the same send detection as roundflow's issue leg),
// every path to function exit must pass a terminal action: a span/round
// .End() call (the completed/timeout/fenced paths all funnel through
// one) or a callee carrying the Term summary (markSuspect, depose, …).
// A path that returns in an error branch with the round still open is
// exactly the "dropped round" bug class: the caller waits out its full
// deadline for a response nobody will send, and the flight recorder
// loses the round's outcome.
//
// This is a forward MAY analysis (a round open on any incoming path is
// open after the merge), checked at the Exit block — after the Exit
// block's nodes, which include the function's deferred statements, so
// the `defer sp.End()` idiom terminates every path at once.
//
// Approximation: a terminal action clears every open round in the
// function, not just the one it belongs to — the obligation is
// "some terminal action on every path after a send", which is the
// convention the GM call loop follows (one span per attempt, ended
// before the next attempt or the final return).
var RoundTerm = &Analyzer{
	Name: "roundterm",
	Doc: "every issued round-path Req must reach a terminal state (completed, fenced, or " +
		"timed out) on all paths to exit; no round may be dropped in an error branch",
	Applies: internalPkg,
	Run:     runRoundTerm,
}

func runRoundTerm(pass *Pass) {
	if pass.Prog == nil {
		return
	}
	pass.Prog.ensureRounds()
	for _, n := range pass.Prog.nodes {
		if n.Pkg != pass.Pkg {
			continue
		}
		checkRoundTerm(pass, n)
	}
}

func checkRoundTerm(pass *Pass, n *FuncNode) {
	if !tracksRounds(pass, n) {
		return
	}
	prob := &roundTermProblem{pass: pass, fn: n, aliases: hdrAliases(pass.Pkg.Info, n.Decl.Body)}
	cfg := BuildCFG(n.Decl)
	facts := Forward(cfg, prob)
	f := facts[cfg.Exit.Index]
	if f == nil {
		return // no path reaches exit (an event-pump loop)
	}
	for _, node := range cfg.Exit.Nodes {
		f = prob.Transfer(node, f)
	}
	final := f.(rtFact)
	var open []token.Pos
	for pos := range final.open {
		open = append(open, pos)
	}
	sort.Slice(open, func(i, j int) bool { return open[i] < open[j] })
	for _, pos := range open {
		pass.Reportf(pos,
			"issued round may be dropped: no terminal state (completed, fenced, or timed out) on some path from this send to exit; call End() or a terminating helper in every branch")
	}
}

// rtFact: tracked Req values and Event carriers (as in roundflow) plus
// the positions of sends whose rounds are still open.
type rtFact struct {
	reqs map[types.Object]bool
	evs  map[types.Object]bool
	open map[token.Pos]bool
}

type roundTermProblem struct {
	pass    *Pass
	fn      *FuncNode
	aliases map[types.Object]types.Object // header bindings (hdrAliases)
}

func (p *roundTermProblem) Entry() Fact                            { return rtFact{} }
func (p *roundTermProblem) Refine(_ ast.Expr, _ bool, f Fact) Fact { return f }

func (p *roundTermProblem) Join(a, b Fact) Fact {
	fa, fb := a.(rtFact), b.(rtFact)
	return rtFact{
		reqs: unionObjs(fa.reqs, fb.reqs),
		evs:  unionObjs(fa.evs, fb.evs),
		open: unionPos(fa.open, fb.open),
	}
}

func (p *roundTermProblem) Equal(a, b Fact) bool {
	fa, fb := a.(rtFact), b.(rtFact)
	return equalObjs(fa.reqs, fb.reqs) && equalObjs(fa.evs, fb.evs) && equalPos(fa.open, fb.open)
}

func unionPos(a, b map[token.Pos]bool) map[token.Pos]bool {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make(map[token.Pos]bool, len(a)+len(b))
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

func equalPos(a, b map[token.Pos]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func (p *roundTermProblem) Transfer(n ast.Node, f Fact) Fact {
	fact := f.(rtFact)
	out := fact
	info := p.pass.Pkg.Info
	WalkCFGNode(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.AssignStmt:
			// Right-hand sides first (sends/terminations inside), then
			// the bindings.
			for _, rhs := range m.Rhs {
				out = p.transferExpr(rhs, out)
			}
			for i, lhs := range m.Lhs {
				// An Epoch stamp on a Req (or its header) marks it issued.
				if obj := stampedReq(info, p.aliases, lhs); obj != nil {
					out.reqs = addObj(out.reqs, obj)
					continue
				}
				obj := defOrUseObj(info, lhs)
				if obj == nil {
					continue
				}
				var rhs ast.Expr
				if i < len(m.Rhs) {
					rhs = m.Rhs[i]
				}
				if rhs != nil {
					if lit := compositeOf(rhs); lit != nil {
						if roundKindOfExpr(info, lit) == roundReqMsg {
							out.reqs = addObj(out.reqs, obj)
							continue
						}
						if isEventLit(info, lit) && litWrapsTrackedReq(info, lit, out.reqs) {
							out.evs = addObj(out.evs, obj)
							continue
						}
					}
				}
				out.reqs = dropObj(out.reqs, obj)
				out.evs = dropObj(out.evs, obj)
			}
			return false
		case *ast.CallExpr:
			out = p.transferCall(m, out)
			return false
		}
		return true
	})
	return out
}

func (p *roundTermProblem) transferExpr(e ast.Expr, fact rtFact) rtFact {
	out := fact
	WalkCFGNode(e, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			out = p.transferCall(call, out)
			return false
		}
		return true
	})
	return out
}

func (p *roundTermProblem) transferCall(call *ast.CallExpr, fact rtFact) rtFact {
	out := fact
	info := p.pass.Pkg.Info
	for _, a := range call.Args {
		switch a.(type) {
		case *ast.Ident:
		default:
			out = p.transferExpr(a, out)
		}
	}
	out = p.transferExpr(call.Fun, out)

	callees := p.pass.Prog.Callees(p.pass.Pkg, call)
	// Tracking and sends, mirroring roundflow's issue leg.
	for j, a := range call.Args {
		obj := useObj(info, a)
		if obj == nil {
			continue
		}
		stamps, sinks := false, false
		for _, callee := range callees {
			if j < len(callee.Round.StampsReq) && callee.Round.StampsReq[j] {
				stamps = true
			}
			if j < len(callee.SinksEventData) && callee.SinksEventData[j] {
				sinks = true
			}
		}
		if stamps {
			out.reqs = addObj(out.reqs, obj)
		}
		if sinks && (out.reqs[obj] || out.evs[obj]) {
			out.open = addPos(out.open, a.Pos())
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && roundSendMethods[sel.Sel.Name] && !isPkgSelector(info, sel) {
		for _, a := range call.Args {
			if obj := useObj(info, a); obj != nil && (out.reqs[obj] || out.evs[obj]) {
				out.open = addPos(out.open, a.Pos())
				continue
			}
			if lit := compositeOf(a); lit != nil && isEventLit(info, lit) && litWrapsTrackedReq(info, lit, out.reqs) {
				out.open = addPos(out.open, a.Pos())
			}
		}
	}

	// Terminal actions close every open round: a direct .End() call or a
	// callee with the Term summary.
	terminal := false
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "End" && !isPkgSelector(info, sel) {
		terminal = true
	}
	for _, callee := range callees {
		if callee.Round.Term.Has {
			terminal = true
		}
	}
	if terminal && len(out.open) > 0 {
		out.open = nil
	}
	return out
}

func addPos(m map[token.Pos]bool, pos token.Pos) map[token.Pos]bool {
	if m[pos] {
		return m
	}
	out := make(map[token.Pos]bool, len(m)+1)
	for k := range m {
		out[k] = true
	}
	out[pos] = true
	return out
}

// litWrapsTrackedReq reports whether an Event literal's Data field
// carries a tracked Req value or composes one inline.
func litWrapsTrackedReq(info *types.Info, lit *ast.CompositeLit, reqs map[types.Object]bool) bool {
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "Data" {
			continue
		}
		if obj := useObj(info, kv.Value); obj != nil && reqs[obj] {
			return true
		}
		if inner := compositeOf(kv.Value); inner != nil && roundKindOfExpr(info, inner) == roundReqMsg {
			return true
		}
	}
	return false
}
