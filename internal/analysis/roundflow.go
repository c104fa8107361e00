package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// RoundFlow statically enforces the round-lifecycle contract the chaos
// suite keeps re-discovering violations of at runtime (the PR 4
// split-brain class):
//
//   - Issue leg: every path that sends a round-path Req must have
//     registered a deadline (CallTimeout read or *Timeout receive) and a
//     retry budget (CallRetries read) before the send. Req values are
//     recognized by composite literal, by an Epoch stamp (directly or
//     through the value's RoundHdr, as callRound stamps its request), or
//     by flowing through a stamping callee (the StampsReq summary); a
//     send is a Submit/Send/Put call carrying the value or an Event
//     wrapping it, or a call whose callee sinks the argument into an
//     Event.
//   - Serve leg: every handler that dispatches on a round message
//     (type-switch with a round-typed arm, or a type assertion to a
//     round type) and applies state must reach a Seq dedupe guard and an
//     epoch fence-check on ALL CFG paths before the dispatch. Guards
//     count when performed directly (.Seq/.Epoch reads or stamps on
//     round messages or their headers) or through callees carrying the
//     Dedupe/Fence summaries; diagnostics include the applies-state
//     witness chain that gated the check in.
//   - Passed-request leg: a round Req literal handed straight to a call
//     (`gm.call(p, t, &IncreaseReq{…})`) is checked against the callee's
//     summaries: some callee at that site must transitively register
//     both budget halves.
//
// The analysis is a forward MUST dataflow over the function CFG: guard
// bits only survive a merge when every incoming path established them.
var RoundFlow = &Analyzer{
	Name: "roundflow",
	Doc: "round-path Reqs must be sent under a deadline/retry budget, and round dispatches " +
		"that apply state must be dominated by Seq-dedupe and epoch-fence guards on every path",
	Applies: internalPkg,
	Run:     runRoundFlow,
}

func runRoundFlow(pass *Pass) {
	if pass.Prog == nil {
		return
	}
	pass.Prog.ensureRounds()
	for _, n := range pass.Prog.nodes {
		if n.Pkg != pass.Pkg {
			continue
		}
		checkRoundFlow(pass, n)
	}
}

// Guard bits, established by path prefix and intersected at merges.
const (
	bitDeadline uint8 = 1 << iota
	bitRetries
	bitDedupe
	bitFence
)

// dispatchSite is one round-message dispatch the serve leg must check:
// the CFG node it anchors to (a type-switch's Assign statement, or the
// assert expression itself), the dispatched type for the message, and
// the applies-state witness that gated the site in.
type dispatchSite struct {
	pos     token.Pos
	armType string
	witness string
}

func checkRoundFlow(pass *Pass, n *FuncNode) {
	checkPassedReqs(pass, n)
	sites := collectDispatchSites(pass, n)
	if len(sites) == 0 && !tracksRounds(pass, n) {
		return
	}

	prob := &roundFlowProblem{pass: pass, fn: n, sites: sites,
		aliases: hdrAliases(pass.Pkg.Info, n.Decl.Body)}
	cfg := BuildCFG(n.Decl)
	facts := Forward(cfg, prob)
	prob.reported = make(map[token.Pos]bool)
	for _, blk := range cfg.Blocks {
		f := facts[blk.Index]
		if f == nil {
			continue
		}
		for _, node := range blk.Nodes {
			f = prob.Transfer(node, f)
		}
	}
}

// collectDispatchSites finds the round dispatches in n's own body (CFG
// scope: function literals excluded) that the serve leg must guard.
func collectDispatchSites(pass *Pass, n *FuncNode) map[ast.Node]*dispatchSite {
	info := pass.Pkg.Info
	sites := make(map[ast.Node]*dispatchSite)
	inspectOwn(n.Decl.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.TypeSwitchStmt:
			armType := ""
			witness := ""
			for _, st := range node.Body.List {
				cc, ok := st.(*ast.CaseClause)
				if !ok {
					continue
				}
				isRound := false
				for _, te := range cc.List {
					if tv, ok := info.Types[te]; ok && roundKindOfType(tv.Type) != roundNone {
						isRound = true
						if armType == "" {
							armType = roundTypeName(info, te)
						}
					}
				}
				if !isRound {
					continue
				}
				if w, ok := armAppliesState(pass, cc.Body); ok && witness == "" {
					witness = w
				}
			}
			if armType != "" && witness != "" {
				sites[node.Assign] = &dispatchSite{pos: node.Pos(), armType: armType, witness: witness}
			}
		case *ast.TypeAssertExpr:
			if node.Type == nil {
				return true // type-switch form, handled above
			}
			tv, ok := info.Types[node.Type]
			if !ok || roundKindOfType(tv.Type) == roundNone {
				return true
			}
			if !n.Round.State.Has {
				return true
			}
			sites[node] = &dispatchSite{
				pos:     node.Pos(),
				armType: roundTypeName(info, node.Type),
				witness: RoundChain(n, func(r *RoundSummary) *roundBit { return &r.State }),
			}
		}
		return true
	})
	return sites
}

// armAppliesState reports whether a dispatch arm writes application
// state, directly or through a callee, and renders the witness.
func armAppliesState(pass *Pass, body []ast.Stmt) (string, bool) {
	info := pass.Pkg.Info
	witness := ""
	for _, st := range body {
		inspectOwn(st, func(node ast.Node) bool {
			if witness != "" {
				return false
			}
			switch node := node.(type) {
			case *ast.AssignStmt:
				for _, lhs := range node.Lhs {
					if prim, ok := stateWritePrim(info, lhs); ok {
						witness = prim
						return false
					}
				}
			case *ast.IncDecStmt:
				if prim, ok := stateWritePrim(info, node.X); ok {
					witness = prim
					return false
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(node.Fun).(*ast.Ident); ok && id.Name == "delete" {
					if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && len(node.Args) > 0 {
						witness = "delete(" + types.ExprString(node.Args[0]) + ")"
						return false
					}
				}
				for _, callee := range pass.Prog.Callees(pass.Pkg, node) {
					if callee.Round.State.Has {
						witness = RoundChain(callee, func(r *RoundSummary) *roundBit { return &r.State })
						return false
					}
				}
			}
			return true
		})
		if witness != "" {
			break
		}
	}
	return witness, witness != ""
}

// inspectOwn walks node's AST without descending into function literals,
// matching the CFG's scope.
func inspectOwn(node ast.Node, visit func(ast.Node) bool) {
	ast.Inspect(node, func(m ast.Node) bool {
		if m == nil {
			return false
		}
		if !visit(m) {
			return false
		}
		_, isLit := m.(*ast.FuncLit)
		return !isLit
	})
}

// tracksRounds is the cheap prescan deciding whether the CFG pass can
// ever track a Req value in n's own body: a round-Req composite literal,
// an Epoch stamp on a parameter Req, or a call site with a
// request-stamping callee.
func tracksRounds(pass *Pass, n *FuncNode) bool {
	info := pass.Pkg.Info
	for _, s := range n.Round.seedStampsReq {
		if s {
			return true
		}
	}
	found := false
	inspectOwn(n.Decl.Body, func(node ast.Node) bool {
		if found {
			return false
		}
		if lit, ok := node.(*ast.CompositeLit); ok && roundKindOfExpr(info, lit) == roundReqMsg {
			found = true
		}
		return !found
	})
	if found {
		return true
	}
	for _, site := range n.Sites {
		for _, callee := range site.Callees {
			for _, s := range callee.Round.StampsReq {
				if s {
					return true
				}
			}
		}
	}
	return false
}

// checkPassedReqs is the passed-request leg: a round-Req literal handed
// straight to a module function (the gm.call pattern) obliges some callee
// at that site to register both budget halves transitively. Values
// handed to code outside the module are not issued there.
func checkPassedReqs(pass *Pass, n *FuncNode) {
	info := pass.Pkg.Info
	inspectOwn(n.Decl.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			lit := compositeOf(arg)
			if lit == nil || roundKindOfExpr(info, lit) != roundReqMsg {
				continue
			}
			callees := pass.Prog.Callees(pass.Pkg, call)
			budgeted := len(callees) == 0
			missing := "a deadline/retry budget"
			for _, callee := range callees {
				switch d, r := callee.Round.Deadline.Has, callee.Round.Retries.Has; {
				case d && r:
					budgeted = true
				case d:
					missing = "a retry budget (CallRetries)"
				case r:
					missing = "a deadline (CallTimeout or a *Timeout receive)"
				}
			}
			if !budgeted {
				pass.Reportf(lit.Pos(),
					"round request %s is passed to %s, which never registers %s before sending",
					roundTypeName(info, lit), types.ExprString(call.Fun), missing)
			}
		}
		return true
	})
}

// rfFact is the forward must-fact: the guard bits established on every
// path to this point, plus the tracked Req values (reqs) and the Event
// carriers wrapping one (evs). Maps are immutable copy-on-write.
type rfFact struct {
	bits uint8
	reqs map[types.Object]bool
	evs  map[types.Object]bool
}

type roundFlowProblem struct {
	pass    *Pass
	fn      *FuncNode
	sites   map[ast.Node]*dispatchSite
	aliases map[types.Object]types.Object // header bindings (hdrAliases)
	// reported is nil during the solve; non-nil arms diagnostics.
	reported map[token.Pos]bool
}

func (p *roundFlowProblem) Entry() Fact                            { return rfFact{} }
func (p *roundFlowProblem) Refine(_ ast.Expr, _ bool, f Fact) Fact { return f }

func (p *roundFlowProblem) Join(a, b Fact) Fact {
	fa, fb := a.(rfFact), b.(rfFact)
	return rfFact{
		bits: fa.bits & fb.bits, // must: both paths established the guard
		reqs: unionObjs(fa.reqs, fb.reqs),
		evs:  unionObjs(fa.evs, fb.evs), // may: either path tracked the value
	}
}

func (p *roundFlowProblem) Equal(a, b Fact) bool {
	fa, fb := a.(rfFact), b.(rfFact)
	return fa.bits == fb.bits && equalObjs(fa.reqs, fb.reqs) && equalObjs(fa.evs, fb.evs)
}

func unionObjs(a, b map[types.Object]bool) map[types.Object]bool {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make(map[types.Object]bool, len(a)+len(b))
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

func equalObjs(a, b map[types.Object]bool) bool {
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

func addObj(m map[types.Object]bool, obj types.Object) map[types.Object]bool {
	if m[obj] {
		return m
	}
	out := make(map[types.Object]bool, len(m)+1)
	for k := range m {
		out[k] = true
	}
	out[obj] = true
	return out
}

func dropObj(m map[types.Object]bool, obj types.Object) map[types.Object]bool {
	if !m[obj] {
		return m
	}
	out := make(map[types.Object]bool, len(m))
	for k := range m {
		if k != obj {
			out[k] = true
		}
	}
	return out
}

func (p *roundFlowProblem) Transfer(n ast.Node, f Fact) Fact {
	fact := f.(rfFact)
	if site, ok := p.sites[n]; ok {
		p.checkDispatch(site, fact)
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		return p.transferAssign(n, fact)
	case *ast.ExprStmt:
		return p.transferExpr(n.X, fact)
	default:
		if e, ok := n.(ast.Expr); ok {
			return p.transferExpr(e, fact)
		}
		if stmt, ok := n.(ast.Stmt); ok {
			return p.transferStmtShallow(stmt, fact)
		}
	}
	return fact
}

// transferStmtShallow applies the expression effects of statements that
// carry expressions but no bindings of interest (sends, returns, defers,
// if/for inits already appear as their own nodes).
func (p *roundFlowProblem) transferStmtShallow(stmt ast.Stmt, fact rfFact) rfFact {
	out := fact
	WalkCFGNode(stmt, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.AssignStmt:
			out = p.transferAssign(m, out)
			return false
		case *ast.CallExpr:
			out = p.transferCall(m, out)
			return false
		case *ast.SelectorExpr:
			out = p.noteGuardRead(m, out)
		case *ast.TypeAssertExpr:
			if site, ok := p.sites[ast.Node(m)]; ok {
				// The asserted expression evaluates before the dispatch:
				// a gm.call(...).(*XResp) assert is guarded by the
				// callee's own dedupe/fence summaries.
				out = p.transferExpr(m.X, out)
				p.checkDispatch(site, out)
				return false
			}
		}
		return true
	})
	return out
}

func (p *roundFlowProblem) transferAssign(as *ast.AssignStmt, fact rfFact) rfFact {
	out := fact
	for _, rhs := range as.Rhs {
		out = p.transferExpr(rhs, out)
	}
	info := p.pass.Pkg.Info
	for i, lhs := range as.Lhs {
		// A Seq/Epoch stamp is the guard primitive too, and an Epoch
		// stamp on a Req marks it issued.
		if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok && isRoundField(info, sel) {
			out = p.noteGuardRead(sel, out)
			if obj := stampedReq(info, p.aliases, lhs); obj != nil {
				out.reqs = addObj(out.reqs, obj)
			}
			continue
		}
		obj := defOrUseObj(info, lhs)
		if obj == nil {
			continue
		}
		var rhs ast.Expr
		if i < len(as.Rhs) {
			rhs = as.Rhs[i]
		}
		if rhs != nil {
			if lit := compositeOf(rhs); lit != nil {
				if roundKindOfExpr(info, lit) == roundReqMsg {
					out.reqs = addObj(out.reqs, obj)
					continue
				}
				if isEventLit(info, lit) && p.litWrapsTracked(lit, out) {
					out.evs = addObj(out.evs, obj)
					continue
				}
			}
		}
		// Reassignment to anything else unbinds the name.
		out.reqs = dropObj(out.reqs, obj)
		out.evs = dropObj(out.evs, obj)
	}
	return out
}

// litWrapsTracked reports whether an Event literal's Data field carries a
// tracked Req value (or composes one inline).
func (p *roundFlowProblem) litWrapsTracked(lit *ast.CompositeLit, fact rfFact) bool {
	info := p.pass.Pkg.Info
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "Data" {
			continue
		}
		if obj := useObj(info, kv.Value); obj != nil && fact.reqs[obj] {
			return true
		}
		if inner := compositeOf(kv.Value); inner != nil && roundKindOfExpr(info, inner) == roundReqMsg {
			return true
		}
	}
	return false
}

func (p *roundFlowProblem) transferExpr(e ast.Expr, fact rfFact) rfFact {
	out := fact
	WalkCFGNode(e, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.CallExpr:
			out = p.transferCall(m, out)
			return false
		case *ast.SelectorExpr:
			out = p.noteGuardRead(m, out)
		case *ast.TypeAssertExpr:
			if site, ok := p.sites[ast.Node(m)]; ok {
				out = p.transferExpr(m.X, out)
				p.checkDispatch(site, out)
				return false
			}
		}
		return true
	})
	return out
}

// noteGuardRead sets guard bits for direct primitive reads.
func (p *roundFlowProblem) noteGuardRead(sel *ast.SelectorExpr, fact rfFact) rfFact {
	info := p.pass.Pkg.Info
	out := fact
	switch {
	case sel.Sel.Name == "CallTimeout":
		out.bits |= bitDeadline
	case sel.Sel.Name == "CallRetries":
		out.bits |= bitRetries
	case isRoundField(info, sel) && sel.Sel.Name == "Seq":
		out.bits |= bitDedupe
	case isRoundField(info, sel):
		out.bits |= bitFence
	}
	return out
}

func (p *roundFlowProblem) transferCall(call *ast.CallExpr, fact rfFact) rfFact {
	out := fact
	info := p.pass.Pkg.Info
	// Argument sub-expressions first (evaluation order), idents handled
	// against callee summaries below.
	for _, a := range call.Args {
		switch a.(type) {
		case *ast.Ident:
		default:
			out = p.transferExpr(a, out)
		}
	}
	out = p.transferExpr(call.Fun, out)

	callees := p.pass.Prog.Callees(p.pass.Pkg, call)
	for _, callee := range callees {
		if callee.Round.Deadline.Has {
			out.bits |= bitDeadline
		}
		if callee.Round.Retries.Has {
			out.bits |= bitRetries
		}
		if callee.Round.Dedupe.Has {
			out.bits |= bitDedupe
		}
		if callee.Round.Fence.Has {
			out.bits |= bitFence
		}
	}
	// A *Timeout receive or .End() in the call position also counts as a
	// direct deadline primitive (noteGuardRead saw the selector already
	// via transferExpr on call.Fun for deadlineWaitMethods' CallTimeout
	// form; the method-name form is handled here).
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && deadlineWaitMethods[sel.Sel.Name] {
		if !isPkgSelector(info, sel) {
			out.bits |= bitDeadline
		}
	}

	for j, a := range call.Args {
		obj := useObj(info, a)
		if obj != nil {
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
				p.checkSend(a.Pos(), obj, out)
			}
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && roundSendMethods[sel.Sel.Name] && !isPkgSelector(info, sel) {
		for _, a := range call.Args {
			if obj := useObj(info, a); obj != nil && (out.reqs[obj] || out.evs[obj]) {
				p.checkSend(a.Pos(), obj, out)
				continue
			}
			if lit := compositeOf(a); lit != nil && isEventLit(info, lit) && p.litWrapsTracked(lit, out) {
				p.checkSend(a.Pos(), nil, out)
			}
		}
	}
	return out
}

func isPkgSelector(info *types.Info, sel *ast.SelectorExpr) bool {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	_, isPkg := info.Uses[id].(*types.PkgName)
	return isPkg
}

func useObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	return info.Uses[id]
}

func defOrUseObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// checkSend enforces the issue-leg obligations at a send of a tracked
// Req (or an Event wrapping one).
func (p *roundFlowProblem) checkSend(pos token.Pos, obj types.Object, fact rfFact) {
	if p.reported == nil {
		return
	}
	name := "round request"
	if obj != nil {
		name = "round request " + obj.Name()
	}
	if fact.bits&bitDeadline == 0 {
		p.reportOnce(pos, "%s is sent with no deadline registered on this path; read the CallTimeout budget or use a *Timeout receive before the send", name)
	}
	if fact.bits&bitRetries == 0 {
		p.reportOnce(pos+1, "%s is sent with no retry budget consulted on this path; read CallRetries before the send", name)
	}
}

// checkDispatch enforces the serve-leg obligations at a round dispatch.
func (p *roundFlowProblem) checkDispatch(site *dispatchSite, fact rfFact) {
	if p.reported == nil {
		return
	}
	if fact.bits&bitDedupe == 0 {
		p.reportOnce(site.pos, "%s dispatch applies state (%s) without a Seq dedupe guard on every path before it; read .Seq against the served/pending record before applying", site.armType, site.witness)
	}
	if fact.bits&bitFence == 0 {
		p.reportOnce(site.pos+1, "%s dispatch applies state (%s) without an epoch fence-check on every path before it; compare .Epoch against the fenced epoch before applying (split-brain guard)", site.armType, site.witness)
	}
}

// reportOnce dedupes by position: the report pass re-runs Transfer over
// every block, so a node can be visited more than once. The +1 offsets
// in the callers keep the two obligations of one site distinct while
// still rendering on the same source line.
func (p *roundFlowProblem) reportOnce(pos token.Pos, format string, args ...any) {
	if p.reported[pos] {
		return
	}
	p.reported[pos] = true
	p.pass.Reportf(pos, format, args...)
}
