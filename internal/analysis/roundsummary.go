package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Round-lifecycle summaries: the interprocedural layer under the
// roundflow and roundterm analyzers. Every control round in the module
// obeys an (until now unwritten) contract — issue with a deadline and a
// retry budget, dedupe by Seq before applying, fence-check the Epoch
// before applying, and drive every issued round to a terminal state. The
// per-function summaries here record which obligations a function
// discharges (directly or through its callees), computed as a monotone
// fixpoint over the CHA call graph, so the analyzers can ask "does some
// call on this path register a deadline?" without re-walking bodies.
//
// Round-path message classification, shared by roundflow and roundterm:
//
//   - A *round message* is a named struct that embeds a struct named
//     RoundHdr (the header carrying Seq and Epoch). The header type
//     itself counts too, so `h.Seq`/`h.Epoch` through a header pointer
//     are the same guards and stamps as on the message. Nothing else is
//     a round: shard-relay traffic and pump messages with plain Seq or
//     Epoch fields are out by construction.
//   - The name's Req suffix gives the direction: only Reqs *issue*
//     rounds; Resp/Notice messages ride the return path. roundflow's
//     budget/termination obligations therefore track Req values, while
//     its dedupe/fence obligations gate the handlers that dispatch on
//     any round message.
//   - A header taken from a value by `x.hdr()` (or a local bound to one)
//     stands for that value: stamping its Epoch stamps the value, and
//     when x's static type is Req-named — a concrete request or an
//     interface over requests — the stamp marks x as an issued request.
//
// Approximations, documented like the rest of the graph layer: calls
// through function values contribute nothing; function literals passed
// to launchers/callbacks are separate contexts (walkOwnCode); a Req
// literal that escapes without being sent or passed onward is not
// chased.

// roundKind classifies a type within the round-path family.
type roundKind int

const (
	roundNone   roundKind = iota
	roundMember           // a round message (or the header) that issues nothing
	roundReqMsg           // a round request
)

// RoundSummary is one function's lifecycle-obligation summary.
type RoundSummary struct {
	// Issue: the function composes a round-path Req literal.
	Issue roundBit
	// Deadline: the function bounds a round wait — it reads a
	// CallTimeout policy knob or performs a *Timeout receive.
	Deadline roundBit
	// Retries: the function consults a CallRetries retry budget.
	Retries roundBit
	// Dedupe: the function reads .Seq off a round message — the
	// served-cache / stale-response guard primitive.
	Dedupe roundBit
	// Fence: the function reads or stamps .Epoch on a round message —
	// the split-brain fence primitive.
	Fence roundBit
	// State: the function writes shared state (field/map/pointer writes
	// or deletes, excluding Seq/Epoch stamps on round messages, which
	// are protocol bookkeeping rather than application effects).
	State roundBit
	// Term: the function drives a round to a terminal state — it calls a
	// span/round .End() (completed, timed out, fenced paths all funnel
	// through one).
	Term roundBit
	// StampsReq[i]: the function assigns .Epoch on parameter i (or on
	// its header) where the parameter is a round-path Req — how
	// callRound-style issuers are recognized at their callers.
	StampsReq []bool

	seeded        bool
	seedStampsReq []bool
}

// roundBit is one summary bit plus its witness: the callee it was
// inherited from (nil for seeds) and the seed's own primitive, for
// rendering chains like "managerLoop → reqSeq → r.Seq".
type roundBit struct {
	Has  bool
	via  *FuncNode
	prim string
}

func (b *roundBit) seed(prim string) {
	if !b.Has {
		b.Has = true
		b.prim = prim
	}
}

// deadlineWaitMethods are the timeout-bounded receive primitives; calling
// one bounds the wait the same way reading a CallTimeout knob does.
// Matched by method name, same contract style as orderSinks.
var deadlineWaitMethods = map[string]bool{
	"RecvTimeout": true, "WaitTimeout": true,
	"GetTimeout": true, "GetPoll": true,
	"FetchTimeout": true, "FetchPoll": true,
}

// roundSendMethods are the send primitives roundflow/roundterm treat as
// the moment a round leaves the issuer (subset of maprange's orderSinks).
var roundSendMethods = map[string]bool{
	"Submit": true, "Send": true, "Put": true, "TryPut": true,
}

// roundKindOfType classifies t (pointer-stripped) within the round
// family: membership by the embedded RoundHdr, direction by the Req
// suffix.
func roundKindOfType(t types.Type) roundKind {
	named := namedElem(t)
	if named == nil {
		return roundNone
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return roundNone
	}
	if named.Obj().Name() == "RoundHdr" {
		return roundMember
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if _, isStruct := f.Type().Underlying().(*types.Struct); isStruct && f.Embedded() && f.Name() == "RoundHdr" {
			if reqNamed(named) {
				return roundReqMsg
			}
			return roundMember
		}
	}
	return roundNone
}

// namedElem strips one pointer level and returns the named type, if any.
func namedElem(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// reqNamed reports a Req-suffixed type name: the request direction.
func reqNamed(named *types.Named) bool {
	name := named.Obj().Name()
	return len(name) > len("Req") && strings.HasSuffix(name, "Req")
}

// hdrOwner returns x when e is a header accessor call `x.hdr()` (a
// no-argument method named hdr returning *RoundHdr), else nil.
func hdrOwner(info *types.Info, e ast.Expr) ast.Expr {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "hdr" {
		return nil
	}
	if named := namedElem(info.TypeOf(call)); named == nil || named.Obj().Name() != "RoundHdr" {
		return nil
	}
	return sel.X
}

// hdrAlias reports a header binding `h := x.hdr()` as (h, x); nils
// otherwise.
func hdrAlias(info *types.Info, as *ast.AssignStmt) (h, x types.Object) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil, nil
	}
	x = useObj(info, hdrOwner(info, as.Rhs[0]))
	h = defOrUseObj(info, as.Lhs[0])
	if x == nil || h == nil {
		return nil, nil
	}
	return h, x
}

// hdrAliases maps each local bound to a header (`h := x.hdr()`) to x's
// object, so a stamp through h lands on x. Flow-insensitive: the idiom
// binds a header once, right before stamping it.
func hdrAliases(info *types.Info, body ast.Node) map[types.Object]types.Object {
	out := make(map[types.Object]types.Object)
	ast.Inspect(body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			if h, x := hdrAlias(info, as); h != nil {
				out[h] = x
			}
		}
		return true
	})
	return out
}

// stampedReq resolves an assignment target `x.Epoch` — written directly,
// through `x.hdr().Epoch`, or through a header alias of x — to x's object
// when x is a round Req: the stamp that marks x as an issued request (nil
// for every other target).
func stampedReq(info *types.Info, aliases map[types.Object]types.Object, lhs ast.Expr) types.Object {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Epoch" {
		return nil
	}
	x := sel.X
	if owner := hdrOwner(info, x); owner != nil {
		x = owner
	}
	obj := useObj(info, x)
	if owner, ok := aliases[obj]; ok {
		obj = owner
	}
	if obj == nil || !reqTyped(obj.Type()) {
		return nil
	}
	return obj
}

// compositeOf unwraps `&T{…}` / `T{…}` to the literal.
func compositeOf(e ast.Expr) *ast.CompositeLit {
	e = ast.Unparen(e)
	if ue, ok := e.(*ast.UnaryExpr); ok && ue.Op == token.AND {
		e = ue.X
	}
	lit, _ := e.(*ast.CompositeLit)
	return lit
}

// isRoundField reports a Seq or Epoch selection on a round message or
// its header: the dedupe and fence primitives.
func isRoundField(info *types.Info, sel *ast.SelectorExpr) bool {
	return (sel.Sel.Name == "Seq" || sel.Sel.Name == "Epoch") &&
		roundKindOfExpr(info, sel.X) != roundNone
}

// reqTyped reports a round Req, or a Req-named interface (an issuer's
// request parameter, whose concrete types are the round Reqs).
func reqTyped(t types.Type) bool {
	if roundKindOfType(t) == roundReqMsg {
		return true
	}
	named := namedElem(t)
	return named != nil && types.IsInterface(named) && reqNamed(named)
}

// roundKindOfExpr classifies the static type of e.
func roundKindOfExpr(info *types.Info, e ast.Expr) roundKind {
	tv, ok := info.Types[e]
	if !ok {
		return roundNone
	}
	return roundKindOfType(tv.Type)
}

// roundTypeName renders the pointer-stripped type name of e, for
// diagnostics ("" when unavailable).
func roundTypeName(info *types.Info, e ast.Expr) string {
	if named := namedElem(info.TypeOf(e)); named != nil {
		return named.Obj().Name()
	}
	return ""
}

// stateWritePrim classifies an assignment target as an application-state
// write and names it. Seq/Epoch stamps on round messages and their
// headers are protocol bookkeeping (the issuer's and the server's header
// stamps must stay exempt from the applies-state gate), and writes to
// plain locals are not state.
func stateWritePrim(info *types.Info, lhs ast.Expr) (string, bool) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		if isRoundField(info, lhs) {
			return "", false
		}
		return types.ExprString(lhs) + " =", true
	case *ast.IndexExpr:
		return types.ExprString(lhs.X) + "[…] =", true
	case *ast.StarExpr:
		return "*" + types.ExprString(lhs.X) + " =", true
	}
	return "", false
}

// ensureRounds seeds and propagates the round summaries once per
// Program. Deterministic: seeds are discovered in prog.nodes order and
// propagation is a round-robin sweep of monotone bits, so the via
// witnesses are stable across runs.
func (prog *Program) ensureRounds() {
	if prog.roundsDone {
		return
	}
	prog.roundsDone = true
	for _, n := range prog.nodes {
		prog.seedRounds(n)
	}
	for changed := true; changed; {
		changed = false
		for _, n := range prog.nodes {
			if prog.recomputeRounds(n) {
				changed = true
			}
		}
	}
}

// seedRounds scans one function body for direct obligation primitives.
func (prog *Program) seedRounds(n *FuncNode) {
	if n.Round.seeded {
		return
	}
	n.Round.seeded = true
	info := n.Pkg.Info
	sig, _ := n.Obj.Type().(*types.Signature)
	nparams := 0
	if sig != nil {
		nparams = sig.Params().Len()
	}
	n.Round.seedStampsReq = make([]bool, nparams)
	n.Round.StampsReq = make([]bool, nparams)

	aliases := make(map[types.Object]types.Object) // header bindings, in source order
	walkOwnCode(n.Pkg, n.Decl.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.SelectorExpr:
			switch {
			case node.Sel.Name == "CallTimeout":
				n.Round.Deadline.seed(types.ExprString(node))
			case node.Sel.Name == "CallRetries":
				n.Round.Retries.seed(types.ExprString(node))
			case isRoundField(info, node) && node.Sel.Name == "Seq":
				n.Round.Dedupe.seed(types.ExprString(node))
			case isRoundField(info, node):
				n.Round.Fence.seed(types.ExprString(node))
			}
		case *ast.CallExpr:
			if sel, ok := node.Fun.(*ast.SelectorExpr); ok {
				isPkgFunc := false
				if id, ok := sel.X.(*ast.Ident); ok {
					if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
						isPkgFunc = true
					}
				}
				if !isPkgFunc {
					if deadlineWaitMethods[sel.Sel.Name] {
						n.Round.Deadline.seed(types.ExprString(sel.X) + "." + sel.Sel.Name)
					}
					if sel.Sel.Name == "End" {
						n.Round.Term.seed(types.ExprString(sel.X) + ".End")
					}
				}
			}
			if id, ok := ast.Unparen(node.Fun).(*ast.Ident); ok && id.Name == "delete" {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && len(node.Args) > 0 {
					n.Round.State.seed("delete(" + types.ExprString(node.Args[0]) + ")")
				}
			}
		case *ast.AssignStmt:
			if h, x := hdrAlias(info, node); h != nil {
				aliases[h] = x
			}
			for _, lhs := range node.Lhs {
				if prim, ok := stateWritePrim(info, lhs); ok {
					n.Round.State.seed(prim)
				}
				// Request-stamp seed: an Epoch stamp on a round Req that
				// binds (directly, via type-switch/assert aliasing — see
				// collect — or through its header) to param i.
				if obj := stampedReq(info, aliases, lhs); obj != nil {
					if i, ok := n.paramIndex[obj]; ok {
						n.Round.seedStampsReq[i] = true
					}
				}
			}
		case *ast.IncDecStmt:
			if prim, ok := stateWritePrim(info, node.X); ok {
				n.Round.State.seed(prim)
			}
		case *ast.CompositeLit:
			if roundKindOfExpr(info, node) == roundReqMsg {
				n.Round.Issue.seed(roundTypeName(info, node) + "{…}")
			}
		}
		return true
	})
}

// recomputeRounds propagates summaries caller←callee over the call
// sites; every bit is monotone.
func (prog *Program) recomputeRounds(n *FuncNode) bool {
	changed := false
	inherit := func(dst *roundBit, src *roundBit, via *FuncNode) {
		if src.Has && !dst.Has {
			dst.Has = true
			dst.via = via
			changed = true
		}
	}
	for _, site := range n.Sites {
		for _, callee := range site.Callees {
			inherit(&n.Round.Issue, &callee.Round.Issue, callee)
			inherit(&n.Round.Deadline, &callee.Round.Deadline, callee)
			inherit(&n.Round.Retries, &callee.Round.Retries, callee)
			inherit(&n.Round.Dedupe, &callee.Round.Dedupe, callee)
			inherit(&n.Round.Fence, &callee.Round.Fence, callee)
			inherit(&n.Round.State, &callee.Round.State, callee)
			inherit(&n.Round.Term, &callee.Round.Term, callee)
			for j, obj := range site.argObjs {
				i, isParam := n.paramIndex[obj]
				if !isParam || obj == nil {
					continue
				}
				if j < len(callee.Round.StampsReq) && callee.Round.StampsReq[j] && !n.Round.StampsReq[i] {
					n.Round.StampsReq[i] = true
					changed = true
				}
			}
		}
	}
	for i, v := range n.Round.seedStampsReq {
		if v && !n.Round.StampsReq[i] {
			n.Round.StampsReq[i] = true
			changed = true
		}
	}
	return changed
}

// RoundChain renders the witness path for one summary bit, e.g.
// "(*Container).managerLoop → reqSeq → r.Seq". get selects the bit from
// a node's summary.
func RoundChain(n *FuncNode, get func(*RoundSummary) *roundBit) string {
	var parts []string
	for cur := n; cur != nil && len(parts) < 8; {
		parts = append(parts, cur.String())
		b := get(&cur.Round)
		if b.via == nil {
			if b.prim != "" {
				parts = append(parts, b.prim)
			}
			break
		}
		cur = b.via
	}
	return strings.Join(parts, " → ")
}
