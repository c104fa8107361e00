package analysis

import (
	"go/ast"
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
// Round-path message classification (shared with ctlmsg's registry):
//
//   - A *round message* is a named struct whose name ends in Req, Resp,
//     or Notice and that carries both `Seq int64` and `Epoch int64`.
//   - Shard-relay messages (those with a `Shard int` field — StealReq,
//     ShardBeat, GapRelay, …) are a separate family with their own
//     single-writer discipline (DESIGN.md §14) and are excluded.
//   - Only Req-suffixed messages *issue* rounds; Resp/Notice messages
//     ride the return path. roundflow's budget/termination obligations
//     therefore track Req values, while its dedupe/fence obligations
//     gate the handlers that dispatch on any round message kind.
//
// Approximations, documented like the rest of the graph layer: calls
// through function values contribute nothing; function literals passed
// to launchers/callbacks are separate contexts (walkOwnCode); a Req
// literal that escapes without being sent or passed onward is not
// chased.

// roundKind classifies a message type within the round-path family.
type roundKind int

const (
	roundNone roundKind = iota
	roundReqMsg
	roundRespMsg
	roundNoticeMsg
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
	// StampsReq[i]: the function assigns .Epoch on parameter i where the
	// static operand type is a round-path Req — how callRound-style
	// issuers are recognized through `stampReqEpoch(req, …)` helpers.
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
// family.
func roundKindOfType(t types.Type) roundKind {
	if t == nil {
		return roundNone
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return roundNone
	}
	name := named.Obj().Name()
	kind := roundNone
	switch {
	case hasSuffix(name, "Req"):
		kind = roundReqMsg
	case hasSuffix(name, "Resp"):
		kind = roundRespMsg
	case hasSuffix(name, "Notice"):
		kind = roundNoticeMsg
	default:
		return roundNone
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok || !hasSeqField(st) || !hasEpochField(st) || hasShardField(st) {
		return roundNone
	}
	return kind
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
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return ""
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// stateWritePrim classifies an assignment target as an application-state
// write and names it. Seq/Epoch stamps on round messages are protocol
// bookkeeping (reqSeq/stampReqEpoch-style helpers must stay exempt from
// the applies-state gate), and writes to plain locals are not state.
func stateWritePrim(info *types.Info, lhs ast.Expr) (string, bool) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		if (lhs.Sel.Name == "Seq" || lhs.Sel.Name == "Epoch") &&
			roundKindOfExpr(info, lhs.X) != roundNone {
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

	paramAt := func(e ast.Expr) int {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return -1
		}
		obj := info.Uses[id]
		if obj == nil {
			return -1
		}
		if i, ok := n.paramIndex[obj]; ok {
			return i
		}
		return -1
	}

	walkOwnCode(n.Pkg, n.Decl.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.SelectorExpr:
			switch node.Sel.Name {
			case "CallTimeout":
				n.Round.Deadline.seed(types.ExprString(node))
			case "CallRetries":
				n.Round.Retries.seed(types.ExprString(node))
			case "Seq":
				if roundKindOfExpr(info, node.X) != roundNone {
					n.Round.Dedupe.seed(types.ExprString(node))
				}
			case "Epoch":
				if roundKindOfExpr(info, node.X) != roundNone {
					n.Round.Fence.seed(types.ExprString(node))
				}
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
			for _, lhs := range node.Lhs {
				if prim, ok := stateWritePrim(info, lhs); ok {
					n.Round.State.seed(prim)
				}
				// Request-stamp seed: `r.Epoch = …` where r binds (via
				// type-switch/assert aliasing, see collect) to param i
				// and the static type is a round-path Req.
				if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok && sel.Sel.Name == "Epoch" {
					if roundKindOfExpr(info, sel.X) == roundReqMsg {
						if i := paramAt(sel.X); i >= 0 {
							n.Round.seedStampsReq[i] = true
						}
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
