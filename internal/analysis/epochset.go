package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// EpochSet turns the epoch-fencing convention into a checked invariant:
// every round message (a named struct embedding RoundHdr) that a function
// constructs must have its Epoch assigned on ALL paths before the value
// reaches an evpath send sink — being wrapped as an Event's Data field,
// or being passed to a callee that does so (e.g. (*Container).reply).
// Stamping counts directly (`req.Epoch = e`, a composite literal with an
// Epoch key, in its RoundHdr or not), through the header (`h :=
// resp.hdr(); h.Epoch = e`), or through the call graph (a callee that
// stamps its parameter, so its summary sets it). The check is a forward
// must-analysis over the CFG: a message stamped on one branch but not the
// other is still unstamped at the merge. Values that escape (stored into
// a map or field, returned, handed to a summaryless callee) stop being
// tracked — the manager's dedupe cache holds already-stamped replies, and
// escaped aliases cannot be proven either way without a heap model.
var EpochSet = &Analyzer{
	Name:    "epochset",
	Doc:     "round-path Req/Resp values must have Epoch assigned on all paths before reaching an Event send",
	Applies: internalPkg,
	Run:     runEpochSet,
}

type epochState uint8

const (
	epochSet epochState = iota + 1
	epochUnset
	epochEscaped
)

type epochFact map[types.Object]epochState

func runEpochSet(pass *Pass) {
	if pass.Prog == nil {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, fd := range enclosingFuncs(f) {
			if !constructsRoundMessage(pass, fd) {
				continue
			}
			prob := &epochProblem{pass: pass, aliases: hdrAliases(pass.Pkg.Info, fd.Body)}
			cfg := BuildCFG(fd)
			in := Forward(cfg, prob)
			prob.reported = make(map[token.Pos]bool)
			for _, b := range cfg.Blocks {
				fact := in[b.Index]
				if fact == nil {
					continue
				}
				f := fact
				for _, n := range b.Nodes {
					f = prob.Transfer(n, f)
				}
			}
		}
	}
}

// constructsRoundMessage is a cheap pre-filter: only functions that build
// a round-path message literal need the full CFG analysis.
func constructsRoundMessage(pass *Pass, fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if lit, ok := n.(*ast.CompositeLit); ok && roundKindOfExpr(pass.Pkg.Info, lit) != roundNone {
			found = true
		}
		return !found
	})
	return found
}

type epochProblem struct {
	pass     *Pass
	aliases  map[types.Object]types.Object // header bindings (hdrAliases)
	reported map[token.Pos]bool
}

func (p *epochProblem) Entry() Fact                            { return epochFact{} }
func (p *epochProblem) Refine(_ ast.Expr, _ bool, f Fact) Fact { return f }
func (p *epochProblem) Join(a, b Fact) Fact {
	fa, fb := a.(epochFact), b.(epochFact)
	out := make(epochFact, len(fa)+len(fb))
	for k, v := range fa {
		out[k] = v
	}
	// Must-analysis: the worse state wins at a merge (escaped > unset >
	// set, in the order the constants declare).
	for k, v := range fb {
		if cur, ok := out[k]; !ok || v > cur {
			out[k] = v
		}
	}
	return out
}

func (p *epochProblem) Equal(a, b Fact) bool {
	fa, fb := a.(epochFact), b.(epochFact)
	if len(fa) != len(fb) {
		return false
	}
	for k, v := range fa {
		if fb[k] != v {
			return false
		}
	}
	return true
}

func (p *epochProblem) Transfer(n ast.Node, f Fact) Fact {
	fact := f.(epochFact)
	switch n := n.(type) {
	case *ast.AssignStmt:
		return p.transferAssign(n, fact)
	case *ast.ReturnStmt:
		out := fact
		for _, r := range n.Results {
			out = p.escape(r, out)
		}
		return out
	case *ast.SendStmt:
		return p.escape(n.Value, fact)
	case *ast.ExprStmt:
		return p.transferExpr(n.X, fact)
	default:
		if e, ok := n.(ast.Expr); ok {
			return p.transferExpr(e, fact)
		}
	}
	return fact
}

func (p *epochProblem) transferAssign(as *ast.AssignStmt, fact epochFact) epochFact {
	out := fact
	// Right-hand sides first: sinks/escapes happen before the binding.
	for _, rhs := range as.Rhs {
		out = p.transferExpr(rhs, out)
	}
	for i, lhs := range as.Lhs {
		var rhs ast.Expr
		if i < len(as.Rhs) {
			rhs = as.Rhs[i]
		}
		// `x.Epoch = …` stamps a tracked value, as does a stamp through
		// its header.
		if obj := epochStampTarget(p.pass.Pkg.Info, p.aliases, lhs); obj != nil {
			if out[obj] != 0 {
				out = epochWrite(out, obj, epochSet)
			}
			continue
		}
		obj := p.defOrUse(lhs)
		if obj == nil {
			// Storing a tracked value into a map/field/slice element
			// creates an alias we cannot follow.
			if rhs != nil {
				if robj := p.objOf(rhs); robj != nil && out[robj] != 0 {
					out = epochWrite(out, robj, epochEscaped)
				}
			}
			continue
		}
		if rhs != nil {
			if lit := compositeOf(rhs); lit != nil {
				if roundKindOfExpr(p.pass.Pkg.Info, lit) != roundNone {
					state := epochUnset
					if litSetsEpoch(p.pass.Pkg.Info, lit) {
						state = epochSet
					}
					out = epochWrite(out, obj, state)
					continue
				}
			}
			// `y := x` aliases a tracked value; give up on both sides.
			if robj := p.objOf(rhs); robj != nil && out[robj] != 0 {
				out = epochWrite(out, robj, epochEscaped)
			}
		}
		if out[obj] != 0 {
			out = epochWrite(out, obj, 0) // reassigned to something else
		}
	}
	return out
}

// transferExpr handles sinks, stamps, and escapes inside one expression.
func (p *epochProblem) transferExpr(e ast.Expr, fact epochFact) epochFact {
	out := fact
	WalkCFGNode(e, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.CompositeLit:
			if !isEventLit(p.pass.Pkg.Info, m) {
				// A tracked value embedded in any other literal escapes.
				for _, elt := range m.Elts {
					v := elt
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						v = kv.Value
					}
					if obj := p.objOf(v); obj != nil && out[obj] != 0 {
						out = epochWrite(out, obj, epochEscaped)
					}
				}
				return true
			}
			for _, elt := range m.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok || key.Name != "Data" {
					continue
				}
				obj := p.objOf(kv.Value)
				if obj == nil || out[obj] == 0 {
					continue
				}
				if out[obj] == epochUnset {
					p.report(kv.Value.Pos(), obj)
				}
			}
		case *ast.CallExpr:
			out = p.transferCall(m, out)
			return false // args already handled
		}
		return true
	})
	return out
}

func (p *epochProblem) transferCall(call *ast.CallExpr, fact epochFact) epochFact {
	out := fact
	// Nested calls/literals in arguments first.
	for _, a := range call.Args {
		switch a.(type) {
		case *ast.Ident:
		default:
			out = p.transferExpr(a, out)
		}
	}
	callees := p.pass.Prog.Callees(p.pass.Pkg, call)
	for j, a := range call.Args {
		obj := p.objOf(a)
		if obj == nil || out[obj] == 0 {
			continue
		}
		stamps, sinks := false, false
		for _, callee := range callees {
			if j < len(callee.StampsEpoch) && callee.StampsEpoch[j] {
				stamps = true
			}
			if j < len(callee.SinksEventData) && callee.SinksEventData[j] {
				sinks = true
			}
		}
		switch {
		case sinks:
			if out[obj] == epochUnset {
				p.report(a.Pos(), obj)
			}
		case stamps:
			out = epochWrite(out, obj, epochSet)
		default:
			// Unknown effect on the value: escape.
			out = epochWrite(out, obj, epochEscaped)
		}
	}
	return out
}

func (p *epochProblem) escape(e ast.Expr, fact epochFact) epochFact {
	if obj := p.objOf(e); obj != nil && fact[obj] != 0 {
		return epochWrite(fact, obj, epochEscaped)
	}
	return p.transferExpr(e, fact)
}

func (p *epochProblem) report(pos token.Pos, obj types.Object) {
	if p.reported == nil || p.reported[pos] {
		return
	}
	p.reported[pos] = true
	p.pass.Reportf(pos,
		"round message %q reaches an Event send without Epoch assigned on every path; stamp it (through its RoundHdr or an Epoch field in the literal) before sending",
		obj.Name())
}

func (p *epochProblem) objOf(e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	return p.pass.Pkg.Info.Uses[id]
}

func (p *epochProblem) defOrUse(e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	info := p.pass.Pkg.Info
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
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

// litSetsEpoch reports whether the literal assigns Epoch: an explicit
// `Epoch:` key, a full positional literal (every field present), or an
// embedded RoundHdr that does either (a header value copied in whole
// counts as assigned).
func litSetsEpoch(info *types.Info, lit *ast.CompositeLit) bool {
	positional := len(lit.Elts) > 0
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			if hdr := compositeOf(elt); hdr != nil && roundTypeName(info, hdr) == "RoundHdr" {
				return litSetsEpoch(info, hdr)
			}
			continue
		}
		positional = false
		key, ok := kv.Key.(*ast.Ident)
		switch {
		case !ok:
		case key.Name == "Epoch":
			return true
		case key.Name == "RoundHdr":
			if hdr := compositeOf(kv.Value); hdr != nil {
				return litSetsEpoch(info, hdr)
			}
			return true
		}
	}
	return positional
}

func epochWrite(f epochFact, obj types.Object, state epochState) epochFact {
	if f[obj] == state {
		return f
	}
	out := make(epochFact, len(f)+1)
	for k, v := range f {
		out[k] = v
	}
	if state == 0 {
		delete(out, obj)
	} else {
		out[obj] = state
	}
	return out
}
