package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NilFlow follows nilable return values into dereferences. A function
// whose result may be a literal nil (transitively, through the call graph)
// taints the local the caller assigns it to; a dereference of that local —
// field access, *x, indexing, a method call on it, or passing it to a
// callee that dereferences its parameter unguarded — is a finding unless
// a nil check dominates it. The check is branch-sensitive over the CFG: the analysis
// decomposes short-circuit conditions and refines facts along `x == nil`
// / `x != nil` edges, so the repo's `q := gm.Query(…); if q == nil {
// continue }` idiom proves itself safe. A short-circuit expression outside
// a branch condition (`return x != nil && x.F`, `ok := x == nil || x.F`)
// is refined the same way: its right operand is checked under what the
// left operand proves when the right one runs. A method call on a possibly-nil
// value is safe when the callee's NilGuarded summary says so: it opens
// with a receiver nil-guard or touches the receiver only through nil
// comparisons and other NilGuarded methods. That summary is computed, not
// declared, so "nil means disabled" types (fault.Schedule, trace.Recorder)
// are trusted exactly as far as their method bodies earn it; the runtime
// half of that contract is the nil-receiver tests in their packages.
var NilFlow = &Analyzer{
	Name:    "nilflow",
	Doc:     "nilable return values must be nil-checked before dereference (CFG + call-graph summaries)",
	Applies: internalPkg,
	Run:     runNilFlow,
}

type nilState uint8

const (
	nilMaybe nilState = iota + 1
	nilNot
)

// nilFact maps tracked locals (pointer-typed vars assigned from nilable
// calls) to their state. Facts are treated as immutable; transfer copies
// before writing.
type nilFact map[types.Object]nilState

func runNilFlow(pass *Pass) {
	if pass.Prog == nil {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, fd := range enclosingFuncs(f) {
			runNilFlowFunc(pass, fd)
		}
	}
}

func runNilFlowFunc(pass *Pass, fd *ast.FuncDecl) {
	prob := &nilProblem{pass: pass}
	cfg := BuildCFG(fd)
	in := Forward(cfg, prob)
	// Report phase: replay each reachable block's transfer with its
	// solved entry fact, now with reporting armed.
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

type nilProblem struct {
	pass *Pass
	// reported is nil during the solve; non-nil arms diagnostics (and
	// dedupes them across blocks).
	reported map[token.Pos]bool
}

func (p *nilProblem) Entry() Fact { return nilFact{} }

func (p *nilProblem) Join(a, b Fact) Fact {
	fa, fb := a.(nilFact), b.(nilFact)
	out := make(nilFact, len(fa)+len(fb))
	for k, v := range fa {
		out[k] = v
	}
	// May-analysis: a value that may be nil on either path may be nil at
	// the merge.
	for k, v := range fb {
		if cur, ok := out[k]; ok && cur != v {
			out[k] = nilMaybe
		} else if !ok {
			out[k] = v
		}
	}
	return out
}

func (p *nilProblem) Equal(a, b Fact) bool {
	fa, fb := a.(nilFact), b.(nilFact)
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

// Refine interprets a condition-leaf edge: `x == nil` false and
// `x != nil` true both prove x non-nil.
func (p *nilProblem) Refine(cond ast.Expr, branch bool, f Fact) Fact {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return f
	}
	var other ast.Expr
	if id, ok := ast.Unparen(be.X).(*ast.Ident); ok && id.Name == "nil" {
		other = be.Y
	} else if id, ok := ast.Unparen(be.Y).(*ast.Ident); ok && id.Name == "nil" {
		other = be.X
	} else {
		return f
	}
	obj := p.objOf(other)
	fact := f.(nilFact)
	if obj == nil || fact[obj] == 0 {
		return f
	}
	nonNil := (be.Op == token.EQL && !branch) || (be.Op == token.NEQ && branch)
	if !nonNil {
		return f
	}
	out := copyNilFact(fact)
	out[obj] = nilNot
	return out
}

// refineExpr is Refine over a whole boolean expression: what e
// evaluating to branch proves. A true && proves both operands true and a
// false || both false; ! flips the branch; anything else is a leaf.
func (p *nilProblem) refineExpr(e ast.Expr, branch bool, f nilFact) nilFact {
	switch x := ast.Unparen(e).(type) {
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			return p.refineExpr(x.X, !branch, f)
		}
	case *ast.BinaryExpr:
		if x.Op == token.LAND && branch || x.Op == token.LOR && !branch {
			return p.refineExpr(x.Y, branch, p.refineExpr(x.X, branch, f))
		}
	}
	return p.Refine(e, branch, f).(nilFact)
}

func (p *nilProblem) Transfer(n ast.Node, f Fact) Fact {
	fact := f.(nilFact)
	// Deref checks see the fact before this node's assignments take
	// effect; a survived dereference then proves the value non-nil.
	fact = p.checkDerefs(n, fact)
	switch n := n.(type) {
	case *ast.AssignStmt:
		fact = p.transferAssign(n, fact)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					fact = p.trackInit(vs.Names, vs.Values, fact)
				}
			}
		}
	case *ast.RangeStmt:
		// `for x = range …` (assignment form) clobbers tracked vars.
		if n.Tok == token.ASSIGN {
			out := copyNilFact(fact)
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if obj := p.objOf(e); obj != nil {
					delete(out, obj)
				}
			}
			fact = out
		}
	case *ast.UnaryExpr:
		// &x aliases the local; stop tracking it.
		if n.Op == token.AND {
			if obj := p.objOf(n.X); obj != nil && fact[obj] != 0 {
				out := copyNilFact(fact)
				delete(out, obj)
				fact = out
			}
		}
	}
	return fact
}

func (p *nilProblem) transferAssign(as *ast.AssignStmt, fact nilFact) nilFact {
	// Single multi-value call: x, y := f().
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			return p.trackCallResults(as.Lhs, call, fact)
		}
	}
	out := fact
	for i, lhs := range as.Lhs {
		obj := p.defOrUse(lhs)
		if obj == nil {
			continue
		}
		var rhs ast.Expr
		if i < len(as.Rhs) {
			rhs = as.Rhs[i]
		}
		state := p.rhsState(rhs)
		if state != 0 && !pointerLike(obj.Type()) {
			state = 0
		}
		out = setOrDelete(out, obj, state)
	}
	return out
}

func (p *nilProblem) trackInit(names []*ast.Ident, values []ast.Expr, fact nilFact) nilFact {
	if len(values) == 1 && len(names) > 1 {
		if call, ok := ast.Unparen(values[0]).(*ast.CallExpr); ok {
			lhs := make([]ast.Expr, len(names))
			for i, id := range names {
				lhs[i] = id
			}
			return p.trackCallResults(lhs, call, fact)
		}
	}
	out := fact
	for i, id := range names {
		obj := p.pass.Pkg.Info.Defs[id]
		if obj == nil {
			continue
		}
		var rhs ast.Expr
		if i < len(values) {
			rhs = values[i]
		}
		state := p.rhsState(rhs)
		if state != 0 && !pointerLike(obj.Type()) {
			state = 0
		}
		out = setOrDelete(out, obj, state)
	}
	return out
}

// trackCallResults applies `a, b, … := f()` where result i's nilability
// comes from f's summary.
func (p *nilProblem) trackCallResults(lhs []ast.Expr, call *ast.CallExpr, fact nilFact) nilFact {
	out := fact
	nilable := p.calleeNilable(call)
	for i, l := range lhs {
		obj := p.defOrUse(l)
		if obj == nil {
			continue
		}
		state := nilState(0)
		if i < len(nilable) && nilable[i] && pointerLike(obj.Type()) {
			state = nilMaybe
		}
		out = setOrDelete(out, obj, state)
	}
	return out
}

// rhsState classifies a single right-hand side: nilMaybe for calls with a
// nilable first result, 0 (untrack) otherwise.
func (p *nilProblem) rhsState(rhs ast.Expr) nilState {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return 0
	}
	nilable := p.calleeNilable(call)
	if len(nilable) >= 1 && nilable[0] {
		return nilMaybe
	}
	return 0
}

// calleeNilable merges the nilable-result summaries of the call's
// possible targets (any target returning nil makes the result nilable).
// Calls whose result tuple ends in `error` contribute nothing: by
// convention a nil value result travels with a non-nil error, and the
// caller's err check — which this analysis does not model — re-
// establishes non-nilness on the path that goes on to dereference.
func (p *nilProblem) calleeNilable(call *ast.CallExpr) []bool {
	if errorPairedCall(p.pass.Pkg.Info, call) {
		return nil
	}
	var out []bool
	for _, callee := range p.pass.Prog.Callees(p.pass.Pkg, call) {
		for i, v := range callee.NilableResult {
			for len(out) <= i {
				out = append(out, false)
			}
			if v {
				out[i] = true
			}
		}
	}
	return out
}

// checkDerefs reports dereferences of possibly-nil locals within one CFG
// node and flips survived values to non-nil.
func (p *nilProblem) checkDerefs(n ast.Node, fact nilFact) nilFact {
	out := fact
	WalkCFGNode(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.BinaryExpr:
			if m.Op != token.LAND && m.Op != token.LOR {
				return true
			}
			// The right operand runs only when the left one is true
			// (&&) or false (||), so it is checked under that outcome.
			// It may not run at all, so the values it survives stay as
			// the left operand left them.
			out = p.checkDerefs(m.X, out)
			p.checkDerefs(m.Y, p.refineExpr(m.X, m.Op == token.LAND, out))
			return false
		case *ast.SelectorExpr:
			obj := p.objOf(m.X)
			if obj == nil || out[obj] != nilMaybe {
				return true
			}
			if p.safeSelector(m) {
				return true
			}
			p.report(m.X.Pos(), obj, "dereferenced via .%s", m.Sel.Name)
			out = setOrDelete(out, obj, nilNot)
		case *ast.StarExpr:
			if obj := p.objOf(m.X); obj != nil && out[obj] == nilMaybe {
				p.report(m.X.Pos(), obj, "dereferenced via *%s", obj.Name())
				out = setOrDelete(out, obj, nilNot)
			}
		case *ast.IndexExpr:
			obj := p.objOf(m.X)
			if obj != nil && out[obj] == nilMaybe && indexPanicsOnNil(obj.Type()) {
				p.report(m.X.Pos(), obj, "indexed")
				out = setOrDelete(out, obj, nilNot)
			}
		case *ast.CallExpr:
			// Passing the value to a callee that dereferences the
			// parameter without its own guard.
			for j, a := range m.Args {
				obj := p.objOf(a)
				if obj == nil || out[obj] != nilMaybe {
					continue
				}
				for _, callee := range p.pass.Prog.Callees(p.pass.Pkg, m) {
					if j < len(callee.DerefsParam) && callee.DerefsParam[j] {
						p.report(a.Pos(), obj, "passed to %s, which dereferences the parameter unguarded", callee.String())
						out = setOrDelete(out, obj, nilNot)
						break
					}
				}
			}
		}
		return true
	})
	return out
}

// safeSelector reports whether selecting through a possibly-nil receiver
// is harmless: a method value whose summary proves it NilGuarded.
func (p *nilProblem) safeSelector(sel *ast.SelectorExpr) bool {
	s, ok := p.pass.Pkg.Info.Selections[sel]
	if !ok || s.Kind() == types.FieldVal || len(s.Index()) > 1 {
		return false
	}
	m, _ := s.Obj().(*types.Func)
	node := p.pass.Prog.Node(m)
	return node != nil && node.NilGuarded
}

func (p *nilProblem) report(pos token.Pos, obj types.Object, format string, args ...any) {
	if p.reported == nil || p.reported[pos] {
		return
	}
	p.reported[pos] = true
	msg := "value of %q may be nil (assigned from a nilable call) and is " + format + "; check it against nil first"
	p.pass.Reportf(pos, msg, append([]any{obj.Name()}, args...)...)
}

func (p *nilProblem) objOf(e ast.Expr) types.Object { return useObj(p.pass.Pkg.Info, e) }

// defOrUse resolves an assignment target whether it defines (:=) or
// reuses (=) the identifier.
func (p *nilProblem) defOrUse(e ast.Expr) types.Object { return defOrUseObj(p.pass.Pkg.Info, e) }

func setOrDelete(f nilFact, obj types.Object, state nilState) nilFact {
	if f[obj] == state {
		return f
	}
	out := copyNilFact(f)
	if state == 0 {
		delete(out, obj)
	} else {
		out[obj] = state
	}
	return out
}

func copyNilFact(f nilFact) nilFact {
	out := make(nilFact, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

func pointerLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Slice, *types.Signature, *types.Chan, *types.Interface:
		return true
	}
	return false
}

// indexPanicsOnNil: indexing a nil pointer-to-array panics uncondition-
// ally. Nil slices are excluded — every in-bounds access is guarded by
// `i < len(s)` somewhere, and len(nil) == 0 makes that guard airtight, so
// flagging them is noise.
func indexPanicsOnNil(t types.Type) bool {
	if u, ok := t.Underlying().(*types.Pointer); ok {
		_, isArr := u.Elem().Underlying().(*types.Array)
		return isArr
	}
	return false
}
