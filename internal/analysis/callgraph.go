package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The interprocedural half of the dataflow layer: a class-hierarchy-
// analysis (CHA) call graph over every loaded package, plus transitive
// effect summaries the whole-program analyzers consume — "may block
// virtual time", "performs an order-bearing send", "may return nil",
// "dereferences parameter i unguarded", "safe on a nil receiver".
//
// Resolution rules (documented approximations — this is a convention
// checker, not a verifier):
//
//   - Direct calls and concrete method calls resolve statically.
//   - Interface method calls resolve CHA-style to every module method
//     with that name whose receiver implements the interface.
//   - Calls through function *values* (locals, params, fields) resolve to
//     nothing and are assumed effect-free.
//   - A function literal's body is attributed to its enclosing function,
//     EXCEPT literals passed to a process launcher (Engine.Go/GoAt — the
//     body runs on a fresh simulated process, where blocking is the
//     point) or to a deferred-callback registrar (Engine.At/After/
//     schedule, Schedule.OnCrash — the body runs on the engine goroutine
//     and is a non-blocking *context*, which vtblock checks separately).
type Program struct {
	Pkgs  []*Package
	Funcs map[*types.Func]*FuncNode
	nodes []*FuncNode // build order: pkg path, file, declaration

	methodsByName map[string][]*FuncNode
}

// CallSite is one resolved call expression inside a function body.
type CallSite struct {
	Call *ast.CallExpr
	// Callees are the possible module-internal targets (empty for stdlib
	// and unresolvable function values). CHA interface calls have one
	// entry per implementing method.
	Callees []*FuncNode
	// argObjs[i] is the object of argument i when it is a bare
	// identifier, for parameter-summary propagation (nil otherwise).
	argObjs []types.Object
}

// FuncNode is one declared function or method with its summaries.
type FuncNode struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	id   int

	Sites []*CallSite

	// Blocks: calling this function may reach (*Proc).park — it can
	// block virtual time. blockVia is the witness callee (nil for seeds).
	Blocks   bool
	blockVia *FuncNode

	// OrderEffect: the function transitively performs an order-bearing
	// side effect (one of maprange's orderSinks). orderPrim names the
	// seed's own direct sink call; orderVia the witness callee.
	OrderEffect bool
	orderVia    *FuncNode
	orderPrim   string

	// DerefsParam[i] (indexed like Signature.Params, receiver excluded):
	// the callee dereferences argument i with no nil comparison anywhere
	// in its body.
	DerefsParam []bool

	// NilableResult[i]: result i may be a literal nil (transitively).
	NilableResult []bool

	// NilGuarded: a pointer-receiver method that is safe to call on a nil
	// receiver. It opens with a receiver nil-guard, has an empty body or
	// an anonymous receiver, or touches the receiver only to compare it
	// with nil and to call NilGuarded methods on it (Stalled delegating
	// to StallRemaining, Enabled's `return r != nil`).
	NilGuarded bool
	// recvDelegates are the methods a delegating method calls on its
	// receiver; NilGuarded follows once all of them are.
	recvDelegates []*FuncNode

	// seeds, kept separate so fixpoint recomputation is idempotent
	summariesInit   bool
	seedBlocks      bool
	seedDerefs      []bool
	seedNilable     []bool
	paramIndex      map[types.Object]int // params and their assert/switch bindings
	guardedParams   map[int]bool         // params nil-compared somewhere in the body
	returnPositions [][]returnExpr
	// localNil marks locals that may hold nil flow-insensitively: assigned
	// a nil literal, declared without an initializer (pointer-typed), or
	// bound by a comma-ok assertion/map-read/channel-receive.
	localNil   map[types.Object]bool
	localCalls map[types.Object][]localSource
}

type returnExpr struct {
	isNil bool
	call  *ast.CallExpr // single-call return, for nilable propagation
	local types.Object  // returned local variable, for nilable propagation
}

// localSource records where a local variable's value came from, for
// returned-local nilability: `v := f(); return v` is as nilable as f.
type localSource struct {
	call *ast.CallExpr
	idx  int // result index of the call assigned to the local
}

const (
	blocksMarker      = "iocheck:blocks"
	nonblockingMarker = "iocheck:nonblocking"
)

// launcherMethods start a new simulated process; callbackMethods register
// an engine-goroutine callback. Both take the function out of the
// caller's synchronous flow. Matched by method name, same contract style
// as maprange's orderSinks.
var launcherMethods = map[string]bool{"Go": true, "GoAt": true}
var callbackMethods = map[string]bool{"At": true, "After": true, "schedule": true, "OnCrash": true}

// String renders the node as "(T).M", "(*T).M", or "F" for chains.
func (n *FuncNode) String() string {
	sig, _ := n.Obj.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := ""
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			ptr = "*"
		}
		if named, ok := t.(*types.Named); ok {
			return "(" + ptr + named.Obj().Name() + ")." + n.Obj.Name()
		}
	}
	return n.Obj.Name()
}

// BlockChain renders the witness path from this function to the blocking
// primitive, e.g. "(*Mailbox).Recv → (*Queue).Get → (*Queue).await →
// (*Proc).park".
func (n *FuncNode) BlockChain() string {
	var parts []string
	for cur := n; cur != nil && len(parts) < 8; cur = cur.blockVia {
		parts = append(parts, cur.String())
	}
	return strings.Join(parts, " → ")
}

// OrderChain renders the witness path to the order-bearing sink call,
// e.g. "closeAll → (*Bridge).forward → b.q.TryPut".
func (n *FuncNode) OrderChain() string {
	var parts []string
	cur := n
	for ; cur != nil && len(parts) < 8; cur = cur.orderVia {
		parts = append(parts, cur.String())
		if cur.orderVia == nil {
			break
		}
	}
	if cur != nil && cur.orderPrim != "" {
		parts = append(parts, cur.orderPrim)
	}
	return strings.Join(parts, " → ")
}

// NewProgram builds the call graph and runs the summary fixpoint.
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:          pkgs,
		Funcs:         make(map[*types.Func]*FuncNode),
		methodsByName: make(map[string][]*FuncNode),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &FuncNode{Obj: obj, Decl: fd, Pkg: pkg, id: len(prog.nodes)}
				prog.Funcs[obj] = node
				prog.nodes = append(prog.nodes, node)
				if fd.Recv != nil {
					prog.methodsByName[obj.Name()] = append(prog.methodsByName[obj.Name()], node)
				}
			}
		}
	}
	for _, n := range prog.nodes {
		prog.collect(n)
	}
	prog.fixpoint()
	return prog
}

// Node returns the graph node of a declared function object (nil when the
// object is external or bodiless). Instantiated generic methods resolve
// to their declaration.
func (prog *Program) Node(obj *types.Func) *FuncNode {
	if obj == nil {
		return nil
	}
	return prog.Funcs[obj.Origin()]
}

// Callees resolves a call expression (from pkg) to its possible module
// targets: statically for direct and concrete-method calls, CHA-style for
// interface method calls, empty for function values and externals.
func (prog *Program) Callees(pkg *Package, call *ast.CallExpr) []*FuncNode {
	fun := ast.Unparen(call.Fun)
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return nil // conversion, not a call
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			if n := prog.Node(fn); n != nil {
				return []*FuncNode{n}
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			m, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			if types.IsInterface(sel.Recv()) {
				return prog.implementers(m.Name(), sel.Recv())
			}
			if n := prog.Node(m); n != nil {
				return []*FuncNode{n}
			}
			return nil
		}
		// Qualified identifier: pkgname.Func.
		if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			if n := prog.Node(fn); n != nil {
				return []*FuncNode{n}
			}
		}
	}
	return nil
}

// FuncValue resolves an expression used as a function value — a function
// identifier or a method value like p.unpark — to its node. This is how
// callback registrations (`eng.At(t, gm.tick)`) join the graph.
func (prog *Program) FuncValue(pkg *Package, e ast.Expr) *FuncNode {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[e].(*types.Func); ok {
			return prog.Node(fn)
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[e]; ok && sel.Kind() == types.MethodVal {
			if m, ok := sel.Obj().(*types.Func); ok {
				return prog.Node(m)
			}
		}
		if fn, ok := pkg.Info.Uses[e.Sel].(*types.Func); ok {
			return prog.Node(fn)
		}
	}
	return nil
}

// implementers is the CHA step: every module method named name whose
// receiver (or its pointer) implements the interface.
func (prog *Program) implementers(name string, iface types.Type) []*FuncNode {
	it, ok := iface.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*FuncNode
	for _, cand := range prog.methodsByName[name] {
		sig, _ := cand.Obj.Type().(*types.Signature)
		if sig == nil || sig.Recv() == nil {
			continue
		}
		rt := sig.Recv().Type()
		if types.Implements(rt, it) {
			out = append(out, cand)
			continue
		}
		if _, isPtr := rt.(*types.Pointer); !isPtr && types.Implements(types.NewPointer(rt), it) {
			out = append(out, cand)
		}
	}
	return out
}

// deferredCallKind classifies a call site whose function-literal arguments
// must NOT be attributed to the enclosing function.
func deferredCallKind(pkg *Package, call *ast.CallExpr) (launcher, callback bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false, false
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if _, isPkg := pkg.Info.Uses[id].(*types.PkgName); isPkg {
			return false, false
		}
	}
	return launcherMethods[sel.Sel.Name], callbackMethods[sel.Sel.Name]
}

// walkOwnCode visits the nodes of a function body that execute as part of
// the function's own synchronous flow: it descends into function literals
// (conservative: they may be invoked in place) but skips literals handed
// to launchers and callback registrars.
func walkOwnCode(pkg *Package, body ast.Node, visit func(ast.Node) bool) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if !visit(n) {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		launcher, callback := deferredCallKind(pkg, call)
		if !launcher && !callback {
			return true
		}
		ast.Inspect(call.Fun, walk)
		for _, a := range call.Args {
			if _, isLit := a.(*ast.FuncLit); isLit {
				continue
			}
			ast.Inspect(a, walk)
		}
		return false
	}
	ast.Inspect(body, walk)
}

// collect computes one node's call sites and summary seeds.
func (prog *Program) collect(n *FuncNode) {
	pkg := n.Pkg
	info := pkg.Info

	// Marker seeds. The blocking root is (*Proc).park — the one primitive
	// every sim wait path funnels through — or an explicit iocheck:blocks
	// marker for code the graph cannot see through.
	typeName, recvName, ptr := receiverOf(n.Decl)
	if n.Obj.Name() == "park" && typeName == "Proc" {
		n.seedBlocks = true
	}
	if hasDocMarker(n.Decl.Doc, blocksMarker) {
		n.seedBlocks = true
	}

	sig, _ := n.Obj.Type().(*types.Signature)
	nparams := 0
	nresults := 0
	if sig != nil {
		nparams = sig.Params().Len()
		nresults = sig.Results().Len()
	}
	n.seedDerefs = make([]bool, nparams)
	n.seedNilable = make([]bool, nresults)
	n.guardedParams = make(map[int]bool)
	n.paramIndex = make(map[types.Object]int)
	n.localNil = make(map[types.Object]bool)
	n.localCalls = make(map[types.Object][]localSource)
	if sig != nil {
		for i := 0; i < nparams; i++ {
			n.paramIndex[sig.Params().At(i)] = i
		}
	}

	if ptr {
		prog.classifyNilGuard(n, recvName)
	}

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

	walkOwnCode(pkg, n.Decl.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.CallExpr:
			site := &CallSite{Call: node, Callees: prog.Callees(pkg, node)}
			for _, a := range node.Args {
				var obj types.Object
				if id, ok := ast.Unparen(a).(*ast.Ident); ok {
					obj = info.Uses[id]
				}
				site.argObjs = append(site.argObjs, obj)
			}
			n.Sites = append(n.Sites, site)
			// Order-effect seed: a direct call to an orderSinks method.
			if sel, ok := node.Fun.(*ast.SelectorExpr); ok && orderSinks[sel.Sel.Name] {
				isPkgFunc := false
				if id, ok := sel.X.(*ast.Ident); ok {
					if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
						isPkgFunc = true
					}
				}
				if !isPkgFunc && n.orderPrim == "" {
					n.orderPrim = types.ExprString(sel.X) + "." + sel.Sel.Name
				}
			}
		case *ast.ValueSpec:
			n.recordSpecSources(info, node)
		case *ast.AssignStmt:
			n.recordAssignSources(info, node)
			// Alias registration: q := p.(*T) binds q to param p.
			if len(node.Rhs) == 1 {
				if ta, ok := node.Rhs[0].(*ast.TypeAssertExpr); ok && ta.Type != nil {
					if i := paramAt(ta.X); i >= 0 && len(node.Lhs) >= 1 {
						if id, ok := node.Lhs[0].(*ast.Ident); ok {
							if obj := info.Defs[id]; obj != nil {
								n.paramIndex[obj] = i
							}
						}
					}
				}
			}
		case *ast.TypeSwitchStmt:
			// switch m := p.(type): each case clause's implicit binding
			// aliases the parameter.
			if as, ok := node.Assign.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
				if ta, ok := as.Rhs[0].(*ast.TypeAssertExpr); ok {
					if i := paramAt(ta.X); i >= 0 {
						for _, st := range node.Body.List {
							if cc, ok := st.(*ast.CaseClause); ok {
								if obj := info.Implicits[cc]; obj != nil {
									n.paramIndex[obj] = i
								}
							}
						}
					}
				}
			}
		case *ast.BinaryExpr:
			// A nil comparison of a parameter anywhere disarms the
			// unguarded-deref summary for it.
			if isNilCompare(node) {
				if i := paramAt(node.X); i >= 0 {
					n.guardedParams[i] = true
				}
				if i := paramAt(node.Y); i >= 0 {
					n.guardedParams[i] = true
				}
			}
		case *ast.SelectorExpr:
			// Deref seed: p.f on a pointer parameter. Method values/calls
			// on p also dereference unless the method is nil-guarded —
			// resolved later; here only field selections count, which
			// keeps the seed independent of fixpoint order.
			if i := paramAt(node.X); i >= 0 {
				if isFieldSelect(info, node) && isPointerParam(sig, i) {
					n.seedDerefs[i] = true
				}
			}
		case *ast.StarExpr:
			if i := paramAt(node.X); i >= 0 {
				n.seedDerefs[i] = true
			}
		case *ast.ReturnStmt:
			var row []returnExpr
			for _, r := range node.Results {
				re := returnExpr{}
				if id, ok := ast.Unparen(r).(*ast.Ident); ok {
					if isNilIdent(info, id) {
						re.isNil = true
					} else if obj := info.Uses[id]; obj != nil {
						if _, isParam := n.paramIndex[obj]; !isParam {
							re.local = obj
						}
					}
				}
				if call, ok := ast.Unparen(r).(*ast.CallExpr); ok {
					re.call = call
				}
				row = append(row, re)
			}
			n.returnPositions = append(n.returnPositions, row)
		}
		return true
	})

	// Direct nil-return seeds. A single-expression `return f()` defers to
	// the fixpoint; explicit nils seed here.
	for _, row := range n.returnPositions {
		if len(row) == nresults {
			for i, re := range row {
				if re.isNil {
					n.seedNilable[i] = true
				}
			}
		}
	}
}

// recordAssignSources notes where locals get their values, for the
// returned-local nilability seeds: nil literals, comma-ok bindings, and
// call results.
func (n *FuncNode) recordAssignSources(info *types.Info, as *ast.AssignStmt) {
	objAt := func(e ast.Expr) types.Object { return defOrUseObj(info, e) }
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			if !errorPairedCall(info, call) {
				for i, l := range as.Lhs {
					if obj := objAt(l); obj != nil {
						n.localCalls[obj] = append(n.localCalls[obj], localSource{call, i})
					}
				}
			}
			return
		}
		// Comma-ok forms: `x, _ := v.(*T)` / `m[k]` / `<-ch` — x is the
		// zero value (nil for pointer-likes) when the discarded ok is
		// false. When ok is bound to a real variable the convention is
		// that the caller tests it before using x (`if g, ok := m[k]; ok
		// { return g }`), so only the discarded-ok form seeds nilability.
		if len(as.Lhs) == 2 {
			okID, okIsBlank := as.Lhs[1].(*ast.Ident)
			if !okIsBlank || okID.Name != "_" {
				return
			}
			commaOK := false
			switch rhs := ast.Unparen(as.Rhs[0]).(type) {
			case *ast.TypeAssertExpr, *ast.IndexExpr:
				commaOK = true
			case *ast.UnaryExpr:
				commaOK = rhs.Op == token.ARROW
			}
			if commaOK {
				if obj := objAt(as.Lhs[0]); obj != nil && pointerLike(obj.Type()) {
					n.localNil[obj] = true
				}
			}
		}
		return
	}
	for i, l := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		obj := objAt(l)
		if obj == nil {
			continue
		}
		switch rhs := ast.Unparen(as.Rhs[i]).(type) {
		case *ast.Ident:
			if isNilIdent(info, rhs) {
				n.localNil[obj] = true
			}
		case *ast.CallExpr:
			n.localCalls[obj] = append(n.localCalls[obj], localSource{rhs, 0})
		}
	}
}

// recordSpecSources is recordAssignSources for `var` declarations; a
// pointer-typed declaration without an initializer starts out nil.
func (n *FuncNode) recordSpecSources(info *types.Info, vs *ast.ValueSpec) {
	for i, name := range vs.Names {
		obj := info.Defs[name]
		if obj == nil || name.Name == "_" {
			continue
		}
		if len(vs.Values) == 0 {
			if pointerLike(obj.Type()) {
				n.localNil[obj] = true
			}
			continue
		}
		if len(vs.Values) == 1 && len(vs.Names) > 1 {
			if call, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr); ok && !errorPairedCall(info, call) {
				n.localCalls[obj] = append(n.localCalls[obj], localSource{call, i})
			}
			continue
		}
		if i >= len(vs.Values) {
			continue
		}
		switch rhs := ast.Unparen(vs.Values[i]).(type) {
		case *ast.Ident:
			if isNilIdent(info, rhs) {
				n.localNil[obj] = true
			}
		case *ast.CallExpr:
			n.localCalls[obj] = append(n.localCalls[obj], localSource{rhs, 0})
		}
	}
}

// errorPairedCall reports whether the call's result tuple ends in an
// `error` or a `bool`. Such results follow the check-first convention
// (err != nil / comma-ok): a nil value result travels with a non-nil
// error or a false ok, which the caller tests before dereferencing, so
// the value results are not treated as nilable sources (see
// calleeNilable).
func errorPairedCall(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok {
		return false
	}
	var last types.Type
	switch t := tv.Type.(type) {
	case *types.Tuple:
		if t.Len() < 2 {
			return false
		}
		last = t.At(t.Len() - 1).Type()
	default:
		return false
	}
	if named, ok := last.(*types.Named); ok {
		return named.Obj().Name() == "error" && named.Obj().Pkg() == nil
	}
	if basic, ok := last.(*types.Basic); ok {
		return basic.Kind() == types.Bool
	}
	return false
}

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name != "nil" {
		return false
	}
	if info.Uses[id] == nil {
		return true
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

// useObj returns the object an identifier expression refers to (nil for
// anything else).
func useObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	return info.Uses[id]
}

// defOrUseObj is useObj that also resolves an identifier being defined,
// as on the left of `:=`; the blank identifier has no object.
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

func isNilCompare(be *ast.BinaryExpr) bool {
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	return (be.Op == token.EQL || be.Op == token.NEQ) && (isNil(be.X) || isNil(be.Y))
}

// receiverOf returns the receiver's base type name, the receiver variable
// name ("" when anonymous), and whether the receiver is a pointer.
func receiverOf(fd *ast.FuncDecl) (typeName, recvName string, ptr bool) {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return "", "", false
	}
	field := fd.Recv.List[0]
	t := field.Type
	if star, ok := t.(*ast.StarExpr); ok {
		ptr = true
		t = star.X
	}
	id, ok := t.(*ast.Ident)
	if !ok {
		return "", "", false
	}
	if len(field.Names) == 1 && field.Names[0].Name != "_" {
		recvName = field.Names[0].Name
	}
	return id.Name, recvName, ptr
}

// classifyNilGuard seeds NilGuarded for a pointer-receiver method, or
// records the receiver methods it delegates to when every other use of
// the receiver is a nil comparison (the fixpoint then decides).
func (prog *Program) classifyNilGuard(n *FuncNode, recvName string) {
	if recvName == "" {
		n.NilGuarded = true // an anonymous receiver cannot be dereferenced
		return
	}
	info := n.Pkg.Info
	recv := info.Defs[n.Decl.Recv.List[0].Names[0]]
	isRecv := func(e ast.Expr) bool { return useObj(info, e) == recv }
	if opensWithNilGuard(n.Decl.Body, isRecv) {
		n.NilGuarded = true
		return
	}
	safe := make(map[ast.Expr]bool) // receiver uses that dereference nothing
	var delegates []*FuncNode
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.BinaryExpr:
			if isNilCompare(node) {
				for _, e := range []ast.Expr{node.X, node.Y} {
					if isRecv(e) {
						safe[e] = true
					}
				}
			}
		case *ast.SelectorExpr:
			// A promoted method (len(Index) > 1) reaches through an
			// embedded field first, which dereferences the receiver.
			if s, ok := info.Selections[node]; ok && s.Kind() == types.MethodVal &&
				len(s.Index()) == 1 && isRecv(node.X) {
				m, _ := s.Obj().(*types.Func)
				if d := prog.Node(m); d != nil {
					safe[node.X] = true
					delegates = append(delegates, d)
				}
			}
		}
		return true
	})
	ok := true
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		if id, isID := node.(*ast.Ident); isID && isRecv(id) && !safe[id] {
			ok = false
		}
		return ok
	})
	if ok {
		n.NilGuarded = len(delegates) == 0
		n.recvDelegates = delegates
	}
}

// opensWithNilGuard reports whether the body is empty or its first
// statement is an if whose condition compares the receiver with nil.
func opensWithNilGuard(body *ast.BlockStmt, isRecv func(ast.Expr) bool) bool {
	if len(body.List) == 0 {
		return true // empty body cannot dereference anything
	}
	ifStmt, ok := body.List[0].(*ast.IfStmt)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(ifStmt.Cond, func(node ast.Node) bool {
		if be, ok := node.(*ast.BinaryExpr); ok && isNilCompare(be) && (isRecv(be.X) || isRecv(be.Y)) {
			found = true
		}
		return !found
	})
	return found
}

func isFieldSelect(info *types.Info, sel *ast.SelectorExpr) bool {
	s, ok := info.Selections[sel]
	return ok && s.Kind() == types.FieldVal
}

func isPointerParam(sig *types.Signature, i int) bool {
	if sig == nil || i >= sig.Params().Len() {
		return false
	}
	_, ok := sig.Params().At(i).Type().Underlying().(*types.Pointer)
	return ok
}

// fixpoint iterates summary propagation over the whole graph until
// stable. Every bit is monotone, so a plain round-robin sweep in node
// order converges deterministically.
func (prog *Program) fixpoint() {
	for changed := true; changed; {
		changed = false
		for _, n := range prog.nodes {
			if prog.recompute(n) {
				changed = true
			}
		}
	}
}

func (prog *Program) recompute(n *FuncNode) bool {
	changed := false

	set := func(dst *bool, v bool) {
		if v && !*dst {
			*dst = true
			changed = true
		}
	}

	// Seeds.
	set(&n.Blocks, n.seedBlocks)
	set(&n.OrderEffect, n.orderPrim != "")
	if !n.summariesInit {
		n.summariesInit = true
		n.DerefsParam = make([]bool, len(n.seedDerefs))
		n.NilableResult = make([]bool, len(n.seedNilable))
	}
	for i, v := range n.seedDerefs {
		set(&n.DerefsParam[i], v && !n.guardedParams[i])
	}
	for i, v := range n.seedNilable {
		set(&n.NilableResult[i], v)
	}

	// A method that calls only NilGuarded methods on its receiver is
	// NilGuarded itself.
	if !n.NilGuarded && n.recvDelegates != nil {
		all := true
		for _, d := range n.recvDelegates {
			all = all && d.NilGuarded
		}
		set(&n.NilGuarded, all)
	}

	// Call-edge propagation.
	for _, site := range n.Sites {
		for _, callee := range site.Callees {
			if callee.Blocks && !n.Blocks {
				n.Blocks = true
				n.blockVia = callee
				changed = true
			}
			if callee.OrderEffect && !n.OrderEffect {
				n.OrderEffect = true
				n.orderVia = callee
				changed = true
			}
			for j, obj := range site.argObjs {
				i, isParam := n.paramIndex[obj]
				if !isParam || obj == nil {
					continue
				}
				if callee.DerefsParam != nil && j < len(callee.DerefsParam) && callee.DerefsParam[j] && !n.guardedParams[i] {
					set(&n.DerefsParam[i], true)
				}
			}
		}
	}

	// Nilable-return propagation: `return f(…)` forwards f's nilability.
	for _, row := range n.returnPositions {
		if len(row) == 1 && row[0].call != nil && len(n.NilableResult) >= 1 {
			for _, callee := range prog.Callees(n.Pkg, row[0].call) {
				for i := 0; i < len(n.NilableResult) && i < len(callee.NilableResult); i++ {
					set(&n.NilableResult[i], callee.NilableResult[i])
				}
			}
		} else if len(row) == len(n.NilableResult) {
			for i, re := range row {
				if re.local != nil {
					if n.localNil[re.local] {
						set(&n.NilableResult[i], true)
					}
					for _, src := range n.localCalls[re.local] {
						for _, callee := range prog.Callees(n.Pkg, src.call) {
							if src.idx < len(callee.NilableResult) && callee.NilableResult[src.idx] {
								set(&n.NilableResult[i], true)
							}
						}
					}
				}
				if re.call == nil {
					continue
				}
				for _, callee := range prog.Callees(n.Pkg, re.call) {
					if len(callee.NilableResult) == 1 && callee.NilableResult[0] {
						set(&n.NilableResult[i], true)
					}
				}
			}
		}
	}

	return changed
}

// Nonblocking reports whether the function declaration carries the
// iocheck:nonblocking marker, declaring "runs in a context that must not
// block virtual time" (GM dispatch, pump serve path).
func Nonblocking(fd *ast.FuncDecl) bool {
	return hasDocMarker(fd.Doc, nonblockingMarker)
}

// hasDocMarker scans the raw doc comments for an iocheck marker.
// CommentGroup.Text() cannot be used here: it strips `//name:directive`
// comments — exactly the shape the markers take.
func hasDocMarker(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.Contains(c.Text, marker) {
			return true
		}
	}
	return false
}
