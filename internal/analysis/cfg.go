package analysis

import (
	"go/ast"
	"go/token"
)

// This file is the intraprocedural half of the whole-program dataflow
// layer: a control-flow-graph builder over go/ast function bodies. The
// graph is statement-granular with conditions decomposed to their
// short-circuit leaves, so a branch-sensitive analysis (nilflow's
// nil-check refinement) sees exactly the edges the runtime takes. It
// stays zero-dependency like the rest of the framework: go/ast and
// go/token only.

// CFG is the control-flow graph of one function body.
type CFG struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
	// Defers lists the function's defer statements in source order. Defer
	// statements appear inline at their registration position AND in the
	// Exit block's node list (in reverse registration order, matching the
	// runtime's LIFO execution). The inline copy is an over-approximation
	// of run-at-exit that is conservative for must-analyses; the Exit
	// copy is what lets forward analyses see `defer sp.End()` effects at
	// every return — without it a defer registered inside a loop is
	// invisible to the exit paths entirely.
	Defers []*ast.DeferStmt
}

// Block is a straight-line run of statements (and decomposed condition
// leaves) with no internal control transfer.
type Block struct {
	Index int
	// Nodes holds statements and condition expressions in execution order.
	Nodes []ast.Node
	Succs []*Edge
	Preds []*Edge
}

// Edge is one control transfer. When Cond is non-nil the edge is taken
// only when Cond evaluates to Branch — the hook branch-sensitive analyses
// refine facts on.
type Edge struct {
	From, To *Block
	Cond     ast.Expr
	Branch   bool
}

// WalkCFGNode visits n like ast.Inspect but stays within the CFG node:
// it does not descend into a RangeStmt's body (those statements live in
// their own blocks) or into function literals (their bodies execute
// elsewhere, or are separate vtblock contexts).
func WalkCFGNode(n ast.Node, visit func(ast.Node) bool) {
	if rs, ok := n.(*ast.RangeStmt); ok {
		if rs.Key != nil {
			WalkCFGNode(rs.Key, visit)
		}
		if rs.Value != nil {
			WalkCFGNode(rs.Value, visit)
		}
		WalkCFGNode(rs.X, visit)
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
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

// cfgBuilder tracks the under-construction graph and the targets of
// break/continue/goto.
type cfgBuilder struct {
	cfg    *CFG
	cur    *Block
	breaks []loopCtx // innermost last
	labels map[string]*labelCtx
	gotos  []pendingGoto
}

// loopCtx is one enclosing breakable/continuable construct.
type loopCtx struct {
	label        string
	breakTo      *Block
	continueTo   *Block // nil for switch/select (continue skips them)
	isSwitchLike bool
}

type labelCtx struct {
	block *Block // target of goto LABEL
}

type pendingGoto struct {
	from  *Block
	label string
}

// BuildCFG constructs the CFG of fn's body. fn must have a body.
func BuildCFG(fn *ast.FuncDecl) *CFG {
	return buildCFGFromBlock(fn.Body)
}

// BuildCFGLit constructs the CFG of a function literal's body.
func BuildCFGLit(lit *ast.FuncLit) *CFG {
	return buildCFGFromBlock(lit.Body)
}

func buildCFGFromBlock(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:    &CFG{},
		labels: make(map[string]*labelCtx),
	}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	b.cur = b.cfg.Entry
	b.stmtList(body.List)
	b.edge(b.cur, b.cfg.Exit, nil, false)
	for _, g := range b.gotos {
		if lc, ok := b.labels[g.label]; ok {
			b.edge(g.from, lc.block, nil, false)
		}
	}
	// Surface deferred statements at the exit, in LIFO order. Every
	// return edges into Exit, so a forward analysis observes the deferred
	// calls on each exit path even when the defer was registered inside a
	// loop or branch the path never revisits.
	for i := len(b.cfg.Defers) - 1; i >= 0; i-- {
		b.cfg.Exit.Nodes = append(b.cfg.Exit.Nodes, b.cfg.Defers[i])
	}
	return b.cfg
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// edge links from→to unless from is nil (dead code after a terminator).
func (b *cfgBuilder) edge(from, to *Block, cond ast.Expr, branch bool) {
	if from == nil || to == nil {
		return
	}
	e := &Edge{From: from, To: to, Cond: cond, Branch: branch}
	from.Succs = append(from.Succs, e)
	to.Preds = append(to.Preds, e)
}

func (b *cfgBuilder) add(n ast.Node) {
	if b.cur != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// stmt translates one statement; b.cur becomes nil after a terminator
// (return, branch, panic), making trailing dead code unreachable blocks.
func (b *cfgBuilder) stmt(s ast.Stmt) {
	if b.cur == nil {
		// Unreachable code still gets blocks so its nodes exist in the
		// graph (golden fixtures may place findings there).
		b.cur = b.newBlock()
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, "")
	case *ast.RangeStmt:
		b.rangeStmt(s, "")
	case *ast.SwitchStmt:
		b.switchStmt(s, "")
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s, "")
	case *ast.SelectStmt:
		b.selectStmt(s, "")
	case *ast.LabeledStmt:
		b.labeledStmt(s)
	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.cfg.Exit, nil, false)
		b.cur = nil
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.DeferStmt:
		b.cfg.Defers = append(b.cfg.Defers, s)
		b.add(s)
	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.edge(b.cur, b.cfg.Exit, nil, false)
			b.cur = nil
		}
	default:
		// Assign, DeclStmt, IncDec, Send, Go, Empty, ...
		b.add(s)
	}
}

func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// cond decomposes a boolean expression into condition-leaf blocks with
// true/false edges to the given targets, handling &&, || and ! so each
// leaf comparison governs its own edge.
func (b *cfgBuilder) cond(e ast.Expr, trueTo, falseTo *Block) {
	switch x := e.(type) {
	case *ast.ParenExpr:
		b.cond(x.X, trueTo, falseTo)
		return
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			b.cond(x.X, falseTo, trueTo)
			return
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			right := b.newBlock()
			b.cond(x.X, right, falseTo)
			b.cur = right
			b.cond(x.Y, trueTo, falseTo)
			return
		case token.LOR:
			right := b.newBlock()
			b.cond(x.X, trueTo, right)
			b.cur = right
			b.cond(x.Y, trueTo, falseTo)
			return
		}
	}
	b.add(e)
	b.edge(b.cur, trueTo, e, true)
	b.edge(b.cur, falseTo, e, false)
	b.cur = nil
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.add(s.Init)
	}
	thenB := b.newBlock()
	merge := b.newBlock()
	elseTarget := merge
	if s.Else != nil {
		elseTarget = b.newBlock()
	}
	b.cond(s.Cond, thenB, elseTarget)
	b.cur = thenB
	b.stmtList(s.Body.List)
	b.edge(b.cur, merge, nil, false)
	if s.Else != nil {
		b.cur = elseTarget
		b.stmt(s.Else)
		b.edge(b.cur, merge, nil, false)
	}
	b.cur = merge
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	head := b.newBlock()
	body := b.newBlock()
	post := b.newBlock()
	exit := b.newBlock()
	b.edge(b.cur, head, nil, false)
	b.cur = head
	if s.Cond != nil {
		b.cond(s.Cond, body, exit)
	} else {
		b.edge(b.cur, body, nil, false)
		b.cur = nil
	}
	b.breaks = append(b.breaks, loopCtx{label: label, breakTo: exit, continueTo: post})
	b.cur = body
	b.stmtList(s.Body.List)
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.edge(b.cur, post, nil, false)
	b.cur = post
	if s.Post != nil {
		b.add(s.Post)
	}
	b.edge(b.cur, head, nil, false)
	b.cur = exit
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt, label string) {
	head := b.newBlock()
	body := b.newBlock()
	exit := b.newBlock()
	b.edge(b.cur, head, nil, false)
	b.cur = head
	// The range statement itself lives in the head so analyses can see the
	// ranged expression (and the key/value bindings) once per iteration.
	b.add(s)
	b.edge(head, body, nil, false)
	b.edge(head, exit, nil, false)
	b.breaks = append(b.breaks, loopCtx{label: label, breakTo: exit, continueTo: head})
	b.cur = body
	b.stmtList(s.Body.List)
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.edge(b.cur, head, nil, false)
	b.cur = exit
}

func (b *cfgBuilder) switchStmt(s *ast.SwitchStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	if s.Tag != nil {
		b.add(s.Tag)
	}
	head := b.cur
	exit := b.newBlock()
	b.breaks = append(b.breaks, loopCtx{label: label, breakTo: exit, isSwitchLike: true})
	b.caseClauses(head, exit, s.Body.List, func(cc *ast.CaseClause, blk *Block) {
		for _, e := range cc.List {
			blk.Nodes = append(blk.Nodes, e)
		}
	})
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = exit
}

func (b *cfgBuilder) typeSwitchStmt(s *ast.TypeSwitchStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Assign)
	head := b.cur
	exit := b.newBlock()
	b.breaks = append(b.breaks, loopCtx{label: label, breakTo: exit, isSwitchLike: true})
	b.caseClauses(head, exit, s.Body.List, nil)
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = exit
}

// caseClauses wires each case body as its own block hanging off head, with
// an implicit break to exit and explicit fallthrough to the next body.
func (b *cfgBuilder) caseClauses(head, exit *Block, list []ast.Stmt, addCase func(*ast.CaseClause, *Block)) {
	type clause struct {
		cc  *ast.CaseClause
		blk *Block
	}
	var clauses []clause
	hasDefault := false
	for _, st := range list {
		cc, ok := st.(*ast.CaseClause)
		if !ok {
			continue
		}
		blk := b.newBlock()
		if addCase != nil {
			addCase(cc, blk)
		}
		if cc.List == nil {
			hasDefault = true
		}
		b.edge(head, blk, nil, false)
		clauses = append(clauses, clause{cc, blk})
	}
	if !hasDefault {
		b.edge(head, exit, nil, false)
	}
	for i, cl := range clauses {
		b.cur = cl.blk
		fellThrough := false
		for _, st := range cl.cc.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				if i+1 < len(clauses) {
					b.edge(b.cur, clauses[i+1].blk, nil, false)
				}
				b.cur = nil
				fellThrough = true
				break
			}
			b.stmt(st)
		}
		if !fellThrough {
			b.edge(b.cur, exit, nil, false)
		}
		b.cur = nil
	}
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt, label string) {
	head := b.cur
	exit := b.newBlock()
	b.breaks = append(b.breaks, loopCtx{label: label, breakTo: exit, isSwitchLike: true})
	for _, st := range s.Body.List {
		cc, ok := st.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock()
		if cc.Comm != nil {
			blk.Nodes = append(blk.Nodes, cc.Comm)
		}
		b.edge(head, blk, nil, false)
		b.cur = blk
		b.stmtList(cc.Body)
		b.edge(b.cur, exit, nil, false)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = exit
}

func (b *cfgBuilder) labeledStmt(s *ast.LabeledStmt) {
	target := b.newBlock()
	b.edge(b.cur, target, nil, false)
	b.cur = target
	b.labels[s.Label.Name] = &labelCtx{block: target}
	switch inner := s.Stmt.(type) {
	case *ast.ForStmt:
		b.forStmt(inner, s.Label.Name)
	case *ast.RangeStmt:
		b.rangeStmt(inner, s.Label.Name)
	case *ast.SwitchStmt:
		b.switchStmt(inner, s.Label.Name)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(inner, s.Label.Name)
	case *ast.SelectStmt:
		b.selectStmt(inner, s.Label.Name)
	default:
		b.stmt(s.Stmt)
	}
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		for i := len(b.breaks) - 1; i >= 0; i-- {
			ctx := b.breaks[i]
			if label == "" || ctx.label == label {
				b.edge(b.cur, ctx.breakTo, nil, false)
				b.cur = nil
				return
			}
		}
	case token.CONTINUE:
		for i := len(b.breaks) - 1; i >= 0; i-- {
			ctx := b.breaks[i]
			if ctx.isSwitchLike {
				continue // continue skips switch/select
			}
			if label == "" || ctx.label == label {
				b.edge(b.cur, ctx.continueTo, nil, false)
				b.cur = nil
				return
			}
		}
	case token.GOTO:
		b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: label})
		b.cur = nil
		return
	case token.FALLTHROUGH:
		// Handled by caseClauses; a stray fallthrough terminates the block.
		b.cur = nil
		return
	}
	b.cur = nil
}
