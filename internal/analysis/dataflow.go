package analysis

import "go/ast"

// A generic forward worklist solver over the CFG. Facts are opaque to the solver;
// a FlowProblem supplies the lattice (Join/Equal), the per-node transfer
// function, and an optional branch refinement applied on
// condition-annotated edges (how nilflow learns from `if x == nil`).

// Fact is an abstract dataflow fact. Implementations must be immutable
// from the solver's point of view: Transfer/Refine return new facts.
type Fact interface{}

// FlowProblem defines one dataflow analysis over a CFG.
type FlowProblem interface {
	// Entry is the fact at function entry.
	Entry() Fact
	// Transfer applies one CFG node (statement or condition leaf).
	Transfer(n ast.Node, f Fact) Fact
	// Refine adjusts a fact along a conditional edge: cond evaluated to
	// branch. Return f unchanged when the condition teaches nothing.
	Refine(cond ast.Expr, branch bool, f Fact) Fact
	// Join merges facts at control-flow merges.
	Join(a, b Fact) Fact
	// Equal reports whether two facts are equal (fixpoint detection).
	Equal(a, b Fact) bool
}

// Forward solves a forward problem and returns the fact at the entry of
// each block (indexed by Block.Index). The fact *after* a block is
// obtained by re-applying Transfer over its nodes.
func Forward(cfg *CFG, p FlowProblem) []Fact {
	in := make([]Fact, len(cfg.Blocks))
	in[cfg.Entry.Index] = p.Entry()
	work := []*Block{cfg.Entry}
	queued := make([]bool, len(cfg.Blocks))
	queued[cfg.Entry.Index] = true
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b.Index] = false
		f := in[b.Index]
		if f == nil {
			continue
		}
		for _, n := range b.Nodes {
			f = p.Transfer(n, f)
		}
		for _, e := range b.Succs {
			out := f
			if e.Cond != nil {
				out = p.Refine(e.Cond, e.Branch, out)
			}
			tgt := e.To.Index
			var merged Fact
			if in[tgt] == nil {
				merged = out
			} else {
				merged = p.Join(in[tgt], out)
			}
			if in[tgt] == nil || !p.Equal(in[tgt], merged) {
				in[tgt] = merged
				if !queued[tgt] {
					queued[tgt] = true
					work = append(work, e.To)
				}
			}
		}
	}
	return in
}
