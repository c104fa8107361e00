package analysis

import (
	"go/ast"
	"testing"
)

// assignedNames is a toy may-analysis: the fact is the set of variable
// names assigned so far. It exercises Transfer, Join (union), and Refine
// bookkeeping in the forward solver.
type assignedNames struct {
	refined map[string][]bool // cond ident -> branches Refine saw
}

type nameSet map[string]bool

func (p *assignedNames) Entry() Fact { return nameSet{} }

func (p *assignedNames) Transfer(n ast.Node, f Fact) Fact {
	as, ok := n.(*ast.AssignStmt)
	if !ok {
		return f
	}
	out := make(nameSet, len(f.(nameSet))+1)
	for k := range f.(nameSet) {
		out[k] = true
	}
	for _, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
			out[id.Name] = true
		}
	}
	return out
}

func (p *assignedNames) Refine(cond ast.Expr, branch bool, f Fact) Fact {
	if id, ok := cond.(*ast.Ident); ok && p.refined != nil {
		p.refined[id.Name] = append(p.refined[id.Name], branch)
	}
	return f
}

func (p *assignedNames) Join(a, b Fact) Fact {
	out := make(nameSet)
	for k := range a.(nameSet) {
		out[k] = true
	}
	for k := range b.(nameSet) {
		out[k] = true
	}
	return out
}

func (p *assignedNames) Equal(a, b Fact) bool {
	fa, fb := a.(nameSet), b.(nameSet)
	if len(fa) != len(fb) {
		return false
	}
	for k := range fa {
		if !fb[k] {
			return false
		}
	}
	return true
}

func TestForwardSolverJoinsBranches(t *testing.T) {
	cfg := buildTestCFG(t, `
	x := 0
	if a {
		y := 1
		_ = y
	} else {
		z := 2
		_ = z
	}
	return x`)
	prob := &assignedNames{refined: map[string][]bool{}}
	in := Forward(cfg, prob)
	exit := in[cfg.Exit.Index]
	if exit == nil {
		t.Fatal("exit block unreachable in solver")
	}
	got := exit.(nameSet)
	for _, want := range []string{"x", "y", "z"} {
		if !got[want] {
			t.Errorf("exit fact missing %q (may-join over branches): %v", want, got)
		}
	}
	saw := map[bool]bool{}
	for _, b := range prob.refined["a"] {
		saw[b] = true
	}
	if !saw[true] || !saw[false] {
		t.Errorf("Refine should see both branches of cond a, got %v", prob.refined["a"])
	}
}

func TestForwardSolverLoopTerminates(t *testing.T) {
	cfg := buildTestCFG(t, `
	n := 0
	for i := 0; i < 3; i++ {
		n = n + 1
	}
	return n`)
	in := Forward(cfg, &assignedNames{})
	exit := in[cfg.Exit.Index]
	if exit == nil {
		t.Fatal("exit unreachable")
	}
	if got := exit.(nameSet); !got["n"] || !got["i"] {
		t.Errorf("loop facts missing, got %v", got)
	}
}
