package bp

import (
	"io"
	"testing"
)

// TestAppendAllocBudget pins the steady-state allocations of one
// Writer.Append of a three-variable, two-attribute step. The body buffer,
// the conversion scratch and the sorted attr keys are the writer's own
// and reused across steps, and the footer index grows amortized. What
// remains is writeUvarint: it hands its stack buffer to an io.Writer, so
// every call moves that buffer to the heap — one per string, count and
// dimension of the step, plus the body's length prefix, 18 here. A new
// allocation fails the test, and so does an unrecorded saving.
func TestAppendAllocBudget(t *testing.T) {
	w, err := NewWriter(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	pg := benchPG(64)
	pg.Vars = append(pg.Vars, Var{Name: "e", Type: TFloat32, Dims: []int{64}, Data: make([]float32, 64)})
	pg.Attrs["provenance"] = "bonds"
	step := func() {
		if err := w.Append(pg); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		step()
	}
	if got := testing.AllocsPerRun(100, step); got != 18 {
		t.Errorf("%v allocations per Append, budget 18 (writeUvarint's escaping buffer, once per call)", got)
	}
}
