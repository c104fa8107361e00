package bp

import (
	"io"
	"testing"
)

// TestAppendAllocBudget pins the steady-state allocations of one
// Writer.Append of a three-variable, two-attribute step at zero. The body
// buffer, the conversion scratch, the sorted attr keys and the length
// prefix scratch are the writer's own and reused across steps, numbers
// are encoded straight into them, and the footer index grows amortized.
// A new allocation fails the test.
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
	if got := testing.AllocsPerRun(100, step); got != 0 {
		t.Errorf("%v allocations per Append, budget 0", got)
	}
}
