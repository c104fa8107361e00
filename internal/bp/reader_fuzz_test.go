package bp

import (
	"bytes"
	"math"
	"testing"
)

// FuzzBPReader opens arbitrary bytes as a BP stream and decodes every
// step. Neither NewReader nor ReadStep may panic, and a step that decodes
// cannot carry more payload than the stream holds: every size the reader
// allocates from must be backed by bytes that are actually there. The
// seeds are streams from the Writer and the crafted streams of the bound
// tests (index count, oversized dimension, var data, body length).
func FuzzBPReader(f *testing.F) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), buf.Bytes()...)) // header only: unclosed
	for i, pg := range []*ProcessGroup{
		{Group: "g"},
		{Group: "atoms", Timestep: 3, Vars: []Var{
			{Name: "x", Type: TFloat64, Dims: []int{2, 2}, Data: []float64{1, 2, 3, 4}},
			{Name: "id", Type: TInt32, Dims: []int{3}, Data: []int32{7, 8, 9}},
			{Name: "s", Type: TByte, Data: []byte{5}},
		}, Attrs: map[string]string{"provenance": "bonds"}},
	} {
		if err := w.Append(pg); err != nil {
			f.Fatal(err)
		}
		if i == 0 {
			f.Add(append([]byte(nil), buf.Bytes()...)) // one step, no footer
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(indexCountStream())
	f.Add(craftStream(oneVarBody(math.MaxUint64)))
	f.Add(craftStream(oneVarBody(1 << 23)))
	f.Add(craftStreamLen(oneVarBody(1<<23), 1<<40))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 0; i < r.Steps(); i++ {
			pg, err := r.ReadStep(i)
			if err != nil {
				continue
			}
			if n := pg.DataBytes(); n > int64(len(data)) {
				t.Fatalf("step %d decoded %d payload bytes from a %d-byte stream", i, n, len(data))
			}
		}
	})
}
