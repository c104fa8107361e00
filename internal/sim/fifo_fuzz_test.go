package sim

import (
	"slices"
	"testing"
)

// FuzzFIFO drives the kernel's head-indexed FIFO and a plain slice
// through the same decoded push, pop, removeAt (Queue.unlist's delete),
// removeWhere (Queue.RemoveWhere's) and reset sequence, and after every
// operation checks that the live entries match the slice, that every
// slot outside them is zeroed, that an emptied FIFO has rewound to the
// start of its array, and that a push grew the array only when the live
// entries filled more than half of it (otherwise it must compact). Each
// input byte is one operation: b%8 picks it and b>>3 is its argument.
func FuzzFIFO(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 3, 3, 0, 0, 0, 3, 3, 3, 0, 0})        // fill, half drain, refill: compaction
	f.Add([]byte{0, 3, 0, 3, 0, 3, 0, 0, 3, 3})                    // alternate: rewinds, no growth
	f.Add([]byte{0, 0, 0, 0, 0, 0, 3, 5, 13, 21, 0, 0, 0, 0})      // removeAt at the head, middle and tail
	f.Add([]byte{0, 0, 0, 0, 0, 0, 3, 6, 14, 0, 0, 7, 0, 0, 3, 3}) // removeWhere, reset, reuse
	f.Add([]byte{0, 0, 0, 0, 0, 3, 3, 3, 3, 5, 0, 0, 0, 0, 0, 0})  // removeAt empties a drained FIFO
	f.Fuzz(func(t *testing.T, ops []byte) {
		var q fifo[int]
		var model []int
		next := 1 // live values are nonzero, so a zeroed slot is visible
		for i, b := range ops {
			arg := int(b >> 3)
			switch b % 8 {
			case 0, 1, 2:
				n, c := q.len(), cap(q.buf)
				q.push(next)
				model = append(model, next)
				next++
				if cap(q.buf) != c && c > 0 && 2*n <= c {
					t.Fatalf("op %d: push grew the array from %d with %d live entries instead of compacting", i, c, n)
				}
			case 3, 4:
				if len(model) == 0 {
					continue
				}
				if got := q.front(); got != model[0] {
					t.Fatalf("op %d: front %d, want %d", i, got, model[0])
				}
				if got := q.pop(); got != model[0] {
					t.Fatalf("op %d: pop %d, want %d", i, got, model[0])
				}
				model = model[1:]
			case 5:
				if len(model) == 0 {
					continue
				}
				k := arg % len(model)
				q.removeAt(k)
				model = slices.Delete(model, k, k+1)
			case 6:
				drop := func(v int) bool { return v%(arg%4+2) == 0 }
				want := len(model)
				model = slices.DeleteFunc(model, drop)
				if got := q.removeWhere(drop); got != want-len(model) {
					t.Fatalf("op %d: removeWhere removed %d, want %d", i, got, want-len(model))
				}
			case 7:
				q.reset()
				model = model[:0]
			}
			checkFIFO(t, i, &q, model)
		}
	})
}

// checkFIFO checks q's live entries against model and its layout: the
// slots before the head and past the tail are zero, and an empty FIFO
// sits at the start of its array.
func checkFIFO(t *testing.T, op int, q *fifo[int], model []int) {
	t.Helper()
	if q.len() != len(model) || !slices.Equal(q.all(), model) {
		t.Fatalf("op %d: FIFO holds %v, want %v", op, q.all(), model)
	}
	if q.len() == 0 && q.head != 0 {
		t.Fatalf("op %d: empty FIFO did not rewind (head %d)", op, q.head)
	}
	full := q.buf[:cap(q.buf)]
	for k, v := range full {
		if (k < q.head || k >= len(q.buf)) && v != 0 {
			t.Fatalf("op %d: vacated slot %d holds %d", op, k, v)
		}
	}
}
