package trace

import (
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim"
)

// FuzzRecorder drives a Recorder and a brute-force reference through the
// same decoded sequence of Begin, Instant, Attr, AttrInt, End (a second
// End included), kernel Event and Records calls, with a ring of 1 to 8
// records so wraparound and the reuse of an evicted slot's attr space
// come early. The reference is a plain []Record that drops its oldest
// entry at the cap, sorts each record's attrs stably by key and formats
// integers with strconv. After every operation Records, Len, Dropped and
// MissingParents must match it, and every returned Attrs slice must be
// capped at its length. A snapshot taken mid-run must still read as it
// did at the end. Each input byte is one operation: b%8 picks it and
// b>>3 is its argument.
func FuzzRecorder(f *testing.F) {
	f.Add(uint8(2), []byte{0, 10, 19, 4, 0, 27, 4, 6, 0, 4, 7, 0, 11, 4, 15})   // wrap a 3-slot ring, attrs then none
	f.Add(uint8(0), []byte{0, 2, 3, 11, 4, 5, 5, 1, 4, 5, 7})                   // 1 slot: End twice, snapshot
	f.Add(uint8(7), []byte{0, 8, 2, 10, 18, 3, 43, 51, 59, 4, 1, 12, 84, 6, 7}) // duplicate keys, extreme ints
	f.Add(uint8(3), []byte{0, 0, 33, 4, 12, 1, 4, 4, 6, 6, 6, 6, 6, 7, 0, 4})   // orphans, then kernel floods
	f.Fuzz(func(t *testing.T, capByte uint8, ops []byte) {
		ringCap := int(capByte%8) + 1
		eng := sim.NewEngine(1)
		r := New(eng, Config{RingCap: ringCap, Kernel: true})
		k := NewKernel(r)

		var model []Record
		var dropped int64
		commit := func(rec Record) {
			slices.SortStableFunc(rec.Attrs, func(a, b Attr) int { return strings.Compare(a.Key, b.Key) })
			if len(rec.Attrs) == 0 {
				rec.Attrs = nil
			}
			model = append(model, rec)
			if len(model) > ringCap {
				model = slices.Delete(model, 0, 1)
				dropped++
			}
		}
		type openSpan struct {
			sp  *Span
			rec Record
		}
		var open []openSpan
		var lastEnded *Span // a span End recycled and no Begin has reused
		var nextID SpanID
		var snap, snapWant []Record

		cats := []string{"core", "ctl", "datatap", "evpath"}
		keys := []string{"b", "a", "shard", "a", "bytes"}
		vals := []string{"", "x", "ctl", "100"}
		nums := []int64{0, 7, 99, 100, -1, -100, 4096, math.MaxInt64, math.MinInt64}
		for i, b := range ops {
			arg := int(b >> 3)
			eng.RunUntil(eng.Now() + sim.Time(arg%3)*sim.Millisecond)
			switch b % 8 {
			case 0, 1: // Begin or Instant
				nextID++
				rec := Record{
					ID:     nextID,
					Parent: SpanID(arg%8) - 2, // negative, none, and recent IDs
					Cat:    cats[arg%len(cats)],
					Name:   "op" + strconv.Itoa(arg%3),
					Node:   -1,
					Step:   -1,
					Start:  eng.Now(),
				}
				var sp *Span
				if b%8 == 0 {
					sp = r.Begin(rec.Parent, rec.Cat, rec.Name)
				} else {
					sp = r.Instant(rec.Parent, rec.Cat, rec.Name)
					rec.Instant = true
				}
				if arg%2 == 1 {
					rec.Container, rec.Node, rec.Step = "bonds", arg, int64(arg)*1000
					sp.Container(rec.Container).Node(rec.Node).Step(rec.Step)
				}
				if sp.ID() != rec.ID {
					t.Fatalf("op %d: span ID %d, want %d", i, sp.ID(), rec.ID)
				}
				open = append(open, openSpan{sp, rec})
				lastEnded = nil
			case 2, 3: // Attr or AttrInt on an open span
				if len(open) == 0 {
					continue
				}
				o := &open[arg%len(open)]
				key := keys[arg%len(keys)]
				if b%8 == 2 {
					val := vals[arg%len(vals)]
					o.sp.Attr(key, val)
					o.rec.Attrs = append(o.rec.Attrs, Attr{key, val})
				} else {
					n := nums[arg%len(nums)]
					o.sp.AttrInt(key, n)
					o.rec.Attrs = append(o.rec.Attrs, Attr{key, strconv.FormatInt(n, 10)})
				}
			case 4: // End an open span
				if len(open) == 0 {
					continue
				}
				j := arg % len(open)
				o := open[j]
				open = slices.Delete(open, j, j+1)
				o.sp.End()
				o.rec.End = eng.Now()
				commit(o.rec)
				lastEnded = o.sp
			case 5: // End the last ended span again: a no-op
				lastEnded.End()
			case 6: // kernel instant
				name := "wake " + strconv.Itoa(arg)
				k.Event(eng.Now(), name)
				commit(Record{Cat: "sim", Name: name, Node: -1, Step: -1,
					Start: eng.Now(), End: eng.Now(), Instant: true})
			case 7: // snapshot, checked again after the last op
				snap, snapWant = r.Records(), cloneRecords(model)
			}
			checkRecorder(t, i, r, model, dropped)
		}
		if !reflect.DeepEqual(snap, snapWant) {
			t.Fatalf("a Records snapshot changed under later recording:\n got %+v\nwant %+v", snap, snapWant)
		}
	})
}

// checkRecorder compares r with the reference model after op.
func checkRecorder(t *testing.T, op int, r *Recorder, model []Record, dropped int64) {
	t.Helper()
	got := r.Records()
	if len(model) == 0 {
		model = nil
	}
	if !reflect.DeepEqual(got, model) {
		t.Fatalf("op %d: Records\n got %+v\nwant %+v", op, got, model)
	}
	for _, rec := range got {
		if cap(rec.Attrs) != len(rec.Attrs) {
			t.Fatalf("op %d: record %d's Attrs has cap %d past its length %d", op, rec.ID, cap(rec.Attrs), len(rec.Attrs))
		}
	}
	if r.Len() != len(model) || r.Dropped() != dropped {
		t.Fatalf("op %d: Len %d Dropped %d, want %d and %d", op, r.Len(), r.Dropped(), len(model), dropped)
	}
	var orphans []Record
	for _, rec := range model {
		if rec.Parent != 0 && !slices.ContainsFunc(model, func(p Record) bool { return p.ID == rec.Parent }) {
			orphans = append(orphans, rec)
		}
	}
	const limit = 3
	if len(orphans) > limit {
		orphans = orphans[:limit]
	}
	if got := r.MissingParents(limit); !reflect.DeepEqual(got, orphans) {
		t.Fatalf("op %d: MissingParents(%d)\n got %+v\nwant %+v", op, limit, got, orphans)
	}
}

func cloneRecords(recs []Record) []Record {
	if len(recs) == 0 {
		return nil
	}
	out := slices.Clone(recs)
	for i := range out {
		out[i].Attrs = slices.Clone(out[i].Attrs)
	}
	return out
}
