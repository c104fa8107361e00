package bp

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, pgs ...*ProcessGroup) *Reader {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, pg := range pgs {
		if err := w.Append(pg); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRoundTripAllTypes(t *testing.T) {
	pg := &ProcessGroup{
		Group:    "atoms",
		Timestep: 42,
		Vars: []Var{
			{Name: "pos", Type: TFloat64, Dims: []int{2, 3},
				Data: []float64{1, 2, 3, 4, 5, math.Inf(1)}},
			{Name: "vel", Type: TFloat32, Dims: []int{3},
				Data: []float32{0.5, -0.5, float32(math.NaN())}},
			{Name: "ids", Type: TInt64, Dims: []int{3}, Data: []int64{-1, 0, 1 << 40}},
			{Name: "types", Type: TInt32, Dims: []int{3}, Data: []int32{1, 2, -3}},
			{Name: "flags", Type: TByte, Dims: []int{4}, Data: []byte{0, 1, 255, 7}},
		},
		Attrs: map[string]string{"provenance": "bonds,csym", "unit": "lj"},
	}
	r := roundTrip(t, pg)
	if r.Steps() != 1 {
		t.Fatalf("steps %d", r.Steps())
	}
	got, err := r.ReadStep(0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Group != "atoms" || got.Timestep != 42 {
		t.Fatalf("meta %q %d", got.Group, got.Timestep)
	}
	if got.Attrs["provenance"] != "bonds,csym" || got.Attrs["unit"] != "lj" {
		t.Fatalf("attrs %v", got.Attrs)
	}
	pos := got.Var("pos")
	if pos == nil || !reflect.DeepEqual(pos.Dims, []int{2, 3}) {
		t.Fatalf("pos %+v", pos)
	}
	pd := pos.Data.([]float64)
	if pd[0] != 1 || !math.IsInf(pd[5], 1) {
		t.Fatalf("pos data %v", pd)
	}
	vel := got.Var("vel").Data.([]float32)
	if !math.IsNaN(float64(vel[2])) {
		t.Fatalf("vel NaN lost: %v", vel)
	}
	if ids := got.Var("ids").Data.([]int64); ids[2] != 1<<40 {
		t.Fatalf("ids %v", ids)
	}
	if b := got.Var("flags").Data.([]byte); b[2] != 255 {
		t.Fatalf("flags %v", b)
	}
	if got.Var("nope") != nil {
		t.Fatal("missing var should be nil")
	}
}

func TestMultiStepIndexAndFind(t *testing.T) {
	var pgs []*ProcessGroup
	for ts := int64(0); ts < 5; ts++ {
		group := "atoms"
		if ts%2 == 1 {
			group = "checkpoint"
		}
		pgs = append(pgs, &ProcessGroup{
			Group:    group,
			Timestep: ts,
			Vars: []Var{{Name: "x", Type: TFloat64, Dims: []int{1},
				Data: []float64{float64(ts)}}},
		})
	}
	r := roundTrip(t, pgs...)
	if r.Steps() != 5 {
		t.Fatalf("steps %d", r.Steps())
	}
	for i := 0; i < 5; i++ {
		g, ts, err := r.StepInfo(i)
		if err != nil || ts != int64(i) {
			t.Fatalf("step %d: %q %d %v", i, g, ts, err)
		}
		pg, err := r.ReadStep(i)
		if err != nil {
			t.Fatal(err)
		}
		if pg.Var("x").Data.([]float64)[0] != float64(i) {
			t.Fatalf("step %d data wrong", i)
		}
	}
}

func TestRandomAccessOutOfOrder(t *testing.T) {
	var pgs []*ProcessGroup
	for ts := int64(0); ts < 4; ts++ {
		pgs = append(pgs, &ProcessGroup{Group: "g", Timestep: ts,
			Vars: []Var{{Name: "v", Type: TInt32, Dims: []int{1}, Data: []int32{int32(ts)}}}})
	}
	r := roundTrip(t, pgs...)
	for _, i := range []int{3, 0, 2, 1, 3} {
		pg, err := r.ReadStep(i)
		if err != nil {
			t.Fatal(err)
		}
		if pg.Timestep != int64(i) {
			t.Fatalf("step %d read %d", i, pg.Timestep)
		}
	}
	if _, err := r.ReadStep(9); err == nil {
		t.Fatal("out of range read should fail")
	}
	if _, _, err := r.StepInfo(-1); err == nil {
		t.Fatal("negative StepInfo should fail")
	}
}

func TestScalarVar(t *testing.T) {
	pg := &ProcessGroup{Group: "g", Vars: []Var{
		{Name: "n", Type: TInt64, Data: []int64{7}}, // no dims = scalar
	}}
	r := roundTrip(t, pg)
	got, _ := r.ReadStep(0)
	if got.Var("n").Count() != 1 || got.Var("n").Data.([]int64)[0] != 7 {
		t.Fatal("scalar round-trip failed")
	}
}

func TestValidateRejectsBadVars(t *testing.T) {
	cases := []Var{
		{Name: "", Type: TFloat64, Dims: []int{1}, Data: []float64{1}},
		{Name: "x", Type: TFloat64, Dims: []int{2}, Data: []float64{1}},
		{Name: "x", Type: TFloat32, Dims: []int{1}, Data: []float64{1}},
		{Name: "x", Type: TFloat64, Dims: []int{1}, Data: "nope"},
	}
	for i, v := range cases {
		var buf bytes.Buffer
		w, _ := NewWriter(&buf)
		pg := &ProcessGroup{Group: "g", Vars: []Var{v}}
		if err := w.Append(pg); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	err := w.Append(&ProcessGroup{Group: "g"})
	if err == nil {
		t.Fatal("append after close should fail")
	}
	// Double close is fine.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReaderRejectsCorruptStreams(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Append(&ProcessGroup{Group: "g", Vars: []Var{
		{Name: "v", Type: TByte, Dims: []int{3}, Data: []byte{1, 2, 3}}}})
	w.Close()
	good := buf.Bytes()

	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream should fail")
	}
	if _, err := NewReader(bytes.NewReader(good[:10])); err == nil {
		t.Fatal("truncated stream should fail")
	}
	bad := append([]byte{}, good...)
	bad[0] = 'X'
	if _, err := NewReader(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad head magic should fail")
	}
	bad = append([]byte{}, good...)
	bad[len(bad)-1] = 'X'
	if _, err := NewReader(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad tail magic should fail")
	}
	// Unclosed writer: no footer.
	var buf2 bytes.Buffer
	w2, _ := NewWriter(&buf2)
	w2.Append(&ProcessGroup{Group: "g"})
	if _, err := NewReader(bytes.NewReader(buf2.Bytes())); err == nil {
		t.Fatal("unclosed stream should fail")
	}
}

func TestDataBytesAndSteps(t *testing.T) {
	pg := &ProcessGroup{Group: "g", Vars: []Var{
		{Name: "a", Type: TFloat64, Dims: []int{10}, Data: make([]float64, 10)},
		{Name: "b", Type: TInt32, Dims: []int{5}, Data: make([]int32, 5)},
	}}
	if pg.DataBytes() != 100 {
		t.Fatalf("DataBytes = %d, want 100", pg.DataBytes())
	}
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	if len(w.index) != 0 {
		t.Fatal("fresh writer should have 0 steps")
	}
	w.Append(pg)
	if len(w.index) != 1 {
		t.Fatal("steps should be 1")
	}
}

func TestFloat64sConversion(t *testing.T) {
	cases := []Var{
		{Name: "f64", Type: TFloat64, Dims: []int{2}, Data: []float64{1, 2}},
		{Name: "f32", Type: TFloat32, Dims: []int{2}, Data: []float32{1, 2}},
		{Name: "i64", Type: TInt64, Dims: []int{2}, Data: []int64{1, 2}},
		{Name: "i32", Type: TInt32, Dims: []int{2}, Data: []int32{1, 2}},
	}
	for _, v := range cases {
		fs, err := v.Float64s()
		if err != nil || len(fs) != 2 || fs[0] != 1 || fs[1] != 2 {
			t.Fatalf("%s: %v %v", v.Name, fs, err)
		}
	}
	b := Var{Name: "b", Type: TByte, Dims: []int{1}, Data: []byte{1}}
	if _, err := b.Float64s(); err == nil {
		t.Fatal("byte var should not convert")
	}
}

func TestDTypeString(t *testing.T) {
	if TFloat64.String() != "float64" || TByte.String() != "byte" {
		t.Fatal("DType strings wrong")
	}
	if DType(99).String() == "" {
		t.Fatal("unknown dtype should still format")
	}
}

// Property: arbitrary float64/int32 payloads and attrs survive a
// write/read round trip bit-exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(fs []float64, is []int32, ts int64, key, val string) bool {
		if len(key) > 100 || len(val) > 100 {
			return true
		}
		pg := &ProcessGroup{
			Group:    "quick",
			Timestep: ts,
			Vars: []Var{
				{Name: "f", Type: TFloat64, Dims: []int{len(fs)}, Data: fs},
				{Name: "i", Type: TInt32, Dims: []int{len(is)}, Data: is},
			},
			Attrs: map[string]string{key: val},
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		if w.Append(pg) != nil || w.Close() != nil {
			return false
		}
		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return false
		}
		got, err := r.ReadStep(0)
		if err != nil || got.Timestep != ts || got.Attrs[key] != val {
			return false
		}
		gf := got.Var("f").Data.([]float64)
		gi := got.Var("i").Data.([]int32)
		if len(gf) != len(fs) || len(gi) != len(is) {
			return false
		}
		for i := range fs {
			// Bit-exact comparison (handles NaN).
			if math.Float64bits(gf[i]) != math.Float64bits(fs[i]) {
				return false
			}
		}
		for i := range is {
			if gi[i] != is[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: multi-step streams preserve step count and order for
// arbitrary timestep sequences.
func TestMultiStepOrderProperty(t *testing.T) {
	f := func(stamps []int64) bool {
		if len(stamps) > 50 {
			stamps = stamps[:50]
		}
		var buf bytes.Buffer
		w, _ := NewWriter(&buf)
		for _, ts := range stamps {
			if w.Append(&ProcessGroup{Group: "g", Timestep: ts}) != nil {
				return false
			}
		}
		if w.Close() != nil {
			return false
		}
		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil || r.Steps() != len(stamps) {
			return false
		}
		for i, ts := range stamps {
			_, got, err := r.StepInfo(i)
			if err != nil || got != ts {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDescribe(t *testing.T) {
	r := roundTrip(t,
		&ProcessGroup{Group: "atoms", Timestep: 1,
			Vars:  []Var{{Name: "pos", Type: TFloat64, Dims: []int{2, 3}, Data: make([]float64, 6)}},
			Attrs: map[string]string{"provenance.pending": "bonds"}},
		&ProcessGroup{Group: "ckpt", Timestep: 2},
	)
	out, err := Describe(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"2 step(s)", `group "atoms"`, `group "ckpt"`,
		"pos", "float64", "provenance.pending", `"bonds"`} {
		if !stringsContains(out, want) {
			t.Fatalf("Describe missing %q:\n%s", want, out)
		}
	}
	// Truncation note appears when maxSteps < steps.
	out, err = Describe(r, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !stringsContains(out, "1 more steps") {
		t.Fatalf("no truncation note:\n%s", out)
	}
}

func stringsContains(s, sub string) bool {
	return len(s) >= len(sub) && strings.Contains(s, sub)
}

// failWriter errors after n bytes, exercising the writer's error
// latching.
type failWriter struct{ left int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.left <= 0 {
		return 0, errFail
	}
	n := len(p)
	if n > f.left {
		n = f.left
	}
	f.left -= n
	if n < len(p) {
		return n, errFail
	}
	return n, nil
}

var errFail = &failError{}

type failError struct{}

func (*failError) Error() string { return "injected write failure" }

func TestWriterLatchesIOErrors(t *testing.T) {
	// Header fails outright.
	if _, err := NewWriter(&failWriter{left: 2}); err == nil {
		t.Fatal("header write should fail")
	}
	// Append fails mid-body; subsequent operations keep failing.
	w, err := NewWriter(&failWriter{left: 16})
	if err != nil {
		t.Fatal(err)
	}
	pg := &ProcessGroup{Group: "g", Vars: []Var{
		{Name: "v", Type: TFloat64, Dims: []int{64}, Data: make([]float64, 64)}}}
	if err := w.Append(pg); err == nil {
		t.Fatal("append should fail on a broken writer")
	}
	if err := w.Append(pg); err == nil {
		t.Fatal("error must latch")
	}
	if err := w.Close(); err == nil {
		t.Fatal("close must report the latched error")
	}
}

func TestDescribeTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Append(&ProcessGroup{Group: "g", Vars: []Var{
		{Name: "v", Type: TByte, Dims: []int{8}, Data: make([]byte, 8)}}})
	w.Close()
	good := buf.Bytes()
	// Corrupt a body byte that encodes a var count into an implausible
	// value: reader construction still works (index intact), but reading
	// the step fails, which Describe must surface.
	r, err := NewReader(bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Describe(r, 0); err != nil {
		t.Fatalf("clean describe failed: %v", err)
	}
}

// craftStream frames body as a one-step BP stream: head, the step's length
// prefix and body, a one-entry index, and the tail.
func craftStream(body []byte) []byte {
	return craftStreamLen(body, uint64(len(body)))
}

// craftStreamLen is craftStream with a length prefix claiming bodyLen.
func craftStreamLen(body []byte, bodyLen uint64) []byte {
	var b bytes.Buffer
	b.Write(headMagic[:])
	b.Write([]byte{byte(Version), 0, 0, 0})
	putUvarint(&b, bodyLen)
	b.Write(body)
	indexOff := b.Len()
	putUvarint(&b, 1)
	putString(&b, "g")
	putU64(&b, 0)
	putU64(&b, 8)
	putU64(&b, uint64(indexOff-8))
	putU64(&b, uint64(indexOff))
	b.Write(tailMagic[:])
	return b.Bytes()
}

// oneVarBody is a step body declaring one rank-1 float64 variable of the
// given dimension, with no data behind it.
func oneVarBody(dim uint64) []byte {
	var body bytes.Buffer
	putString(&body, "g")
	putU64(&body, 0)
	putUvarint(&body, 1) // one var
	putString(&body, "x")
	body.WriteByte(byte(TFloat64))
	putUvarint(&body, 1) // rank 1
	putUvarint(&body, dim)
	return body.Bytes()
}

// indexCountStream is a 24-byte stream whose index claims 2^24 entries:
// the head, the count alone in the index region, and a valid tail.
func indexCountStream() []byte {
	var b bytes.Buffer
	b.Write(headMagic[:])
	b.Write([]byte{byte(Version), 0, 0, 0})
	putUvarint(&b, 1<<24)
	putU64(&b, 8)
	b.Write(tailMagic[:])
	return b.Bytes()
}

// allocated returns the bytes allocated while fn runs.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// The index count cannot fit in the bytes before the tail, so NewReader
// must refuse it without sizing an index from it.
func TestNewReaderBoundsIndexCount(t *testing.T) {
	data := indexCountStream()
	if len(data) != 24 {
		t.Fatalf("crafted stream is %d bytes, want 24", len(data))
	}
	var err error
	alloc := allocated(func() { _, err = NewReader(bytes.NewReader(data)) })
	if err == nil {
		t.Fatal("NewReader accepted an index count larger than the stream")
	}
	if alloc >= 1<<20 {
		t.Fatalf("NewReader allocated %d bytes on a 24-byte stream, want under 1 MiB", alloc)
	}
}

// A step whose one variable has a dimension of 2^64-1, which does not fit
// an int: ReadStep must reject it, not wrap it negative and panic sizing
// the data.
func TestReadStepRejectsOversizedDim(t *testing.T) {
	r, err := NewReader(bytes.NewReader(craftStream(oneVarBody(math.MaxUint64))))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadStep(0); err == nil {
		t.Fatal("ReadStep accepted a 2^64-1 dimension")
	}
}

// Streams whose one float64 variable claims 2^23 elements (64 MiB) with
// no data behind them. The dimension is within maxVarElems, so only the
// bytes that back the step can refuse it, and ReadStep must do so before
// sizing a buffer from the dimension: the bytes left in the 19-byte body
// of the 67-byte stream, and the bytes before the index when the length
// prefix claims a 2^40-byte body.
func TestReadStepBoundsVarData(t *testing.T) {
	body := oneVarBody(1 << 23)
	if data := craftStream(body); len(data) != 67 {
		t.Fatalf("crafted stream is %d bytes, want 67", len(data))
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"body", craftStream(body)},
		{"body-length", craftStreamLen(body, 1<<40)},
	} {
		r, err := NewReader(bytes.NewReader(tc.data))
		if err != nil {
			t.Fatal(err)
		}
		alloc := allocated(func() { _, err = r.ReadStep(0) })
		if err == nil {
			t.Errorf("%s: ReadStep accepted 2^23 float64s the stream does not hold", tc.name)
		}
		if alloc >= 1<<20 {
			t.Errorf("%s: ReadStep allocated %d bytes on a %d-byte stream, want under 1 MiB",
				tc.name, alloc, len(tc.data))
		}
	}
}
