// Package bp implements a small self-describing binary-pack container
// format, playing the role ADIOS's BP format plays in the paper: each
// output step of a group is appended as a "process group" carrying named,
// typed, dimensioned variables plus string attributes (the container
// runtime uses attributes to record data-processing provenance when an
// analytics stage is taken offline). A footer index makes steps randomly
// accessible for post-processing.
//
// Layout:
//
//	magic "GOBP" | version u32
//	process group*              (see writePG)
//	index                       (count + per-PG offsets/sizes/names)
//	index offset u64 | magic "BPGO"
package bp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
)

// Magic constants framing a BP stream.
var (
	headMagic = [4]byte{'G', 'O', 'B', 'P'}
	tailMagic = [4]byte{'B', 'P', 'G', 'O'}
)

// Version is the format version written by this package.
const Version uint32 = 1

// DType enumerates variable element types.
type DType uint8

// Supported element types.
const (
	TFloat64 DType = iota + 1
	TFloat32
	TInt64
	TInt32
	TByte
)

// String implements fmt.Stringer.
func (t DType) String() string {
	switch t {
	case TFloat64:
		return "float64"
	case TFloat32:
		return "float32"
	case TInt64:
		return "int64"
	case TInt32:
		return "int32"
	case TByte:
		return "byte"
	}
	return fmt.Sprintf("dtype(%d)", uint8(t))
}

// elemSize returns the byte width of one element.
func (t DType) elemSize() int {
	switch t {
	case TFloat64, TInt64:
		return 8
	case TFloat32, TInt32:
		return 4
	case TByte:
		return 1
	}
	return 0
}

// Var is one variable within a process group.
type Var struct {
	Name string
	Type DType
	// Dims are the (local) dimensions; the element count is their
	// product, or 0 dims for a scalar (count 1).
	Dims []int
	// Data holds the elements as one of []float64, []float32, []int64,
	// []int32, []byte matching Type.
	Data any
}

// Count returns the element count implied by Dims.
func (v *Var) Count() int {
	n := 1
	for _, d := range v.Dims {
		n *= d
	}
	return n
}

// Float64s returns the data as []float64, converting numeric types.
func (v *Var) Float64s() ([]float64, error) {
	switch d := v.Data.(type) {
	case []float64:
		return d, nil
	case []float32:
		out := make([]float64, len(d))
		for i, x := range d {
			out[i] = float64(x)
		}
		return out, nil
	case []int64:
		out := make([]float64, len(d))
		for i, x := range d {
			out[i] = float64(x)
		}
		return out, nil
	case []int32:
		out := make([]float64, len(d))
		for i, x := range d {
			out[i] = float64(x)
		}
		return out, nil
	}
	return nil, fmt.Errorf("bp: var %q type %v not numeric", v.Name, v.Type)
}

// validate checks type/data/dims consistency.
func (v *Var) validate() error {
	if v.Name == "" {
		return errors.New("bp: var with empty name")
	}
	var n int
	switch d := v.Data.(type) {
	case []float64:
		if v.Type != TFloat64 {
			return typeMismatch(v, "float64")
		}
		n = len(d)
	case []float32:
		if v.Type != TFloat32 {
			return typeMismatch(v, "float32")
		}
		n = len(d)
	case []int64:
		if v.Type != TInt64 {
			return typeMismatch(v, "int64")
		}
		n = len(d)
	case []int32:
		if v.Type != TInt32 {
			return typeMismatch(v, "int32")
		}
		n = len(d)
	case []byte:
		if v.Type != TByte {
			return typeMismatch(v, "byte")
		}
		n = len(d)
	default:
		return errUnsupportedData(v)
	}
	if n != v.Count() {
		return errDimsMismatch(v, n)
	}
	return nil
}

// Error constructors are outlined so fmt's allocations stay off the
// per-step encode path; each runs once per malformed input, never per
// well-formed step.

func typeMismatch(v *Var, got string) error {
	return fmt.Errorf("bp: var %q declared %v but data is []%s", v.Name, v.Type, got)
}

func errUnsupportedData(v *Var) error {
	return fmt.Errorf("bp: var %q has unsupported data %T", v.Name, v.Data)
}

func errDimsMismatch(v *Var, n int) error {
	return fmt.Errorf("bp: var %q dims %v imply %d elements, data has %d",
		v.Name, v.Dims, v.Count(), n)
}

func errNegativeDim(v *Var) error {
	return fmt.Errorf("bp: var %q has negative dim", v.Name)
}

// ProcessGroup is one appended output step.
type ProcessGroup struct {
	Group    string
	Timestep int64
	Vars     []Var
	Attrs    map[string]string
}

// Var returns the named variable, or nil.
func (pg *ProcessGroup) Var(name string) *Var {
	for i := range pg.Vars {
		if pg.Vars[i].Name == name {
			return &pg.Vars[i]
		}
	}
	return nil
}

// DataBytes returns the total payload size of all variables.
func (pg *ProcessGroup) DataBytes() int64 {
	var n int64
	for i := range pg.Vars {
		n += int64(pg.Vars[i].Count() * pg.Vars[i].Type.elemSize())
	}
	return n
}

// indexEntry locates one process group in the stream.
type indexEntry struct {
	Group    string
	Timestep int64
	Offset   int64
	Size     int64
}

// --- primitive encoding ---

type countingWriter struct {
	w   io.Writer
	off int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.off += int64(n)
	return n, err
}

// The put helpers encode straight into the spare capacity of an encoder's
// own buffer, so no number passes through a temporary that an io.Writer
// call would move to the heap.

func putUvarint(b *bytes.Buffer, v uint64) {
	b.Write(binary.AppendUvarint(b.AvailableBuffer(), v))
}

func putString(b *bytes.Buffer, s string) {
	putUvarint(b, uint64(len(s)))
	b.WriteString(s)
}

func putU64(b *bytes.Buffer, v uint64) {
	b.Write(binary.LittleEndian.AppendUint64(b.AvailableBuffer(), v))
}

type byteReader struct{ r io.Reader }

func (br byteReader) ReadByte() (byte, error) {
	var b [1]byte
	_, err := io.ReadFull(br.r, b[:])
	return b[0], err
}

func readUvarint(r io.Reader) (uint64, error) {
	return binary.ReadUvarint(byteReader{r})
}

const maxStringLen = 1 << 20

// readString reads a length-prefixed string. The length is checked
// against the bytes left in r before anything is sized from it.
func readString(r *io.LimitedReader) (string, error) {
	n, err := readUvarint(r)
	if err != nil {
		return "", err
	}
	if n > maxStringLen {
		return "", fmt.Errorf("bp: string length %d exceeds limit", n)
	}
	if n > uint64(r.N) {
		return "", fmt.Errorf("bp: string length %d overruns the %d bytes left", n, r.N)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func readU64(r io.Reader) (uint64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// --- variable payload encoding ---

func writeVarData(w io.Writer, es *encodeState, v *Var) error {
	switch d := v.Data.(type) {
	case []float64:
		buf := es.grow(8 * len(d))
		for i, x := range d {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
		}
		_, err := w.Write(buf)
		return err
	case []float32:
		buf := es.grow(4 * len(d))
		for i, x := range d {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(x))
		}
		_, err := w.Write(buf)
		return err
	case []int64:
		buf := es.grow(8 * len(d))
		for i, x := range d {
			binary.LittleEndian.PutUint64(buf[8*i:], uint64(x))
		}
		_, err := w.Write(buf)
		return err
	case []int32:
		buf := es.grow(4 * len(d))
		for i, x := range d {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(x))
		}
		_, err := w.Write(buf)
		return err
	case []byte:
		_, err := w.Write(d)
		return err
	}
	return errUnsupportedData(v)
}

// readVarData reads count elements of type t. Their size is checked
// against the bytes left in r before the buffer is sized, so a crafted
// dimension cannot allocate more than the stream holds.
func readVarData(r *io.LimitedReader, t DType, count int) (any, error) {
	size := t.elemSize()
	if size == 0 {
		return nil, fmt.Errorf("bp: unknown dtype %d", t)
	}
	if int64(size)*int64(count) > r.N {
		return nil, fmt.Errorf("bp: %d elements of %v overrun the %d bytes left", count, t, r.N)
	}
	buf := make([]byte, size*count)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	switch t {
	case TFloat64:
		out := make([]float64, count)
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
		}
		return out, nil
	case TFloat32:
		out := make([]float32, count)
		for i := range out {
			out[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
		}
		return out, nil
	case TInt64:
		out := make([]int64, count)
		for i := range out {
			out[i] = int64(binary.LittleEndian.Uint64(buf[8*i:]))
		}
		return out, nil
	case TInt32:
		out := make([]int32, count)
		for i := range out {
			out[i] = int32(binary.LittleEndian.Uint32(buf[4*i:]))
		}
		return out, nil
	case TByte:
		return buf, nil
	}
	return nil, fmt.Errorf("bp: unknown dtype %d", t)
}

// encodeState holds the scratch one encoder reuses across process
// groups so the steady state of Append allocates nothing: the body
// buffer, the payload byte-conversion scratch, and the sorted attr keys.
type encodeState struct {
	body    bytes.Buffer
	scratch []byte
	keys    []string
}

// grow returns an n-byte conversion buffer, reusing the scratch backing
// when it is already wide enough.
func (es *encodeState) grow(n int) []byte {
	if cap(es.scratch) < n {
		es.scratch = make([]byte, n)
	}
	return es.scratch[:n]
}

// encodePG serializes a process group body into es.body (valid until the
// next call with the same state).
func encodePG(es *encodeState, pg *ProcessGroup) ([]byte, error) {
	buf := &es.body
	buf.Reset()
	putString(buf, pg.Group)
	putU64(buf, uint64(pg.Timestep))
	putUvarint(buf, uint64(len(pg.Vars)))
	for i := range pg.Vars {
		v := &pg.Vars[i]
		if err := v.validate(); err != nil {
			return nil, err
		}
		putString(buf, v.Name)
		buf.WriteByte(byte(v.Type))
		putUvarint(buf, uint64(len(v.Dims)))
		for _, d := range v.Dims {
			if d < 0 {
				return nil, errNegativeDim(v)
			}
			putUvarint(buf, uint64(d))
		}
		if err := writeVarData(buf, es, v); err != nil {
			return nil, err
		}
	}
	putUvarint(buf, uint64(len(pg.Attrs)))
	es.keys = sortedKeysInto(es.keys[:0], pg.Attrs)
	for _, k := range es.keys {
		putString(buf, k)
		putString(buf, pg.Attrs[k])
	}
	return buf.Bytes(), nil
}

// maxVarElems bounds a decoded variable's element count.
const maxVarElems = 1 << 28

// decodePG decodes one process group body; r holds exactly the body, and
// every count read from it is bounded by the bytes r has left.
func decodePG(r *io.LimitedReader) (*ProcessGroup, error) {
	pg := &ProcessGroup{}
	var err error
	if pg.Group, err = readString(r); err != nil {
		return nil, err
	}
	ts, err := readU64(r)
	if err != nil {
		return nil, err
	}
	pg.Timestep = int64(ts)
	nvars, err := readUvarint(r)
	if err != nil {
		return nil, err
	}
	// A var takes at least three bytes (name length, dtype, rank).
	if nvars > 1<<16 || nvars > uint64(r.N)/3 {
		return nil, fmt.Errorf("bp: implausible var count %d", nvars)
	}
	pg.Vars = make([]Var, nvars)
	for i := range pg.Vars {
		v := &pg.Vars[i]
		if v.Name, err = readString(r); err != nil {
			return nil, err
		}
		tb, err := byteReader{r}.ReadByte()
		if err != nil {
			return nil, err
		}
		v.Type = DType(tb)
		ndims, err := readUvarint(r)
		if err != nil {
			return nil, err
		}
		if ndims > 16 {
			return nil, fmt.Errorf("bp: implausible rank %d", ndims)
		}
		v.Dims = make([]int, ndims)
		count := 1
		for j := range v.Dims {
			d, err := readUvarint(r)
			if err != nil {
				return nil, err
			}
			// A dimension that does not fit an int would wrap negative;
			// bounding each factor by maxVarElems keeps the running
			// product from overflowing before the check below sees it.
			if d > maxVarElems {
				return nil, fmt.Errorf("bp: var %q dim %d too large", v.Name, d)
			}
			v.Dims[j] = int(d)
			count *= int(d)
			if count > maxVarElems {
				return nil, fmt.Errorf("bp: var %q too large", v.Name)
			}
		}
		if v.Data, err = readVarData(r, v.Type, count); err != nil {
			return nil, err
		}
	}
	nattrs, err := readUvarint(r)
	if err != nil {
		return nil, err
	}
	// An attr takes at least two bytes (key and value lengths).
	if nattrs > 1<<16 || nattrs > uint64(r.N)/2 {
		return nil, fmt.Errorf("bp: implausible attr count %d", nattrs)
	}
	if nattrs > 0 {
		pg.Attrs = make(map[string]string, nattrs)
		for i := uint64(0); i < nattrs; i++ {
			k, err := readString(r)
			if err != nil {
				return nil, err
			}
			v, err := readString(r)
			if err != nil {
				return nil, err
			}
			pg.Attrs[k] = v
		}
	}
	return pg, nil
}

// sortedKeysInto fills dst (reusing its capacity) with m's keys in
// sorted order.
func sortedKeysInto(dst []string, m map[string]string) []string {
	for k := range m {
		dst = append(dst, k)
	}
	sort.Strings(dst)
	return dst
}

func sortedKeys(m map[string]string) []string {
	return sortedKeysInto(make([]string, 0, len(m)), m)
}
