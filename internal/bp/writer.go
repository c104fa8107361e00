package bp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Writer appends process groups to an io.Writer and records the footer
// index on Close. A Writer must be Closed to produce a readable stream.
type Writer struct {
	cw     countingWriter
	index  []indexEntry
	closed bool
	err    error
	es     encodeState // per-writer encode scratch, reused across Appends
	prefix []byte      // scratch for each step's length prefix
}

// NewWriter starts a BP stream on w.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := &Writer{cw: countingWriter{w: w}}
	if _, err := bw.cw.Write(headMagic[:]); err != nil {
		return nil, err
	}
	var ver [4]byte
	ver[0] = byte(Version)
	ver[1] = byte(Version >> 8)
	ver[2] = byte(Version >> 16)
	ver[3] = byte(Version >> 24)
	if _, err := bw.cw.Write(ver[:]); err != nil {
		return nil, err
	}
	return bw, nil
}

// Append writes one process group.
func (w *Writer) Append(pg *ProcessGroup) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errors.New("bp: append after close")
	}
	body, err := encodePG(&w.es, pg)
	if err != nil {
		return w.fail(err)
	}
	off := w.cw.off
	w.prefix = binary.AppendUvarint(w.prefix[:0], uint64(len(body)))
	if _, err := w.cw.Write(w.prefix); err != nil {
		return w.fail(err)
	}
	if _, err := w.cw.Write(body); err != nil {
		return w.fail(err)
	}
	w.index = append(w.index, indexEntry{
		Group:    pg.Group,
		Timestep: pg.Timestep,
		Offset:   off,
		Size:     w.cw.off - off,
	})
	return nil
}

// Steps returns the number of process groups appended so far.
func (w *Writer) Steps() int { return len(w.index) }

// Close writes the footer index; the stream is complete afterwards.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	w.closed = true
	// The footer (index, its offset, the tail magic) is encoded in the
	// body scratch and written at once.
	indexOff := w.cw.off
	b := &w.es.body
	b.Reset()
	putUvarint(b, uint64(len(w.index)))
	for _, e := range w.index {
		putString(b, e.Group)
		putU64(b, uint64(e.Timestep))
		putU64(b, uint64(e.Offset))
		putU64(b, uint64(e.Size))
	}
	putU64(b, uint64(indexOff))
	b.Write(tailMagic[:])
	if _, err := w.cw.Write(b.Bytes()); err != nil {
		return w.fail(err)
	}
	return nil
}

func (w *Writer) fail(err error) error {
	w.err = err
	return err
}

// Reader provides random access to a complete BP stream.
type Reader struct {
	r     io.ReadSeeker
	index []indexEntry
	// indexOff is where the footer index starts; every step body ends
	// before it.
	indexOff int64
}

// NewReader opens a BP stream, reading its footer index. The stream must
// have been produced by a closed Writer.
func NewReader(r io.ReadSeeker) (*Reader, error) {
	var head [8]byte
	if _, err := r.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("bp: reading header: %w", err)
	}
	if !bytes.Equal(head[:4], headMagic[:]) {
		return nil, errors.New("bp: bad head magic")
	}
	end, err := r.Seek(-12, io.SeekEnd)
	if err != nil {
		return nil, fmt.Errorf("bp: stream too short: %w", err)
	}
	var tail [12]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return nil, err
	}
	if !bytes.Equal(tail[8:], tailMagic[:]) {
		return nil, errors.New("bp: bad tail magic (unclosed writer?)")
	}
	indexOff := int64(uint64(tail[0]) | uint64(tail[1])<<8 | uint64(tail[2])<<16 |
		uint64(tail[3])<<24 | uint64(tail[4])<<32 | uint64(tail[5])<<40 |
		uint64(tail[6])<<48 | uint64(tail[7])<<56)
	if indexOff < 8 || indexOff > end {
		return nil, fmt.Errorf("bp: index offset %d out of range", indexOff)
	}
	if _, err := r.Seek(indexOff, io.SeekStart); err != nil {
		return nil, err
	}
	ir := &io.LimitedReader{R: r, N: end - indexOff}
	n, err := readUvarint(ir)
	if err != nil {
		return nil, err
	}
	// An entry takes at least 25 bytes (a 1-byte string length and three
	// u64s), so the bytes between the index offset and the tail bound
	// the count before it sizes anything.
	if n > uint64(ir.N)/25 {
		return nil, fmt.Errorf("bp: index of %d entries overruns the stream", n)
	}
	br := &Reader{r: r, index: make([]indexEntry, n), indexOff: indexOff}
	for i := range br.index {
		e := &br.index[i]
		if e.Group, err = readString(ir); err != nil {
			return nil, err
		}
		ts, err := readU64(ir)
		if err != nil {
			return nil, err
		}
		e.Timestep = int64(ts)
		off, err := readU64(ir)
		if err != nil {
			return nil, err
		}
		e.Offset = int64(off)
		sz, err := readU64(ir)
		if err != nil {
			return nil, err
		}
		e.Size = int64(sz)
	}
	return br, nil
}

// Steps returns the number of process groups in the stream.
func (r *Reader) Steps() int { return len(r.index) }

// StepInfo returns the group name and timestep of step i.
func (r *Reader) StepInfo(i int) (group string, timestep int64, err error) {
	if i < 0 || i >= len(r.index) {
		return "", 0, fmt.Errorf("bp: step %d out of range 0..%d", i, len(r.index)-1)
	}
	return r.index[i].Group, r.index[i].Timestep, nil
}

// ReadStep decodes process group i.
func (r *Reader) ReadStep(i int) (*ProcessGroup, error) {
	if i < 0 || i >= len(r.index) {
		return nil, fmt.Errorf("bp: step %d out of range 0..%d", i, len(r.index)-1)
	}
	e := r.index[i]
	if _, err := r.r.Seek(e.Offset, io.SeekStart); err != nil {
		return nil, err
	}
	bodyLen, err := readUvarint(r.r)
	if err != nil {
		return nil, err
	}
	// The body must end before the index: decodePG bounds every size it
	// reads by the body length, and this bounds that by the stream.
	pos, err := r.r.Seek(0, io.SeekCurrent)
	if err != nil {
		return nil, err
	}
	if pos > r.indexOff || bodyLen > uint64(r.indexOff-pos) {
		return nil, fmt.Errorf("bp: step %d body of %d bytes overruns the stream", i, bodyLen)
	}
	return decodePG(&io.LimitedReader{R: r.r, N: int64(bodyLen)})
}

// FindSteps returns the step indices whose group matches (all groups if
// group is empty).
func (r *Reader) FindSteps(group string) []int {
	var out []int
	for i, e := range r.index {
		if group == "" || e.Group == group {
			out = append(out, i)
		}
	}
	return out
}
