package adios

import (
	"bytes"
	"fmt"

	"repro/internal/bp"
	"repro/internal/sim"
)

// FileSink is the file-method backend: it appends process groups to an
// in-memory BP stream (real encoding, real bytes) while charging simulated
// disk time. Finish() closes the stream so it can be re-read with
// bp.NewReader — integration tests use this to verify provenance
// attributes written during offline transitions.
type FileSink struct {
	name   string
	buf    bytes.Buffer
	w      *bp.Writer
	closed bool
}

// NewFileSink creates a sink with the given (diagnostic) name.
func NewFileSink(name string) (*FileSink, error) {
	fs := &FileSink{name: name}
	w, err := bp.NewWriter(&fs.buf)
	if err != nil {
		return nil, err
	}
	fs.w = w
	return fs, nil
}

func (fs *FileSink) append(p *sim.Proc, disk DiskModel, pg *bp.ProcessGroup) error {
	if fs.closed {
		return fmt.Errorf("adios: file sink %q already finished", fs.name)
	}
	if err := fs.w.Append(pg); err != nil {
		return err
	}
	if p != nil {
		p.Sleep(disk.writeTime(pg.DataBytes()))
	}
	return nil
}

// Finish closes the BP stream and returns a reader over its contents.
func (fs *FileSink) Finish() (*bp.Reader, error) {
	if !fs.closed {
		if err := fs.w.Close(); err != nil {
			return nil, err
		}
		fs.closed = true
	}
	return bp.NewReader(bytes.NewReader(fs.buf.Bytes()))
}
