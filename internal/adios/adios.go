// Package adios provides the write path of the componentized I/O API the
// paper's analytics actions are written against: applications declare
// output groups, write named/typed variables each output step, and the
// transport behind the interface is swappable — the DataTap staged
// transport for in-transit pipelines, a BP file method for disk output,
// or a null method. Consumers read their input from the datatap channel
// directly.
//
// The capability the container runtime depends on (paper §III-D) is
// switching a group's method *mid-run*: when a downstream container goes
// offline, upstream replicas redirect their output to disk and stamp
// attributes recording the data-processing provenance, so post-processing
// can tell which analyses still need to run.
package adios

import (
	"errors"
	"fmt"

	"repro/internal/bp"
	"repro/internal/datatap"
	"repro/internal/sim"
)

// Method names a transport binding.
type Method string

// Supported methods.
const (
	// MethodDataTap stages output through a datatap.Writer.
	MethodDataTap Method = "DATATAP"
	// MethodFile appends BP process groups to a file sink, charging
	// simulated disk time.
	MethodFile Method = "FILE"
	// MethodNull discards output (free).
	MethodNull Method = "NULL"
)

// DiskModel parameterizes the simulated parallel file system.
type DiskModel struct {
	// BandwidthMBps is the achievable per-writer bandwidth in MiB/s.
	BandwidthMBps float64
	// Latency is the fixed per-operation cost.
	Latency sim.Time
}

// DefaultDisk approximates a busy Lustre partition share: 250 MiB/s per
// writer with 5 ms operation latency.
func DefaultDisk() DiskModel {
	return DiskModel{BandwidthMBps: 250, Latency: 5 * sim.Millisecond}
}

// writeTime returns the simulated time to write size bytes.
func (d DiskModel) writeTime(size int64) sim.Time {
	if d.BandwidthMBps <= 0 {
		return d.Latency
	}
	return d.Latency + sim.Time(float64(size)/(d.BandwidthMBps*1024*1024)*float64(sim.Second))
}

// IO is the per-process ADIOS context.
type IO struct {
	disk   DiskModel
	groups map[string]*Group
}

// NewIO returns an I/O context whose file method charges disk.
func NewIO(disk DiskModel) *IO {
	return &IO{disk: disk, groups: make(map[string]*Group)}
}

// DeclareGroup creates (or returns) the named output group, initially
// bound to the null method.
func (io *IO) DeclareGroup(name string) *Group {
	if g, ok := io.groups[name]; ok {
		return g
	}
	g := &Group{io: io, name: name, method: MethodNull, attrs: map[string]string{}}
	io.groups[name] = g
	return g
}

// Group is one named output stream with a current transport method.
type Group struct {
	io     *IO
	name   string
	method Method
	attrs  map[string]string

	tap  *datatap.Writer
	sink *FileSink
}

// SetAttr sets a group attribute, copied into every subsequent step's
// process group (the provenance mechanism).
func (g *Group) SetAttr(key, value string) { g.attrs[key] = value }

// UseDataTap binds the group to a staged-transport writer.
func (g *Group) UseDataTap(w *datatap.Writer) {
	g.method, g.tap, g.sink = MethodDataTap, w, nil
}

// UseFile binds the group to a BP file sink.
func (g *Group) UseFile(sink *FileSink) {
	g.method, g.tap, g.sink = MethodFile, nil, sink
}

// StepWriter accumulates one output step.
type StepWriter struct {
	g    *Group
	pg   bp.ProcessGroup
	pad  int64
	open bool
}

// Open begins output step `step`. Exactly one step may be open at a time
// per group.
func (g *Group) Open(step int64) (*StepWriter, error) {
	w := &StepWriter{g: g, open: true}
	w.pg.Group = g.name
	w.pg.Timestep = step
	if len(g.attrs) > 0 {
		w.pg.Attrs = make(map[string]string, len(g.attrs))
		for k, v := range g.attrs {
			w.pg.Attrs[k] = v
		}
	}
	return w, nil
}

// Write adds a variable to the open step.
func (w *StepWriter) Write(v bp.Var) error {
	if !w.open {
		return errors.New("adios: write on closed step")
	}
	w.pg.Vars = append(w.pg.Vars, v)
	return nil
}

// WriteInt64s is a convenience wrapper for 1-D int64 variables.
func (w *StepWriter) WriteInt64s(name string, data []int64) error {
	return w.Write(bp.Var{Name: name, Type: bp.TInt64, Dims: []int{len(data)}, Data: data})
}

// PadBytes adds n synthetic bytes to the step's transported size without
// materializing data. The discrete-event experiments use this to move
// paper-scale output volumes (Table II: hundreds of MB per step) through
// the transports while the payload carries only the small descriptor
// variables the analytics cost models need.
func (w *StepWriter) PadBytes(n int64) {
	if n > 0 {
		w.pad += n
	}
}

// SetAttr sets a per-step attribute (overriding group attributes).
func (w *StepWriter) SetAttr(key, value string) {
	if w.pg.Attrs == nil {
		w.pg.Attrs = map[string]string{}
	}
	w.pg.Attrs[key] = value
}

// Close completes the step, routing it through the group's current
// method and charging the corresponding simulated time to p. It reports
// false if a staged transport rejected the step (channel closed).
func (w *StepWriter) Close(p *sim.Proc) (bool, error) {
	if !w.open {
		return false, errors.New("adios: close on closed step")
	}
	w.open = false
	g := w.g
	size := w.pg.DataBytes() + w.pad
	switch g.method {
	case MethodDataTap:
		if g.tap == nil {
			return false, fmt.Errorf("adios: group %q method DATATAP without binding", g.name)
		}
		if !g.tap.Write(p, w.pg.Timestep, size, &w.pg) {
			return false, nil
		}
	case MethodFile:
		if g.sink == nil {
			return false, fmt.Errorf("adios: group %q method FILE without binding", g.name)
		}
		if err := g.sink.append(p, g.io.disk, &w.pg); err != nil {
			return false, err
		}
	case MethodNull:
		// Discard.
	default:
		return false, fmt.Errorf("adios: group %q has unknown method %q", g.name, g.method)
	}
	return true, nil
}
