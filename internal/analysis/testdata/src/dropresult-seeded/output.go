// Package dropresultseeded is a seeded-bug fixture for dropresult: a
// distilled copy of the primary output path of core's replica with the
// refused-write branch taken out. A step the transport refuses is lost
// with no retry, no disk fallback and no count.
package dropresultseeded

import "fmt"

// Proc stands in for a simulated process.
type Proc struct{}

// Writer is the datatap writer; false means the transport refused the step.
type Writer struct{ refused int }

// WriteTraced hands one step to the transport.
func (w *Writer) WriteTraced(p *Proc, step, size int64, data any, parent uint64) bool {
	return w.refused == 0
}

// Channel is the output channel a writer feeds.
type Channel struct{ closed bool }

// Closed reports whether the channel was shut down.
func (c *Channel) Closed() bool { return c.closed }

type replica struct {
	container string
	idx       int
	writer    *Writer
	output    *Channel
	exits     int
	outSize   int64
}

// procName names the replica's process, as addReplica does.
func (r *replica) procName() string {
	return fmt.Sprintf("%s-replica-%d", r.container, r.idx)
}

// emit writes one computed step downstream.
func (r *replica) emit(p *Proc, step int64, out any, parent uint64) {
	if r.output == nil {
		return
	}
	r.writer.WriteTraced(p, step, r.outSize, out, parent) // want "result of Writer.WriteTraced dropped"
	r.exits++
}
