// Package simtimeseeded is a seeded-bug fixture for simtime: a distilled
// copy of core's Container.heartbeat with one line changed. The pressure
// sample takes its timestamp from the wall clock instead of the engine's
// virtual clock, so two runs of one seed report different ages.
package simtimeseeded

import "time"

// Time is virtual time in nanoseconds, as sim.Time.
type Time int64

// Sample is a monitoring record, as monitor.Sample.
type Sample struct {
	Container string
	Step      int64
	Latency   Time
	QueueLen  int
	At        Time
}

// Engine stands in for the sim engine and its virtual clock.
type Engine struct{ now Time }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

type input struct{ arrivals []Time }

func (in *input) QueueLen() int { return len(in.arrivals) }

func (in *input) HeadAge(now Time) Time {
	if len(in.arrivals) == 0 {
		return 0
	}
	return now - in.arrivals[0]
}

// Container is the part of core.Container the heartbeat reads.
type Container struct {
	name    string
	active  bool
	eng     *Engine
	input   *input
	samples []Sample
}

// heartbeat reports queue pressure while every replica is busy.
func (c *Container) heartbeat() {
	if !c.active || c.input == nil || c.input.QueueLen() == 0 {
		return
	}
	now := Time(time.Now().UnixNano()) // want "time.Now reads the wall clock"
	c.samples = append(c.samples, Sample{
		Container: c.name,
		Step:      -1,
		Latency:   c.input.HeadAge(now),
		QueueLen:  c.input.QueueLen(),
		At:        now,
	})
}
