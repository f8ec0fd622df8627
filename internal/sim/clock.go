// Package sim provides the discrete-event simulation substrate on which the
// SPIN reproduction runs: a virtual clock, a time-ordered event queue, cost
// profiles calibrated to the paper's 133 MHz Alpha measurements, and a
// deterministic random number generator.
//
// Nothing in the simulated kernels reads wall-clock time. Every operation
// that would consume CPU cycles on the paper's hardware advances the virtual
// clock by a primitive cost drawn from a Profile. Composite results (table
// rows, figure series) therefore emerge from executing real code paths, not
// from hard-coded answers.
package sim

import (
	"fmt"
	"sync/atomic"
)

// Time is virtual time in nanoseconds since boot.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000
	Millisecond Duration = 1000 * 1000
	Second      Duration = 1000 * 1000 * 1000
)

// Micros reports d in fractional microseconds.
func (d Duration) Micros() float64 { return float64(d) / 1000 }

// Millis reports d in fractional milliseconds.
func (d Duration) Millis() float64 { return float64(d) / 1e6 }

func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", float64(d)/float64(Second))
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(d)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

// String renders t as a virtual-time stamp: the offset since boot in the
// same units as Duration, prefixed with "+" (trace records and reports
// print these; raw nanosecond counts are unreadable at profile scale).
func (t Time) String() string {
	if t < 0 {
		return fmt.Sprintf("-%v", Duration(-t))
	}
	return "+" + Duration(t).String()
}

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Add returns t advanced by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Clock is the per-simulation virtual clock. A clock additionally tracks
// "busy" time separately from total elapsed time so that experiments such as
// Figure 6 can report CPU utilization: Advance accrues busy time, while
// Sleep (idle waiting, e.g. for a wire) does not.
//
// Ownership: a machine's clock is written only by whoever steps its engine —
// the goroutine calling Step or Run, a netstack Driver's loop goroutine, or
// the strand holding the CPU token. Advance, Sleep, AdvanceTo, Busy, ResetBusy and
// Utilization are the owner's; a hand-off of ownership through a channel or
// a mutex gives the happens-before the next owner needs. Now alone may be
// called from any goroutine: the time is an atomic that only the owner
// stores, so an off-owner reader sees a value that never decreases. A charge
// is one atomic store, not two locked read-modify-writes.
type Clock struct {
	now  atomic.Int64 // Time; stored by the owner, loaded by anyone
	busy Duration     // the owner's alone
}

// NewClock returns a clock at time zero.
func NewClock() *Clock { return &Clock{} }

// Now returns the current virtual time. Safe from any goroutine.
func (c *Clock) Now() Time { return Time(c.now.Load()) }

// Advance moves the clock forward by d and accounts it as busy (CPU) time.
// Negative durations are ignored.
func (c *Clock) Advance(d Duration) {
	if d <= 0 {
		return
	}
	c.now.Store(c.now.Load() + int64(d))
	c.busy += d
}

// Sleep moves the clock forward by d without accruing busy time. It models
// waiting for an external resource (wire, disk platter) during which the CPU
// could do other work.
func (c *Clock) Sleep(d Duration) {
	if d <= 0 {
		return
	}
	c.now.Store(c.now.Load() + int64(d))
}

// AdvanceTo moves the clock to t if t is in the future, as idle time.
func (c *Clock) AdvanceTo(t Time) {
	if int64(t) > c.now.Load() {
		c.now.Store(int64(t))
	}
}

// Busy returns accumulated busy (CPU) time.
func (c *Clock) Busy() Duration { return c.busy }

// ResetBusy clears the busy-time accumulator, for utilization measurements
// over a window.
func (c *Clock) ResetBusy() { c.busy = 0 }

// Utilization reports busy time as a fraction of the window since 'start'.
func (c *Clock) Utilization(start Time) float64 {
	window := c.Now().Sub(start)
	if window <= 0 {
		return 0
	}
	u := float64(c.Busy()) / float64(window)
	if u > 1 {
		u = 1
	}
	return u
}
