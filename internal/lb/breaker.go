package lb

import (
	"spin/internal/sim"
)

// BreakerState is a circuit breaker's position.
type BreakerState int32

// Breaker states: Closed passes traffic, Open rejects it, HalfOpen admits
// probe traffic to test recovery.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "?"
}

// A breaker opens after breakerThreshold consecutive failures and admits a
// half-open probe breakerOpenTimeout after opening.
const (
	breakerThreshold   = 3
	breakerOpenTimeout = 2 * sim.Second
)

// Breaker is one backend's circuit breaker: closed → (threshold consecutive
// failures) → open → (breakerOpenTimeout, on a virtual-time engine timer) →
// half-open → one probe success closes it, one probe failure re-opens it.
// It is read and written only in engine context.
type Breaker struct {
	engine *sim.Engine

	state    BreakerState
	failures int // consecutive, in the closed state
	timer    *sim.Event

	ejections int64 // closed/half-open -> open transitions

	// onChange, when set, observes every state transition (the Balancer
	// uses it to rebuild the ring). Runs in engine context.
	onChange func(from, to BreakerState)
}

// NewBreaker builds a closed breaker whose open timer runs on engine.
func NewBreaker(engine *sim.Engine) *Breaker {
	return &Breaker{engine: engine}
}

// State reads the breaker's position.
func (b *Breaker) State() BreakerState { return b.state }

// Ejections counts how many times the breaker has opened.
func (b *Breaker) Ejections() int64 { return b.ejections }

// Allow reports whether a request may be sent through this breaker: closed
// and half-open pass (half-open traffic IS the probe), open rejects.
func (b *Breaker) Allow() bool { return b.State() != BreakerOpen }

// Success records a successful request: closed resets the failure streak,
// half-open closes the breaker (the probe proved recovery).
func (b *Breaker) Success() {
	switch b.State() {
	case BreakerClosed:
		b.failures = 0
	case BreakerHalfOpen:
		b.transition(BreakerClosed)
	}
}

// Fail records a failed request: a closed breaker opens at the threshold,
// a half-open breaker re-opens immediately (the probe failed).
func (b *Breaker) Fail() {
	switch b.State() {
	case BreakerClosed:
		b.failures++
		if b.failures >= breakerThreshold {
			b.open()
		}
	case BreakerHalfOpen:
		b.open()
	}
}

// ForceOpen ejects the backend immediately (e.g. its name was withdrawn),
// skipping the failure threshold.
func (b *Breaker) ForceOpen() {
	if b.State() != BreakerOpen {
		b.open()
	}
}

func (b *Breaker) open() {
	b.ejections++
	b.transition(BreakerOpen)
	b.timer = b.engine.After(breakerOpenTimeout, func() {
		b.timer = nil
		if b.State() == BreakerOpen {
			b.transition(BreakerHalfOpen)
		}
	})
}

// Stop cancels the pending open timer (teardown before draining).
func (b *Breaker) Stop() {
	if b.timer != nil {
		b.timer.Cancel()
		b.timer = nil
	}
}

func (b *Breaker) transition(to BreakerState) {
	from := b.state
	if from == to {
		return
	}
	b.failures = 0
	b.state = to
	if b.onChange != nil {
		b.onChange(from, to)
	}
}
