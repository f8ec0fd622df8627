package trace

import "spin/internal/sim"

// Outcome classifies how a dispatch ended.
type Outcome uint8

// Outcomes.
const (
	// OutcomeOK: every handler that ran completed within its time bound.
	OutcomeOK Outcome = iota
	// OutcomeAborted: at least one handler exceeded the event's time bound
	// and had its result discarded.
	OutcomeAborted
	// OutcomeFaulted: at least one handler raised a runtime exception that
	// was contained at the dispatch boundary.
	OutcomeFaulted
)

func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeAborted:
		return "abort"
	case OutcomeFaulted:
		return "fault"
	}
	return "?"
}

// Record is one traced dispatch (or other kernel activity).
type Record struct {
	// Seq is the record's global sequence number, assigned at publish.
	Seq uint64
	// Event is the event name (or subsystem label for non-dispatch records).
	Event string
	// Origin names the subsystem that produced the record ("dispatch",
	// "net", "sched", "vm").
	Origin string
	// Handlers is the number of handlers the dispatch ran (0 for
	// non-dispatch records).
	Handlers int
	// Start is the virtual time the activity began.
	Start sim.Time
	// Duration is the virtual time the activity consumed.
	Duration sim.Duration
	// Outcome classifies the completion.
	Outcome Outcome
}

// Ring is a fixed-size ring buffer of trace records, held by value. It has
// one writer, the owner of the machine whose tracer it is, and readers
// read it on that owner too, so Put is one store and a plain cursor
// increment. When the ring wraps, the oldest records are overwritten.
type Ring struct {
	slots  []Record
	mask   uint64
	cursor uint64 // next sequence number to stamp
}

// NewRing returns a ring holding size records, rounded up to a power of two
// (minimum 16).
func NewRing(size int) *Ring {
	n := 16
	for n < size {
		n <<= 1
	}
	return &Ring{slots: make([]Record, n), mask: uint64(n - 1)}
}

// Cap reports the ring's capacity in records.
func (r *Ring) Cap() int { return len(r.slots) }

// Published reports how many records have ever been published (≥ Cap means
// the ring has wrapped).
func (r *Ring) Published() uint64 { return r.cursor }

// Put stores rec, stamping its sequence number.
func (r *Ring) Put(rec Record) {
	rec.Seq = r.cursor
	r.slots[r.cursor&r.mask] = rec
	r.cursor++
}

// Snapshot returns the buffered records ordered oldest to newest.
func (r *Ring) Snapshot() []Record {
	n := uint64(len(r.slots))
	lo := uint64(0)
	if r.cursor > n {
		lo = r.cursor - n
	}
	out := make([]Record, 0, r.cursor-lo)
	for seq := lo; seq < r.cursor; seq++ {
		out = append(out, r.slots[seq&r.mask])
	}
	return out
}
