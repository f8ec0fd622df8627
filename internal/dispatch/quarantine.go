package dispatch

import (
	"fmt"

	"spin/internal/domain"
	"spin/internal/faultinject"
	"spin/internal/sim"
	"spin/internal/trace"
)

// Quarantine — the recovery layer above exception containment. Catching a
// handler's runtime exception (invokeBounded) keeps one raise safe, but a
// repeatedly faulting extension would stay installed forever, failing every
// raise it guards. Under a quarantine policy the dispatcher tracks each
// handler's lifetime faults and time-bound overruns; a handler that
// exhausts either budget is unlinked from its event — the event
// falls back to its primary — with a "dispatch.quarantine" trace record and
// a notification visible to whoever authorized the installation.
//
// Primaries are never quarantined: the default implementation module is the
// trusted fallback the policy protects (for keyed events the primary is the
// key demultiplexer, which RemovePrimary likewise refuses to unlink).

// QuarantinePolicy configures when a misbehaving handler is unlinked. A
// zero field disables that dimension; the zero policy disables quarantine
// entirely (exception containment still applies).
type QuarantinePolicy struct {
	// FaultThreshold unlinks a handler after this many contained runtime
	// exceptions.
	FaultThreshold int64
	// OverrunBudget unlinks a handler after this many time-bound overruns.
	OverrunBudget int64
}

// DefaultQuarantinePolicy is the policy machines boot with: tolerant
// enough that a transient bug survives, strict enough that a wedged
// extension cannot fail raises forever.
var DefaultQuarantinePolicy = QuarantinePolicy{FaultThreshold: 8, OverrunBudget: 64}

// SetQuarantinePolicy installs the policy. It applies to faults and
// overruns counted from now on (handler lifetime counters are not reset).
func (d *Dispatcher) SetQuarantinePolicy(p QuarantinePolicy) {
	d.qFaultThreshold = p.FaultThreshold
	d.qOverrunBudget = p.OverrunBudget
}

// QuarantineRecord describes one handler unlinked by the quarantine policy.
type QuarantineRecord struct {
	// Event the handler was installed on.
	Event string
	// Owner is the installing module's identity.
	Owner domain.Identity
	// Faults and Overruns are the handler's lifetime counts at unlink time.
	Faults, Overruns int64
	// Reason describes which budget was exhausted.
	Reason string
	// At is the virtual time of the unlink.
	At sim.Time
}

func (r QuarantineRecord) String() string {
	return fmt.Sprintf("%v %s: handler by %q quarantined: %s", r.At, r.Event, r.Owner.Name, r.Reason)
}

// OnQuarantine registers fn to be called each time a handler is
// quarantined — the notification path through which
// the event's default implementation module, or its authorizer's owner,
// observes that an installation it approved has been withdrawn.
func (d *Dispatcher) OnQuarantine(fn func(QuarantineRecord)) { d.onQuarantine = fn }

// quarantine unlinks handler e from its event. Called from the raise path
// after a budget is exhausted. If the handler is already gone — removed by
// a handler, or quarantined by a raise nested in this one — it does
// nothing: one unlink, one record, one notification per quarantined handler.
func (d *Dispatcher) quarantine(st *Event, e *handlerEntry, reason string) {
	if e.primary {
		return // the primary is the fallback, never the casualty
	}
	if !st.uninstall(e) {
		return // already unlinked by a nested raise (or a Remove)
	}
	rec := QuarantineRecord{
		Event:    st.name,
		Owner:    e.owner,
		Faults:   e.faults,
		Overruns: e.overruns,
		Reason:   reason,
		At:       d.clock.Now(),
	}
	d.quarantined = append(d.quarantined, rec)
	if d.tracer != nil {
		d.tracer.Trace(trace.Record{
			Event: "dispatch.quarantine", Origin: "dispatch",
			Start: rec.At, Outcome: trace.OutcomeFaulted,
		})
	}
	if d.onQuarantine != nil {
		d.onQuarantine(rec)
	}
}

// Quarantined returns the quarantine log, oldest first.
func (d *Dispatcher) Quarantined() []QuarantineRecord {
	return append([]QuarantineRecord(nil), d.quarantined...)
}

// RemoveOwner uninstalls every non-primary handler installed by owner,
// across all events — the dispatcher's half
// of crash-only domain teardown. Primaries (including keyed demultiplexers)
// are preserved: they belong to the default implementation module, not the
// departing extension. It returns the number of handlers removed.
func (d *Dispatcher) RemoveOwner(owner domain.Identity) int {
	removed := 0
	for _, st := range d.events {
		// The range keeps the list it loaded; uninstall replaces it.
		for _, e := range st.handlers {
			if !e.primary && e.owner.Name == owner.Name {
				st.uninstall(e)
				removed++
			}
		}
	}
	return removed
}

// SetInjector arms (in non-nil) or disarms (nil) fault injection; the
// disabled cost is one predictable nil check per handler invocation,
// mirroring SetTracer.
func (d *Dispatcher) SetInjector(in *faultinject.Injector) { d.injector = in }

// InjectorInstalled returns the active injector, or nil when injection is
// disabled. Subsystems outside the dispatcher (netstack, scheduler, pager)
// use it to consult their own sites through the same switch.
func (d *Dispatcher) InjectorInstalled() *faultinject.Injector { return d.injector }
