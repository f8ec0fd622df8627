// Package dispatch implements SPIN's central event dispatcher (paper §3.2).
//
// An event is a message announcing a state change or a request for service;
// in SPIN any procedure exported from an interface is also an event, and the
// right to call the procedure is the right to raise the event. A handler is
// a procedure of the same type, installed on the event through the
// dispatcher. The module that statically exports the procedure is the
// event's *default implementation module*; it holds the primary right to
// handle the event, approves or denies other installations, and may attach a
// guard to each approved handler.
//
// The dispatcher optimizes the common case: when exactly one synchronous,
// unguarded handler is installed, an event raise is a direct procedure call
// (one cross-domain call of virtual cost). Otherwise the dispatcher walks
// the guard/handler pairs, charging per-guard and per-handler costs — the
// linear behaviour measured in the paper's §5.5 scaling experiment.
//
// Ownership: a dispatcher belongs to its machine, and whoever steps the
// machine's engine (see sim.Clock) alone defines, installs, raises and reads
// counters; any other goroutine goes through the sockets Driver's Run, or
// waits until stepping has stopped. So nothing here locks and counters are
// plain fields. Per-event state is still an immutable snapshot that writers
// (Define, Install, AddGuard, Remove, RemovePrimary, quarantine) replace
// rather than edit: a handler may remove itself, or be quarantined, while a
// raise is walking the list it was called from, and that walk keeps the
// snapshot it loaded. Authorizers run inside Install and RemovePrimary and
// must not call back into the dispatcher's write operations.
package dispatch

import (
	"errors"
	"fmt"
	"slices"

	"spin/internal/domain"
	"spin/internal/faultinject"
	"spin/internal/metrics"
	"spin/internal/sim"
	"spin/internal/trace"
)

// Handler is an event handler. arg is the event argument supplied by the
// raiser; closure is the handler-private value supplied at install time (the
// paper's footnote 1: a closure lets one handler serve several contexts).
type Handler func(arg, closure any) any

// Guard is a predicate evaluated by the dispatcher before its handler; if
// false, the handler is ignored for this raise.
type Guard func(arg any) bool

// Combiner folds the results of multiple handlers into the single result
// communicated back to the raiser [Pardyak & Bershad 94]. It receives the
// results of the handlers that actually ran, in execution order.
type Combiner func(results []any) any

// LastResult is the default combiner: procedure-call semantics, returning
// the result of the final handler executed (nil when none ran).
func LastResult(results []any) any {
	if len(results) == 0 {
		return nil
	}
	return results[len(results)-1]
}

// InstallAuthorizer is consulted by the dispatcher when a module other than
// the default implementation module asks to install a handler. It may deny
// the installation by returning an error, and may impose an additional guard
// of its own (e.g. IP's per-protocol-type guards). Authorizers run inside
// Install and RemovePrimary and must not call back into Define, Install,
// AddGuard, Remove or RemovePrimary.
type InstallAuthorizer func(installer domain.Identity) (Guard, error)

// Constraint expresses the default implementation module's trust in
// handlers for one event (paper §3.2: synchronous/asynchronous, bounded
// time). Handlers always run in installation order.
type Constraint struct {
	// Async runs non-primary handlers in a separate kernel thread from
	// the raiser, isolating the raiser from handler latency. Results of
	// async handlers are not communicated to the raiser.
	Async bool
	// TimeBound, when non-zero, aborts (discards the result of and
	// counts) any handler that consumes more virtual time than the bound.
	TimeBound sim.Duration
}

// ErrInstallDenied is returned when the default implementation module
// refuses a handler installation.
var ErrInstallDenied = errors.New("dispatch: installation denied")

// ErrNoSuchEvent is returned for operations on an undefined event name.
var ErrNoSuchEvent = errors.New("dispatch: no such event")

// ErrKeyedPrimary is returned by RemovePrimary on an event defined through
// DefineKeyed: the primary there is the key demultiplexer, and removing it
// would silently disconnect every keyed handler. Remove keyed handlers
// individually with KeyedEvent.RemoveKeyed instead.
var ErrKeyedPrimary = errors.New("dispatch: primary is the keyed demultiplexer")

// handlerEntry is immutable once published in a snapshot. AddGuard replaces
// the entry (with a freshly copied guard slice) rather than mutating it, so
// a Raise iterating a snapshot never observes a guard list changing.
type handlerEntry struct {
	handler Handler
	guards  []Guard
	closure any
	owner   domain.Identity
	primary bool
	id      int
	event   string
	// misbehaviour holds the handler's lifetime fault and overrun
	// counts, shared by pointer across snapshot copies so an AddGuard
	// replacement does not reset a handler's quarantine budget.
	misbehaviour *misbehaviour
}

// misbehaviour is one handler's lifetime fault and time-bound-overrun count.
type misbehaviour struct{ faults, overruns int64 }

// newHandlerEntry allocates an entry with fresh misbehaviour counters.
func newHandlerEntry(e handlerEntry) *handlerEntry {
	e.misbehaviour = new(misbehaviour)
	return &e
}

// withGuard returns a copy of e with g appended to its guard chain.
func (e *handlerEntry) withGuard(g Guard) *handlerEntry {
	ne := *e
	ne.guards = append(append([]Guard(nil), e.guards...), g)
	return &ne
}

// eventSnapshot is the immutable per-event state the read path dispatches
// against. Writers build a new snapshot and replace the event's pointer.
type eventSnapshot struct {
	authorizer InstallAuthorizer
	constraint Constraint
	combiner   Combiner
	handlers   []*handlerEntry
	// keyed marks events defined via DefineKeyed, whose primary is the
	// key-demultiplexing trampoline (see ErrKeyedPrimary).
	keyed bool
}

// clone returns a shallow copy of s with its own handler slice, ready for a
// writer to edit before publishing.
func (s *eventSnapshot) clone() *eventSnapshot {
	ns := *s
	ns.handlers = append([]*handlerEntry(nil), s.handlers...)
	return &ns
}

// Event is the stable identity of a defined event: its current snapshot
// plus counters. A raiser that
// resolves its event once with Dispatcher.Event and raises through
// RaiseEvent skips the name lookup on every raise — the dispatcher's
// counterpart of the paper's linker patching a resolved call (§3.2).
type Event struct {
	name   string
	snap   *eventSnapshot
	raises int64
	aborts int64
	faults int64
	nextID int
}

// Dispatcher routes event raises to handlers. One dispatcher serves one
// kernel instance.
type Dispatcher struct {
	clock   *sim.Clock
	profile *sim.Profile
	engine  *sim.Engine

	// events is the event table. Event values are never removed or
	// replaced, so a resolved *Event stays valid forever.
	events map[string]*Event

	// faults counts handler runtime exceptions contained at the dispatch
	// boundary; lastFault describes the most recent.
	faults    int64
	lastFault string

	// Quarantine policy: a handler whose lifetime fault count reaches
	// qFaultThreshold, or whose time-bound-overrun count reaches
	// qOverrunBudget, is unlinked from its event (the event falls back to
	// its primary). Zero disables that dimension. onQuarantine is the
	// notification callback.
	qFaultThreshold int64
	qOverrunBudget  int64
	quarantined     []QuarantineRecord
	onQuarantine    func(QuarantineRecord)

	// tracer, when non-nil, receives a trace record and latency samples
	// for every raise. Disabled tracing costs the read path one
	// predictable nil check.
	tracer *trace.Tracer

	// injector, when non-nil, is consulted at the "dispatch.invoke" fault-
	// injection site on every handler invocation. Same cost discipline as
	// the tracer.
	injector *faultinject.Injector
}

// New returns a dispatcher charging costs from profile against the engine's
// clock. Async handlers are scheduled on the engine.
func New(engine *sim.Engine, profile *sim.Profile) *Dispatcher {
	return &Dispatcher{
		clock:   engine.Clock,
		profile: profile,
		engine:  engine,
	}
}

// lookup finds a defined event.
func (d *Dispatcher) lookup(name string) (*Event, bool) {
	st, ok := d.events[name]
	return st, ok
}

// Event resolves a defined event to its handle for RaiseEvent, or returns
// nil if name is undefined. The handle stays valid for the dispatcher's
// life: events are never removed or redefined.
func (d *Dispatcher) Event(name string) *Event {
	st, _ := d.lookup(name)
	return st
}

// DefineOptions configures an event at definition time.
type DefineOptions struct {
	// Primary is the default implementation: the procedure the event
	// names. It may be nil for pure-announcement events.
	Primary Handler
	// PrimaryClosure is passed to the primary handler.
	PrimaryClosure any
	// Authorizer gates installations by other modules; nil admits all.
	Authorizer InstallAuthorizer
	// Constraint is the trust contract for additional handlers.
	Constraint Constraint
	// Combiner folds multiple results; nil means LastResult.
	Combiner Combiner

	// keyedDemux is set by DefineKeyed: the primary is the key index
	// trampoline and must not be removable via RemovePrimary.
	keyedDemux bool
}

// Define declares an event. The caller is, by definition, the default
// implementation module for the event. Redefinition fails.
func (d *Dispatcher) Define(name string, opts DefineOptions) error {
	snap := &eventSnapshot{
		authorizer: opts.Authorizer,
		constraint: opts.Constraint,
		combiner:   opts.Combiner,
		keyed:      opts.keyedDemux,
	}
	if snap.combiner == nil {
		snap.combiner = LastResult
	}
	st := &Event{name: name}
	if opts.Primary != nil {
		snap.handlers = append(snap.handlers, newHandlerEntry(handlerEntry{
			handler: opts.Primary,
			closure: opts.PrimaryClosure,
			primary: true,
			id:      st.nextID,
			event:   name,
		}))
		st.nextID++
	}
	if _, dup := d.events[name]; dup {
		return fmt.Errorf("dispatch: event %q already defined", name)
	}
	st.snap = snap
	if d.events == nil {
		d.events = make(map[string]*Event)
	}
	d.events[name] = st
	return nil
}

// InstallOptions configures a handler installation.
type InstallOptions struct {
	// Guard restricts invocation; the installer may stack it on top of
	// any guard the authorizer imposes.
	Guard Guard
	// Closure is passed to the handler on each invocation.
	Closure any
	// Installer identifies the installing module for authorization.
	Installer domain.Identity
}

// HandlerRef names an installed handler for later removal.
type HandlerRef struct {
	event string
	id    int
}

// Install registers a handler on the named event after consulting the
// event's authorizer. The authorizer's guard (if any) is evaluated before
// the installer's own guard.
func (d *Dispatcher) Install(event string, h Handler, opts InstallOptions) (HandlerRef, error) {
	if h == nil {
		return HandlerRef{}, errors.New("dispatch: nil handler")
	}
	st, ok := d.lookup(event)
	if !ok {
		return HandlerRef{}, fmt.Errorf("%w: %q", ErrNoSuchEvent, event)
	}
	snap := st.snap
	var guards []Guard
	if snap.authorizer != nil {
		g, err := snap.authorizer(opts.Installer)
		if err != nil {
			return HandlerRef{}, fmt.Errorf("%w: %q: %v", ErrInstallDenied, event, err)
		}
		if g != nil {
			guards = append(guards, g)
		}
	}
	if opts.Guard != nil {
		guards = append(guards, opts.Guard)
	}
	e := newHandlerEntry(handlerEntry{
		handler: h,
		guards:  guards,
		closure: opts.Closure,
		owner:   opts.Installer,
		id:      st.nextID,
		event:   event,
	})
	st.nextID++
	ns := snap.clone()
	ns.handlers = append(ns.handlers, e)
	st.snap = ns
	return HandlerRef{event: event, id: e.id}, nil
}

// AddGuard stacks an additional guard on an installed handler, further
// constraining its invocation (paper: "A handler can stack additional guards
// on an event"). The handler entry is replaced, not mutated, so a raise
// walking the old snapshot never observes a half-updated guard chain.
func (d *Dispatcher) AddGuard(ref HandlerRef, g Guard) error {
	if g == nil {
		return errors.New("dispatch: nil guard")
	}
	st, ok := d.lookup(ref.event)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchEvent, ref.event)
	}
	snap := st.snap
	for i, e := range snap.handlers {
		if e.id == ref.id {
			ns := snap.clone()
			ns.handlers[i] = e.withGuard(g)
			st.snap = ns
			return nil
		}
	}
	return fmt.Errorf("dispatch: handler %d not installed on %q", ref.id, ref.event)
}

// Remove uninstalls a handler.
func (d *Dispatcher) Remove(ref HandlerRef) error {
	st, ok := d.lookup(ref.event)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchEvent, ref.event)
	}
	snap := st.snap
	for i, e := range snap.handlers {
		if e.id == ref.id {
			ns := snap.clone()
			ns.handlers = append(ns.handlers[:i:i], ns.handlers[i+1:]...)
			st.snap = ns
			return nil
		}
	}
	return fmt.Errorf("dispatch: handler %d not installed on %q", ref.id, ref.event)
}

// RemovePrimary removes the event's primary handler — permitted by the
// model ("Other modules may request that the dispatcher ... even remove the
// primary handler"), subject to the same authorizer. For events defined via
// DefineKeyed it fails with ErrKeyedPrimary: the primary there is the key
// demultiplexer, and removing it would silently orphan every keyed handler.
func (d *Dispatcher) RemovePrimary(event string, requester domain.Identity) error {
	st, ok := d.lookup(event)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchEvent, event)
	}
	snap := st.snap
	if snap.keyed {
		return fmt.Errorf("%w: %q", ErrKeyedPrimary, event)
	}
	if snap.authorizer != nil {
		if _, err := snap.authorizer(requester); err != nil {
			return fmt.Errorf("%w: %q: %v", ErrInstallDenied, event, err)
		}
	}
	for i, e := range snap.handlers {
		if e.primary {
			ns := snap.clone()
			ns.handlers = append(ns.handlers[:i:i], ns.handlers[i+1:]...)
			st.snap = ns
			return nil
		}
	}
	return fmt.Errorf("dispatch: event %q has no primary handler", event)
}

// Raise dispatches the named event synchronously and returns the combined
// result: a lookup plus RaiseEvent. Raising an undefined event returns nil
// (announcements into the void are legal; the raiser cannot distinguish "no
// event" from "no handlers").
func (d *Dispatcher) Raise(event string, arg any) any {
	return d.RaiseEvent(d.Event(event), arg)
}

// RaiseEvent dispatches the event behind a handle from Event and returns the
// combined result; a nil handle (an undefined event) returns nil.
//
// A raise charges its costs to the machine's clock, so it runs on the
// machine's owner (see sim.Clock): whoever steps the machine's engine, as do
// Install, AddGuard, Remove and SetTracer. It dispatches against the
// snapshot it loaded at the start, so a handler that removes itself (or is
// quarantined) mid-raise does not disturb the walk.
func (d *Dispatcher) RaiseEvent(st *Event, arg any) any {
	if st == nil {
		return nil
	}
	st.raises++
	snap := st.snap
	// Tracing disabled is the common case: tr is nil and the only cost on
	// this path is one predictable nil check in each branch below.
	tr := d.tracer
	// Fast path: exactly one unguarded synchronous handler — direct
	// procedure call from raiser to handler (still within the runtime's
	// exception containment and the event's time bound).
	if len(snap.handlers) == 1 && len(snap.handlers[0].guards) == 0 && !snap.constraint.Async {
		e := snap.handlers[0]
		d.clock.Advance(d.profile.CrossDomainCall)
		if tr == nil {
			res, aborted, _ := d.invokeBounded(st, snap.constraint.TimeBound, e, arg)
			if aborted {
				st.aborts++
				return nil
			}
			return res
		}
		start := d.clock.Now()
		res, aborted, faulted := d.invokeBounded(st, snap.constraint.TimeBound, e, arg)
		dur := d.clock.Now().Sub(start)
		tr.Observe(handlerKey(e), dur)
		tr.Trace(trace.Record{
			Event: st.name, Origin: "dispatch", Handlers: 1,
			Start: start, Duration: dur, Outcome: outcomeOf(aborted, faulted),
		})
		if aborted {
			st.aborts++
			return nil
		}
		return res
	}

	var start sim.Time
	if tr != nil {
		start = d.clock.Now()
	}
	var results []any
	ran := 0
	anyAbort, anyFault := false, false
	for _, e := range snap.handlers {
		pass := true
		for _, g := range e.guards {
			d.clock.Advance(d.profile.GuardEval)
			if !g(arg) {
				pass = false
				break
			}
		}
		if !pass {
			continue
		}
		if snap.constraint.Async && !e.primary {
			// Separate thread from the raiser: schedule on the
			// engine; result is not communicated back.
			e := e
			bound := snap.constraint.TimeBound
			d.clock.Advance(d.profile.HandlerInvoke)
			ran++
			d.engine.After(0, func() {
				if _, aborted, _ := d.invokeBounded(st, bound, e, arg); aborted {
					st.aborts++
				}
			})
			continue
		}
		d.clock.Advance(d.profile.HandlerInvoke)
		ran++
		var hstart sim.Time
		if tr != nil {
			hstart = d.clock.Now()
		}
		res, aborted, faulted := d.invokeBounded(st, snap.constraint.TimeBound, e, arg)
		if tr != nil {
			tr.Observe(handlerKey(e), d.clock.Now().Sub(hstart))
		}
		if aborted {
			st.aborts++
			anyAbort = true
			anyFault = anyFault || faulted
			continue
		}
		results = append(results, res)
	}
	if tr != nil {
		tr.Trace(trace.Record{
			Event: st.name, Origin: "dispatch", Handlers: ran,
			Start: start, Duration: d.clock.Now().Sub(start),
			Outcome: outcomeOf(anyAbort, anyFault),
		})
	}
	return snap.combiner(results)
}

// handlerKey names a handler's latency series: the event plus the
// installer's identity ("#primary" for the default implementation).
func handlerKey(e *handlerEntry) string {
	if e.primary {
		return e.event + "#primary"
	}
	return e.event + "#" + e.owner.Name
}

// outcomeOf classifies a dispatch for its trace record.
func outcomeOf(aborted, faulted bool) trace.Outcome {
	switch {
	case faulted:
		return trace.OutcomeFaulted
	case aborted:
		return trace.OutcomeAborted
	default:
		return trace.OutcomeOK
	}
}

// SetTracer enables tracing (t non-nil) or disables it (t nil). A raise in
// flight keeps whichever tracer it loaded at dispatch start.
func (d *Dispatcher) SetTracer(t *trace.Tracer) { d.tracer = t }

// Tracer returns the active tracer, or nil when tracing is disabled.
// Subsystems outside the dispatcher (netstack, scheduler, pager) use it to
// feed their own latency series through the same enable/disable switch.
func (d *Dispatcher) Tracer() *trace.Tracer { return d.tracer }

// invokeBounded runs the handler, enforcing the virtual-time bound: if the
// handler advanced the clock beyond the bound its result is discarded and it
// is reported aborted. (We cannot preempt mid-handler, but in virtual time
// the observable effect — bounded charge to the raiser, discarded result —
// matches the model; the kernel is preemptive, so a handler cannot take over
// the processor.)
//
// A handler that raises a runtime exception (panics) is contained by the
// language runtime: the exception is caught at the dispatch boundary, the
// handler's result is discarded, and the failure is counted — "the failure
// of an extension is no more catastrophic than the failure of code executing
// in the runtime libraries found in conventional systems" (§4.3). The raiser
// and all other handlers proceed. Faults are counted globally, per event,
// and per handler; a handler that exhausts its quarantine budget (fault
// threshold or time-bound-overrun budget) is unlinked.
//
// "dispatch.invoke" is a fault-injection site: an armed KindPanic rule
// faults the handler here (inside the containment boundary), a KindDelay
// rule slows it against its time bound.
func (d *Dispatcher) invokeBounded(st *Event, bound sim.Duration, e *handlerEntry, arg any) (res any, aborted, faulted bool) {
	defer func() {
		if r := recover(); r != nil {
			d.faults++
			st.faults++
			e.misbehaviour.faults++
			faults := e.misbehaviour.faults
			d.lastFault = fmt.Sprintf("handler of %q (installer %q): %v", e.event, e.owner.Name, r)
			if thr := d.qFaultThreshold; thr > 0 && faults >= thr {
				d.quarantine(st, e, fmt.Sprintf("%d faults (threshold %d), last: %v", faults, thr, r))
			}
			res, aborted, faulted = nil, true, true
		}
	}()
	d.injector.Fire("dispatch.invoke")
	if bound <= 0 {
		return e.handler(arg, e.closure), false, false
	}
	start := d.clock.Now()
	res = e.handler(arg, e.closure)
	if d.clock.Now().Sub(start) > bound {
		e.misbehaviour.overruns++
		overruns := e.misbehaviour.overruns
		if budget := d.qOverrunBudget; budget > 0 && overruns >= budget {
			d.quarantine(st, e, fmt.Sprintf("%d time-bound overruns (budget %d)", overruns, budget))
		}
		return nil, true, false
	}
	return res, false, false
}

// ExtensionFaults reports how many handler runtime exceptions the dispatcher
// has contained, and the most recent one's description.
func (d *Dispatcher) ExtensionFaults() (int64, string) {
	return d.faults, d.lastFault
}

// HandlerCount reports the number of handlers installed on event (including
// the primary).
func (d *Dispatcher) HandlerCount(event string) int {
	if st, ok := d.lookup(event); ok {
		return len(st.snap.handlers)
	}
	return 0
}

// Metrics emits, for every defined event, its raises, aborts, contained
// faults and quarantined handlers; the contained-fault total and the
// quarantine policy; and, while they are set, the tracer's latency
// histograms and the injector's per-site counters. It runs on the
// machine's owner.
func (d *Dispatcher) Metrics(emit metrics.Emit) {
	quarantined := map[string]int{}
	for _, r := range d.quarantined {
		quarantined[r.Event]++
	}
	for name, st := range d.events {
		l := fmt.Sprintf("{event=%q}", name)
		emit("dispatch_raises"+l, float64(st.raises))
		emit("dispatch_aborts"+l, float64(st.aborts))
		emit("dispatch_faults"+l, float64(st.faults))
		emit("dispatch_quarantined"+l, float64(quarantined[name]))
	}
	emit("dispatch_faults_total", float64(d.faults))
	emit("dispatch_quarantine_fault_threshold", float64(d.qFaultThreshold))
	emit("dispatch_quarantine_overrun_budget", float64(d.qOverrunBudget))
	if d.tracer != nil {
		d.tracer.Metrics(emit)
	}
	if d.injector != nil {
		d.injector.Metrics(emit)
	}
}

// Events lists the defined event names, sorted. Used by the Figure 5
// protocol-graph dump.
func (d *Dispatcher) Events() []string {
	names := make([]string, 0, len(d.events))
	for name := range d.events {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// HandlerOwners reports the identities of the handlers installed on event in
// installation order ("(primary)" for the primary). Used by the Figure 5
// graph dump.
func (d *Dispatcher) HandlerOwners(event string) []string {
	st, ok := d.lookup(event)
	if !ok {
		return nil
	}
	snap := st.snap
	out := make([]string, 0, len(snap.handlers))
	for _, e := range snap.handlers {
		if e.primary {
			out = append(out, "(primary)")
		} else {
			out = append(out, e.owner.Name)
		}
	}
	return out
}
