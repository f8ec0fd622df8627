// Package faultinject is the kernel's deterministic fault-injection
// harness. The SPIN paper's safety argument (§4.3) — "the failure of an
// extension is no more catastrophic than the failure of code executing in
// the runtime libraries" — is only credible if the failure paths are
// exercised; this package generates those failures on demand, exactly
// reproducibly.
//
// A *site* is a named point in a kernel code path (the dispatcher's handler
// invocation, the netstack RX path, the VM pager's fault handler, ...) that
// consults the injector before proceeding. Site names follow the same
// convention as internal/trace latency series ("dispatch.invoke", "net.rx",
// "vm.pager.fault"), so a trace report and an injection plan speak the same
// vocabulary.
//
// Determinism: whether a given hit of a site fires is a pure function of
// (seed, site name, hit index) — a splitmix64 hash, not shared PRNG state —
// so the decision sequence at each site replays exactly across runs
// whatever order the sites are reached in. Virtual-time delays advance the
// simulation clock; nothing reads wall-clock time.
//
// Cost: the dispatcher holds the injector as a plain pointer (the same
// discipline as trace.Tracer); with injection disabled a site costs one
// predictable nil check. An injector belongs to one machine, so its
// bookkeeping is plain fields and maps.
package faultinject

import (
	"fmt"
	"slices"

	"spin/internal/metrics"
	"spin/internal/sim"
)

// Kind is the failure mode a rule injects.
type Kind uint8

// Failure modes.
const (
	// KindPanic makes Fire panic with an *Injected value — a runtime
	// exception at the site, to be contained by the layer above.
	KindPanic Kind = iota + 1
	// KindDelay advances the virtual clock by the rule's Delay before the
	// site proceeds — a slow extension, for exercising time bounds.
	KindDelay
	// KindError returns the rule's Err from Fire; the site surfaces it as
	// the operation's failure.
	KindError
	// KindDrop tells the site to discard its unit of work (a packet, a
	// fragment, a segment) silently.
	KindDrop
)

func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	case KindError:
		return "error"
	case KindDrop:
		return "drop"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Injected is the panic value (and error) carried by injected faults, so
// recovery layers can distinguish harness-made failures from real bugs.
type Injected struct {
	Site string
	Seq  int64 // global fire sequence number
}

func (e *Injected) Error() string {
	return fmt.Sprintf("faultinject: injected fault at %q (seq %d)", e.Site, e.Seq)
}

// Rule arms one failure mode at one site.
type Rule struct {
	// Site names the injection point ("dispatch.invoke", "net.rx", ...).
	Site string
	// Kind is the failure mode.
	Kind Kind
	// Probability is the chance each hit fires. Values <= 0 or >= 1 mean
	// "every hit".
	Probability float64
	// After skips the first After hits of the site before the rule becomes
	// eligible (deterministic "fail the Nth operation" scenarios).
	After uint64
	// MaxFires bounds how many times the rule fires; 0 is unlimited.
	MaxFires uint64
	// Delay is the virtual time injected by KindDelay rules.
	Delay sim.Duration
	// Err is returned by KindError rules (a generic error if nil).
	Err error
}

// Fault describes what a Fire call injected (zero value: nothing fired).
type Fault struct {
	Site string
	Kind Kind
	// Err is set for KindError rules.
	Err error
	// Delay is the virtual time charged by KindDelay rules (already
	// advanced on the clock by Fire).
	Delay sim.Duration
	// Seq is the global fire sequence number.
	Seq int64
}

// Fired reports whether a fault actually fired.
func (f Fault) Fired() bool { return f.Kind != 0 }

// armedRule is a Rule with its live counters.
type armedRule struct {
	Rule
	hits  uint64
	fires uint64
}

// siteStats aggregates per-site counters, kept across Arm/Disarm so a test
// can assert "every injected fault was counted exactly once" after the plan
// changed mid-run.
type siteStats struct {
	hits  int64
	fires int64
}

// Injector holds an armed set of rules and evaluates them at sites. One
// injector serves one machine and, like the rest of it, is armed, fired and
// read by whoever steps the machine's engine; nil is a valid, inert
// injector.
type Injector struct {
	seed  uint64
	clock *sim.Clock

	// rules is the armed plan by site.
	rules map[string][]*armedRule
	// stats is the per-site counter table.
	stats map[string]*siteStats

	fired int64
}

// New returns an injector with no rules armed. seed drives every
// probabilistic decision; the clock receives KindDelay advances, so it may
// be nil only while no KindDelay rule is armed.
func New(seed uint64, clock *sim.Clock) *Injector {
	return &Injector{seed: seed, clock: clock, rules: make(map[string][]*armedRule), stats: make(map[string]*siteStats)}
}

// Arm adds rules to the plan. Rules at the same site are evaluated in
// arming order; the first that fires wins the hit.
func (in *Injector) Arm(rules ...Rule) {
	for _, r := range rules {
		if r.Site != "" && r.Kind != 0 {
			in.rules[r.Site] = append(in.rules[r.Site], &armedRule{Rule: r})
		}
	}
}

// Disarm removes every rule at site (fired counters are retained).
func (in *Injector) Disarm(site string) { delete(in.rules, site) }

// DisarmAll removes every rule (counters are retained).
func (in *Injector) DisarmAll() { clear(in.rules) }

// decide reports whether hit number n of a rule fires, as a pure function
// of the seed, the site and the hit index.
func (in *Injector) decide(r *armedRule, n uint64) bool {
	if r.Probability <= 0 || r.Probability >= 1 {
		return true
	}
	x := sim.Mix64(in.seed ^ sim.HashString(r.Site) ^ n)
	return float64(x>>11)/(1<<53) < r.Probability
}

// Fire evaluates the rules armed at site and applies at most one fault:
// KindPanic panics with an *Injected, KindDelay advances the virtual clock,
// KindError and KindDrop are returned for the caller to apply. It is safe
// on a nil injector (the disabled case).
func (in *Injector) Fire(site string) Fault {
	if in == nil {
		return Fault{}
	}
	rules := in.rules[site]
	if len(rules) == 0 {
		return Fault{}
	}
	st, ok := in.stats[site]
	if !ok {
		st = &siteStats{}
		in.stats[site] = st
	}
	st.hits++
	for _, r := range rules {
		r.hits++
		if r.hits <= r.After || !in.decide(r, r.hits) || (r.MaxFires != 0 && r.fires >= r.MaxFires) {
			continue
		}
		r.fires++
		return in.apply(site, r, st)
	}
	return Fault{}
}

// apply commits one fire: counts it, then injects the failure mode.
func (in *Injector) apply(site string, r *armedRule, st *siteStats) Fault {
	in.fired++
	seq := in.fired
	st.fires++
	f := Fault{Site: site, Kind: r.Kind, Seq: seq}
	switch r.Kind {
	case KindPanic:
		panic(&Injected{Site: site, Seq: seq})
	case KindDelay:
		f.Delay = r.Delay
		in.clock.Advance(r.Delay)
	case KindError:
		f.Err = r.Err
		if f.Err == nil {
			f.Err = &Injected{Site: site, Seq: seq}
		}
	case KindDrop:
		// The caller discards its unit of work.
	}
	return f
}

// Fired reports the total number of faults injected (all sites).
func (in *Injector) Fired() int64 {
	if in == nil {
		return 0
	}
	return in.fired
}

// FiredAt reports how many faults have been injected at site.
func (in *Injector) FiredAt(site string) int64 {
	if in == nil {
		return 0
	}
	if st, ok := in.stats[site]; ok {
		return st.fires
	}
	return 0
}

// HitsAt reports how many times site consulted the injector (fired or not).
func (in *Injector) HitsAt(site string) int64 {
	if in == nil {
		return 0
	}
	if st, ok := in.stats[site]; ok {
		return st.hits
	}
	return 0
}

// Sites lists every site that has consulted the injector, sorted.
func (in *Injector) Sites() []string {
	if in == nil {
		return nil
	}
	sites := make([]string, 0, len(in.stats))
	for site := range in.stats {
		sites = append(sites, site)
	}
	slices.Sort(sites)
	return sites
}

// Seed returns the seed the injector replays from.
func (in *Injector) Seed() uint64 {
	if in == nil {
		return 0
	}
	return in.seed
}

// Metrics emits how often each site consulted the injector and how often
// a fault fired there, the total fired, and the seed the run replays from.
func (in *Injector) Metrics(emit metrics.Emit) {
	emit(fmt.Sprintf("faultinject_seed{seed=\"%d\"}", in.seed), 1)
	emit("faultinject_fired_total", float64(in.fired))
	for site, st := range in.stats {
		emit(fmt.Sprintf("faultinject_hits{site=%q}", site), float64(st.hits))
		emit(fmt.Sprintf("faultinject_fires{site=%q}", site), float64(st.fires))
	}
}
