// Package netdbg implements the network debugger listed among SPIN's core
// services (paper §5.1, after [Redell 88]'s Topaz teledebugging): an
// in-kernel extension that answers debugging queries over UDP, so a remote
// machine can inspect a running kernel — installed events and handlers,
// physical memory state, dispatcher statistics — without stopping it.
package netdbg

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"spin/internal/bcode"
	"spin/internal/dispatch"
	"spin/internal/netstack"
	"spin/internal/sal"
)

// DefaultPort is the debugger's UDP port.
const DefaultPort = 2345

// Target is the set of kernel facilities the debugger exposes. Nil fields
// disable the corresponding commands.
type Target struct {
	Dispatcher *dispatch.Dispatcher
	Phys       *sal.PhysMem
	MMU        *sal.MMU
	// Net, when set, enables the transport inspection commands (the
	// debugger's own stack is used when nil).
	Net *netstack.Stack
	// Topo, when set, enables the "topo" command: it reports the network
	// topology this kernel is part of (nodes, links, state) — e.g. a vnet
	// Internet's Describe.
	Topo func() string
	// LB, when set, enables the "lb" command: a snapshot of this kernel's
	// load-balancer state (ring membership, breaker states, retry budget).
	LB func() LBReport
	// BCode, when set, enables the "bcode" command: the verified bytecode
	// programs loaded into this kernel (XDP filters, dispatcher guards,
	// steal policies) with run counters and quarantine state.
	BCode func() []bcode.Stat
	// Extra registers additional commands: name -> handler(arg) -> reply.
	Extra map[string]func(arg string) string
}

// Debugger is the server-side extension.
type Debugger struct {
	stack   *netstack.Stack
	target  Target
	queries atomic.Int64
}

// Queries counts requests served.
func (d *Debugger) Queries() int64 { return d.queries.Load() }

// New installs the debugger on stack at port.
func New(stack *netstack.Stack, port uint16, target Target) (*Debugger, error) {
	d := &Debugger{stack: stack, target: target}
	if d.target.Net == nil {
		d.target.Net = stack
	}
	err := stack.UDP().Bind(port, netstack.InKernelDelivery, func(pkt *netstack.Packet) {
		d.queries.Add(1)
		reply := d.execute(string(pkt.Payload))
		_ = stack.UDP().Send(port, pkt.Src, pkt.SrcPort, []byte(reply))
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// execute runs one command line: "cmd [arg]".
func (d *Debugger) execute(line string) string {
	cmd, arg, _ := strings.Cut(strings.TrimSpace(line), " ")
	switch cmd {
	case "help":
		return d.help()
	case "events":
		return d.events()
	case "handlers":
		return d.handlers(arg)
	case "stats":
		return d.stats(arg)
	case "faults":
		return d.faults()
	case "frame":
		return d.frame(arg)
	case "tlb":
		return d.tlb()
	case "mem":
		return d.mem()
	case "net":
		return d.net()
	case "topo":
		return d.topo()
	case "lb":
		return d.lb()
	case "bcode":
		return d.bcode()
	default:
		if d.target.Extra != nil {
			if h, ok := d.target.Extra[cmd]; ok {
				return h(arg)
			}
		}
		return fmt.Sprintf("error: unknown command %q (try help)", cmd)
	}
}

func (d *Debugger) help() string {
	cmds := []string{"bcode", "events", "faults", "frame <n>", "handlers <event>", "help", "lb", "mem", "net", "stats <event>", "tlb", "topo"}
	for c := range d.target.Extra {
		cmds = append(cmds, c)
	}
	sort.Strings(cmds)
	return "commands: " + strings.Join(cmds, ", ")
}

func (d *Debugger) events() string {
	if d.target.Dispatcher == nil {
		return "error: no dispatcher attached"
	}
	return strings.Join(d.target.Dispatcher.Events(), "\n")
}

func (d *Debugger) handlers(event string) string {
	if d.target.Dispatcher == nil {
		return "error: no dispatcher attached"
	}
	owners := d.target.Dispatcher.HandlerOwners(event)
	if owners == nil {
		return fmt.Sprintf("error: no event %q", event)
	}
	return fmt.Sprintf("%s: %d handler(s): %s", event, len(owners), strings.Join(owners, ", "))
}

func (d *Debugger) stats(event string) string {
	if d.target.Dispatcher == nil {
		return "error: no dispatcher attached"
	}
	raises, aborts, faults := d.target.Dispatcher.Stats(event)
	return fmt.Sprintf("%s: raises=%d aborts=%d faults=%d", event, raises, aborts, faults)
}

// faults summarizes extension misbehaviour: global and per-event contained
// fault counts, plus the quarantine log — which handlers the dispatcher has
// unlinked, and why.
func (d *Debugger) faults() string {
	disp := d.target.Dispatcher
	if disp == nil {
		return "error: no dispatcher attached"
	}
	return FaultReport(disp)
}

// FaultReport renders the dispatcher's fault-containment state: contained
// fault totals, per-event fault and quarantine counts, the active policy
// and the quarantine log. Shared by the "faults" wire command and
// spin-httpd's /debug/faults endpoint.
func FaultReport(disp *dispatch.Dispatcher) string {
	total, last := disp.ExtensionFaults()
	var sb strings.Builder
	fmt.Fprintf(&sb, "faults: %d contained", total)
	if last != "" {
		fmt.Fprintf(&sb, "; last: %s", last)
	}
	for _, ev := range disp.Events() {
		if _, _, f := disp.Stats(ev); f > 0 {
			fmt.Fprintf(&sb, "\n  %s: faults=%d quarantined=%d", ev, f, disp.QuarantinedOn(ev))
		}
	}
	q := disp.Quarantined()
	pol := disp.QuarantinePolicyInEffect()
	fmt.Fprintf(&sb, "\nquarantine: %d handler(s) unlinked (fault threshold %d, overrun budget %d)",
		len(q), pol.FaultThreshold, pol.OverrunBudget)
	for _, r := range q {
		fmt.Fprintf(&sb, "\n  %s", r)
	}
	return sb.String()
}

func (d *Debugger) frame(arg string) string {
	if d.target.Phys == nil {
		return "error: no physical memory attached"
	}
	var n uint64
	if _, err := fmt.Sscanf(arg, "%d", &n); err != nil {
		return "error: frame <number>"
	}
	fr, err := d.target.Phys.Frame(n)
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("frame %d: inuse=%v dirty=%v referenced=%v color=%d",
		n, fr.InUse, fr.Dirty, fr.Referenced, fr.Color)
}

func (d *Debugger) tlb() string {
	if d.target.MMU == nil {
		return "error: no MMU attached"
	}
	hits, misses := d.target.MMU.TLBStats()
	return fmt.Sprintf("tlb: hits=%d misses=%d faults=%d", hits, misses, d.target.MMU.Faults())
}

func (d *Debugger) mem() string {
	if d.target.Phys == nil {
		return "error: no physical memory attached"
	}
	inUse := 0
	total := d.target.Phys.NumFrames()
	for i := 0; i < total; i++ {
		fr, _ := d.target.Phys.Frame(uint64(i))
		if fr.InUse {
			inUse++
		}
	}
	return fmt.Sprintf("mem: %d/%d frames in use", inUse, total)
}

// net summarizes the transport state of the target's stack, and why its
// segments were retransmitted.
func (d *Debugger) net() string {
	st := d.target.Net
	rx, tx := st.Stats()
	ts := st.TCP().Stats()
	return fmt.Sprintf("net %s (%v): rx=%d tx=%d tcp-conns=%d half-open=%d evicted=%d resets=%d timed-out=%d"+
		" fast-recoveries=%d rack-lost=%d tlp-probes=%d rtos=%d dsacks=%d",
		st.Host, st.IP, rx, tx, ts.Conns, ts.HalfOpen, ts.HalfOpenEvicted, ts.Resets, ts.TimedOut,
		ts.FastRecoveries, ts.RACKMarkedLost, ts.TLPProbes, ts.RTOs, ts.DSACKsReceived)
}

// topo reports the surrounding network topology.
func (d *Debugger) topo() string {
	if d.target.Topo == nil {
		return "error: no topology attached"
	}
	return d.target.Topo()
}

// lb reports the attached load balancer's state.
func (d *Debugger) lb() string {
	if d.target.LB == nil {
		return "error: no load balancer attached"
	}
	return d.target.LB().String()
}

// bcode reports the verified programs loaded into the target kernel.
func (d *Debugger) bcode() string {
	if d.target.BCode == nil {
		return "error: no bcode programs attached"
	}
	return bcode.Report(d.target.BCode())
}

// LBBackend is one backend's health in an LBReport.
type LBBackend struct {
	Name          string // ring member name
	Host          string // DNS name dialed
	State         string // breaker state: closed / open / half-open
	Picks         int64
	Successes     int64
	Failures      int64
	Probes        int64
	ProbeFailures int64
	Ejections     int64
}

// LBReport is the load-balancer snapshot shared by the "lb" wire command
// and spin-httpd's /debug/lb endpoint: ring membership, per-backend
// breaker states and counters, ejections, and the client's retry-budget
// spend. internal/lb fills it; this package only renders it, so the
// debugger does not depend on the balancer (or vice versa).
type LBReport struct {
	Members   []string // currently in the ring (healthy)
	Backends  []LBBackend
	Ejections int64

	// Client-side dialer counters (zero when only a balancer is attached).
	Requests     int64
	Attempts     int64
	Retries      int64
	Failovers    int64
	BudgetTokens float64
	BudgetSpent  int64
	BudgetDenied int64
}

// String renders the report for the wire and the debug endpoint.
func (r LBReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "lb: ring %d/%d backends [%s], ejections=%d",
		len(r.Members), len(r.Backends), strings.Join(r.Members, " "), r.Ejections)
	fmt.Fprintf(&sb, "\nclient: requests=%d attempts=%d retries=%d failovers=%d budget=%.2f spent=%d denied=%d",
		r.Requests, r.Attempts, r.Retries, r.Failovers, r.BudgetTokens, r.BudgetSpent, r.BudgetDenied)
	for _, b := range r.Backends {
		fmt.Fprintf(&sb, "\n  %-12s %-9s picks=%-6d ok=%-6d fail=%-4d probes=%-5d probe-fail=%-4d ejections=%d",
			b.Name, b.State, b.Picks, b.Successes, b.Failures, b.Probes, b.ProbeFailures, b.Ejections)
	}
	return sb.String()
}

// Query sends one debugger command from a client stack and invokes done
// with the reply text. The reply port is ephemeral.
func Query(stack *netstack.Stack, server netstack.IPAddr, port uint16, cmd string, done func(string)) error {
	replyPort, err := stack.UDP().EphemeralPort()
	if err != nil {
		return err
	}
	err = stack.UDP().Bind(replyPort, netstack.InKernelDelivery, func(pkt *netstack.Packet) {
		stack.UDP().Unbind(replyPort)
		if done != nil {
			done(string(pkt.Payload))
		}
	})
	if err != nil {
		return err
	}
	return stack.UDP().Send(replyPort, server, port, []byte(cmd))
}
