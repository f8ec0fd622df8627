// Package netdbg implements the network debugger listed among SPIN's core
// services (paper §5.1, after [Redell 88]'s Topaz teledebugging): an
// in-kernel extension that answers debugging queries over UDP, so a remote
// machine can inspect a running kernel — installed events and handlers,
// physical memory frames, every subsystem's counters — without stopping it.
package netdbg

import (
	"fmt"
	"sort"
	"strings"

	"spin/internal/dispatch"
	"spin/internal/metrics"
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
	// Metrics, when set, enables the "metrics [prefix]" command: every
	// sample of these sources whose name starts with prefix, in the
	// Prometheus text format.
	Metrics []metrics.Source
	// Topo, when set, enables the "topo" command: it reports the network
	// topology this kernel is part of (nodes, links, state) — e.g. a vnet
	// Internet's Describe.
	Topo func() string
	// Extra registers additional commands: name -> handler(arg) -> reply.
	Extra map[string]func(arg string) string
}

// Debugger is the server-side extension.
type Debugger struct {
	stack   *netstack.Stack
	target  Target
	queries int64
}

// Queries counts requests served.
func (d *Debugger) Queries() int64 { return d.queries }

// New installs the debugger on stack at port.
func New(stack *netstack.Stack, port uint16, target Target) (*Debugger, error) {
	d := &Debugger{stack: stack, target: target}
	err := stack.UDP().Bind(port, netstack.InKernelDelivery, func(pkt *netstack.Packet) {
		d.queries++
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
	case "faults":
		return d.faults()
	case "frame":
		return d.frame(arg)
	case "metrics":
		return d.samples(arg)
	case "topo":
		return d.topo()
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
	cmds := []string{"events", "faults", "frame <n>", "handlers <event>", "help", "metrics [prefix]", "topo"}
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

// faults reports what fault containment has logged: the last contained
// fault and the quarantine records.
func (d *Debugger) faults() string {
	disp := d.target.Dispatcher
	if disp == nil {
		return "error: no dispatcher attached"
	}
	return FaultReport(disp)
}

// FaultReport renders the dispatcher's fault log: the most recent
// contained fault and every handler the quarantine policy unlinked, and
// why. The counts are on the metrics surface. Shared by the "faults" wire
// command and spin-httpd's /debug/faults page.
func FaultReport(disp *dispatch.Dispatcher) string {
	_, last := disp.ExtensionFaults()
	if last == "" {
		last = "none"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "last fault: %s", last)
	for _, r := range disp.Quarantined() {
		fmt.Fprintf(&sb, "\nquarantined: %s", r)
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

// samples renders the attached sources' samples whose names start with
// prefix.
func (d *Debugger) samples(prefix string) string {
	if d.target.Metrics == nil {
		return "error: no metrics attached"
	}
	var sb strings.Builder
	_ = metrics.Write(&sb, strings.TrimSpace(prefix), d.target.Metrics...) // a strings.Builder never fails
	return sb.String()
}

// topo reports the surrounding network topology.
func (d *Debugger) topo() string {
	if d.target.Topo == nil {
		return "error: no topology attached"
	}
	return d.target.Topo()
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
	if err := stack.UDP().Send(replyPort, server, port, []byte(cmd)); err != nil {
		stack.UDP().Unbind(replyPort)
		return err
	}
	return nil
}
