package netstack

import (
	"fmt"
	"strings"
)

// Graph renders the installed protocol graph — events (ovals) routing to
// handlers (boxes) — the textual analogue of the paper's Figure 5. Only
// protocol-graph events are shown.
func (s *Stack) Graph() string {
	var b strings.Builder
	fmt.Fprintf(&b, "protocol graph of %s (%v)\n", s.Host, s.IP)
	order := []string{
		EvEtherArrived, EvATMArrived, EvIPArrived,
		EvICMPArrived, EvUDPArrived, EvTCPArrived, EvSendPacket,
	}
	for _, ev := range order {
		owners := s.disp.HandlerOwners(ev)
		fmt.Fprintf(&b, "  (%s)\n", ev)
		if len(owners) == 0 {
			fmt.Fprintf(&b, "      -> [default transport demux]\n")
			continue
		}
		for _, o := range owners {
			fmt.Fprintf(&b, "      -> [%s]\n", o)
		}
	}
	// Port tables are handlers too (snapshot loads; safe during traffic).
	if ports := s.udp.ports.Snapshot(); len(ports) > 0 {
		fmt.Fprintf(&b, "  UDP ports:")
		for p := range ports {
			fmt.Fprintf(&b, " %d", p)
		}
		fmt.Fprintln(&b)
	}
	if listeners := s.tcp.listeners.Snapshot(); len(listeners) > 0 {
		fmt.Fprintf(&b, "  TCP listeners:")
		for p := range listeners {
			fmt.Fprintf(&b, " %d", p)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
