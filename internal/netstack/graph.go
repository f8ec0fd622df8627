package netstack

import (
	"fmt"
	"slices"
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
	// Port tables are handlers too.
	writePorts(&b, "UDP ports", s.udp.ports)
	writePorts(&b, "TCP listeners", s.tcp.listeners)
	return b.String()
}

// writePorts lists a port table's ports in order on one labelled line, or
// nothing if the table is empty.
func writePorts[K uint16 | uint32, V any](b *strings.Builder, label string, table map[K]V) {
	if len(table) == 0 {
		return
	}
	ports := make([]K, 0, len(table))
	for p := range table {
		ports = append(ports, p)
	}
	slices.Sort(ports)
	fmt.Fprintf(b, "  %s:", label)
	for _, p := range ports {
		fmt.Fprintf(b, " %d", p)
	}
	fmt.Fprintln(b)
}
