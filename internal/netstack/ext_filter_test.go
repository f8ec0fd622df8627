package netstack

import (
	"errors"
	"testing"

	"spin/internal/bcode"
	"spin/internal/sal"
)

func TestFilterObserveCountsWithoutInterfering(t *testing.T) {
	a, b, cl := pair(t, sal.LanceModel)
	filt, err := NewPacketFilter(b.stack, "udp-watch", MatchProto(ProtoUDP), Observe)
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	_ = b.stack.UDP().Bind(9, InKernelDelivery, func(*Packet) { delivered++ })
	_ = a.stack.UDP().Send(1, Addr(10, 0, 0, 2), 9, []byte("x"))
	_ = a.stack.Ping(Addr(10, 0, 0, 2), 1, 8, nil)
	cl.Run(0)
	if delivered != 1 {
		t.Errorf("delivered = %d; observe filter interfered", delivered)
	}
	if runs, matched := filt.Stats(); runs != 2 || matched != 1 {
		t.Errorf("stats = (%d runs, %d matched), want (2, 1): UDP only", runs, matched)
	}
}

func TestFilterDrop(t *testing.T) {
	a, b, cl := pair(t, sal.LanceModel)
	// Firewall: drop everything to ports 1000-2000 from this source.
	_, err := NewPacketFilter(b.stack, "fw",
		And(MatchProto(ProtoUDP), MatchDstPortRange(1000, 2000), MatchSrc(Addr(10, 0, 0, 1))),
		Drop)
	if err != nil {
		t.Fatal(err)
	}
	blocked, allowed := 0, 0
	_ = b.stack.UDP().Bind(1500, InKernelDelivery, func(*Packet) { blocked++ })
	_ = b.stack.UDP().Bind(3000, InKernelDelivery, func(*Packet) { allowed++ })
	_ = a.stack.UDP().Send(1, Addr(10, 0, 0, 2), 1500, []byte("evil"))
	_ = a.stack.UDP().Send(1, Addr(10, 0, 0, 2), 3000, []byte("fine"))
	cl.Run(0)
	if blocked != 0 {
		t.Error("firewalled packet delivered")
	}
	if allowed != 1 {
		t.Error("allowed packet lost")
	}
}

func TestFilterDivert(t *testing.T) {
	a, b, cl := pair(t, sal.LanceModel)
	var diverted []byte
	filt, err := NewPacketFilter(b.stack, "snoop",
		And(MatchProto(ProtoUDP), MatchPayloadPrefix([]byte("SNMP"))),
		Divert)
	if err != nil {
		t.Fatal(err)
	}
	filt.Consumer = func(p *Packet) { diverted = p.Payload }
	normal := 0
	_ = b.stack.UDP().Bind(161, InKernelDelivery, func(*Packet) { normal++ })
	_ = a.stack.UDP().Send(1, Addr(10, 0, 0, 2), 161, []byte("SNMPv2 trap"))
	_ = a.stack.UDP().Send(1, Addr(10, 0, 0, 2), 161, []byte("other"))
	cl.Run(0)
	if string(diverted) != "SNMPv2 trap" {
		t.Errorf("diverted %q", diverted)
	}
	if normal != 1 {
		t.Errorf("normal deliveries = %d, want 1 (only the non-SNMP one)", normal)
	}
}

// TestPredicateCombinators runs every combinator through lower → verify →
// run, on both engines: a predicate's meaning is whatever its bytecode
// computes, so this table is the combinators' specification.
func TestPredicateCombinators(t *testing.T) {
	p := &Packet{Proto: ProtoTCP, Src: Addr(1, 2, 3, 4), DstPort: 80, Payload: []byte("GET /")}
	// 192.168.0.1 has bit 31 set: as a sign-extended 32-bit immediate it
	// would never equal the zero-extended context word.
	high := &Packet{Proto: ProtoUDP, Src: Addr(192, 168, 0, 1), Dst: Addr(192, 168, 0, 2),
		DstPort: 53, Payload: []byte{0xff, 0xfe, 0xfd, 0xfc, 0xfb}}
	short := &Packet{Proto: ProtoTCP, DstPort: 80, Payload: []byte("GE")}
	tcp, udp := MatchProto(ProtoTCP), MatchProto(ProtoUDP)
	web, tls := MatchDstPortRange(80, 80), MatchDstPortRange(443, 443)
	// Deep enough that an inner early exit has to cross several enclosing
	// nodes' code to reach its target: multi-hop forward jumps in both
	// polarities.
	nest := Or(
		And(udp, Or(tls, Not(And(tcp, web)))),
		Not(Or(udp, And(tcp, Not(Or(tls, And(web, MatchPayloadPrefix([]byte("GET")))))))),
		And(Not(tcp), Not(udp)),
	)
	cases := []struct {
		name string
		pkt  *Packet
		pred Predicate
		want bool
	}{
		{"proto", p, tcp, true},
		{"wrong proto", p, udp, false},
		{"src", p, MatchSrc(Addr(1, 2, 3, 4)), true},
		{"dst", p, MatchDst(Addr(9, 9, 9, 9)), false},
		{"port range", p, MatchDstPortRange(1, 100), true},
		{"port below range", p, MatchDstPortRange(81, 100), false},
		{"port above range", p, MatchDstPortRange(1, 79), false},
		{"port from zero", p, MatchDstPortRange(0, 80), true},
		{"payload", p, MatchPayloadPrefix([]byte("GET")), true},
		{"payload mismatch", p, MatchPayloadPrefix([]byte("GEX")), false},
		{"payload too long", p, MatchPayloadPrefix([]byte("GET /index.html")), false},
		{"payload empty prefix", p, MatchPayloadPrefix(nil), true},
		{"and", p, And(tcp, MatchDstPortRange(1, 100)), true},
		{"and fails", p, And(tcp, tls), false},
		{"or", p, Or(udp, web), true},
		{"or fails", p, Or(udp, tls), false},
		{"not", p, Not(udp), true},
		{"not range", p, Not(MatchDstPortRange(1, 100)), false},
		{"empty and", p, And(), true},
		{"empty or", p, Or(), false},
		{"not empty and", p, Not(And()), false},
		{"high src", high, MatchSrc(Addr(192, 168, 0, 1)), true},
		{"high src mismatch", high, MatchSrc(Addr(192, 168, 0, 2)), false},
		{"not high dst", high, Not(MatchDst(Addr(192, 168, 0, 2))), false},
		{"high payload", high, MatchPayloadPrefix([]byte{0xff, 0xfe, 0xfd, 0xfc, 0xfb}), true},
		{"high payload mismatch", high, MatchPayloadPrefix([]byte{0xff, 0xfe, 0xfd, 0xfd}), false},
		{"payload shorter than prefix", short, MatchPayloadPrefix([]byte("GET")), false},
		{"not payload shorter than prefix", short, Not(MatchPayloadPrefix([]byte("GET"))), true},
		{"nest tcp/80 GET", p, nest, true},
		{"nest tcp/80 short", short, nest, false},
		{"nest udp/53", high, nest, true},
		{"nest icmp", &Packet{Proto: ProtoICMP}, nest, true},
	}
	for _, c := range cases {
		prog := c.pred.Program()
		if err := bcode.Verify(prog, PacketSpec); err != nil {
			t.Errorf("%s: lowered program rejected: %v", c.name, err)
			continue
		}
		var ctx bcode.Context
		packetContext(&ctx, c.pkt)
		if got := prog.Run(&ctx) != bcode.VerdictPass; got != c.want {
			t.Errorf("%s = %v, want %v", c.name, got, c.want)
		}
	}
}

// A predicate too large for the ISA is rejected at install time by the
// verifier, with its typed error, and nothing is installed.
func TestPredicateTooLargeRejectedAtInstall(t *testing.T) {
	_, b, _ := pair(t, sal.LanceModel)
	ports := make([]Predicate, bcode.MaxInsns)
	for i := range ports {
		ports[i] = MatchDstPortRange(uint16(2*i), uint16(2*i))
	}
	if _, err := NewPacketFilter(b.stack, "huge", Or(ports...), Drop); !errors.Is(err, bcode.ErrVerifyTooLarge) {
		t.Fatalf("err = %v, want ErrVerifyTooLarge", err)
	}
	if got := page(t, "bcode_", b.stack); got != "" {
		t.Fatalf("programs tracked after rejected install:\n%s", got)
	}
}

func TestFilterRemove(t *testing.T) {
	a, b, cl := pair(t, sal.LanceModel)
	filt, _ := NewPacketFilter(b.stack, "fw", MatchProto(ProtoUDP), Drop)
	delivered := 0
	_ = b.stack.UDP().Bind(9, InKernelDelivery, func(*Packet) { delivered++ })
	_ = a.stack.UDP().Send(1, Addr(10, 0, 0, 2), 9, []byte("1"))
	cl.Run(0)
	filt.Remove()
	_ = a.stack.UDP().Send(1, Addr(10, 0, 0, 2), 9, []byte("2"))
	cl.Run(0)
	if delivered != 1 {
		t.Errorf("delivered = %d, want 1 (second packet after removal)", delivered)
	}
	if filt.String() == "" {
		t.Error("String empty")
	}
}
