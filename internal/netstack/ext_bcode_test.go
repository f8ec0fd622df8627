package netstack

import (
	"errors"
	"testing"

	"spin/internal/bcode"
	"spin/internal/dispatch"
	"spin/internal/faultinject"
	"spin/internal/sal"
)

// dropUDPToPort builds a verified filter: drop UDP datagrams to port.
func dropUDPToPort(port int64) *bcode.Program {
	return bcode.New(
		bcode.LdCtx(3, CtxProto),
		bcode.JneImm(3, int32(ProtoUDP), 3), // not UDP -> pass
		bcode.LdCtx(4, CtxDstPort),
		bcode.JneImm(4, int32(port), 1), // other port -> pass
		bcode.Ja(2),                     // -> drop
		bcode.MovImm(0, 0),
		bcode.Exit(),
		bcode.MovImm(0, 1),
		bcode.Exit(),
	)
}

func TestXDPDropAndPass(t *testing.T) {
	a, b, cl := pair(t, sal.LanceModel)
	x, err := b.stack.AttachXDP("udp7-drop", dropUDPToPort(7))
	if err != nil {
		t.Fatal(err)
	}
	blocked, allowed := 0, 0
	_ = b.stack.UDP().Bind(7, InKernelDelivery, func(*Packet) { blocked++ })
	_ = b.stack.UDP().Bind(9, InKernelDelivery, func(*Packet) { allowed++ })
	_ = a.stack.UDP().Send(1, Addr(10, 0, 0, 2), 7, []byte("evil"))
	_ = a.stack.UDP().Send(1, Addr(10, 0, 0, 2), 9, []byte("fine"))
	cl.Run(0)
	if blocked != 0 {
		t.Error("xdp-dropped packet was delivered")
	}
	if allowed != 1 {
		t.Error("unmatched packet lost")
	}
	runs, drops := x.Stats()
	if runs != 2 || drops != 1 {
		t.Errorf("stats = (%d runs, %d drops), want (2, 1)", runs, drops)
	}
	// Dropped packets never reach the graph, so only one counts as
	// received.
	if got, _ := b.stack.Stats(); got != 1 {
		t.Errorf("received = %d, want 1", got)
	}

	b.stack.DetachXDP()
	if b.stack.XDP() != nil {
		t.Fatal("XDP still attached after detach")
	}
	_ = a.stack.UDP().Send(1, Addr(10, 0, 0, 2), 7, []byte("now fine"))
	cl.Run(0)
	if blocked != 1 {
		t.Error("packet still dropped after detach")
	}
}

// The XDP load point evaluates its attachment without allocating: the
// context is declared on xdpDrop's stack and Run keeps no reference to it.
func TestXDPEvalZeroAllocs(t *testing.T) {
	_, b, _ := pair(t, sal.LanceModel)
	x, err := b.stack.AttachXDP("udp7-drop", dropUDPToPort(7))
	if err != nil {
		t.Fatal(err)
	}
	pkt := &Packet{Src: Addr(10, 0, 0, 1), Dst: b.stack.IP, Proto: ProtoUDP,
		SrcPort: 1, DstPort: 7, Payload: []byte("evil"), TTL: 32}
	if allocs := testing.AllocsPerRun(1000, func() {
		if !b.stack.xdpDrop(pkt) {
			t.Fatal("matching packet passed")
		}
	}); allocs != 0 {
		t.Errorf("xdpDrop allocates %.1f per packet, want 0", allocs)
	}
	if runs, drops := x.Stats(); runs != drops || runs < 1000 {
		t.Errorf("stats = (%d runs, %d drops)", runs, drops)
	}
}

// A PacketFilter's guard builds its context on its own stack, so
// evaluating it allocates nothing, whether the program matches or not.
func TestPacketFilterGuardAllocFree(t *testing.T) {
	_, b, _ := pair(t, sal.LanceModel)
	f, err := NewProgramFilter(b.stack, "udp7-observe", dropUDPToPort(7), Observe)
	if err != nil {
		t.Fatal(err)
	}
	match := &Packet{Src: Addr(10, 0, 0, 1), Dst: b.stack.IP, Proto: ProtoUDP,
		SrcPort: 1, DstPort: 7, Payload: []byte("evil"), TTL: 32}
	miss := *match
	miss.DstPort = 9
	if allocs := testing.AllocsPerRun(1000, func() {
		if !f.guard(match) || f.guard(&miss) {
			t.Fatal("wrong verdict")
		}
	}); allocs != 0 {
		t.Errorf("a PacketFilter guard evaluation allocates %.1f per pair, want 0", allocs)
	}
	if runs, _ := f.Stats(); runs < 2000 {
		t.Errorf("%d guard evaluations counted, want >= 2000", runs)
	}
}

// Every evaluation starts from a zeroed context: a dispatcher guard whose
// binder fills only W[0] reads 0 from W[1], even right after the XDP
// program ran with the packet's source address there.
func TestVerifiedGuardReadsNoStaleWords(t *testing.T) {
	_, b, _ := pair(t, sal.LanceModel)
	if _, err := b.stack.AttachXDP("pass-all", bcode.New(bcode.MovImm(0, 0), bcode.Exit())); err != nil {
		t.Fatal(err)
	}
	guard, err := dispatch.VerifiedGuard(bcode.New(bcode.LdCtx(0, 1), bcode.Exit()), bcode.Spec{Words: 2},
		func(arg any, ctx *bcode.Context) bool {
			ctx.W[0] = uint64(arg.(int))
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	pkt := &Packet{Src: Addr(10, 0, 0, 1), Dst: b.stack.IP, Proto: ProtoUDP, DstPort: 9, TTL: 32}
	for i := 0; i < 100; i++ {
		if b.stack.xdpDrop(pkt) {
			t.Fatal("pass-all program dropped")
		}
		if guard(i) {
			t.Fatalf("evaluation %d: guard read a nonzero W[1] its binder never wrote", i)
		}
	}
}

func TestXDPRejectsUnverifiable(t *testing.T) {
	_, b, _ := pair(t, sal.LanceModel)
	loop := bcode.New(
		bcode.MovImm(0, 0),
		bcode.Insn{Op: bcode.OpJa, Off: -2},
		bcode.Exit(),
	)
	if _, err := b.stack.AttachXDP("loop", loop); !errors.Is(err, bcode.ErrVerifyBackEdge) {
		t.Fatalf("err = %v, want ErrVerifyBackEdge", err)
	}
	if b.stack.XDP() != nil {
		t.Fatal("rejected program attached anyway")
	}
	// Reading context words past the packet ABI is install-time rejected
	// too, even though the interpreter would tolerate it.
	oob := bcode.New(bcode.LdCtx(0, PacketCtxWords), bcode.Exit())
	if _, err := b.stack.AttachXDP("oob", oob); !errors.Is(err, bcode.ErrVerifyCtxOOB) {
		t.Fatalf("err = %v, want ErrVerifyCtxOOB", err)
	}
}

func TestBCodeFilterDrop(t *testing.T) {
	a, b, cl := pair(t, sal.LanceModel)
	f, err := NewProgramFilter(b.stack, "fw", dropUDPToPort(1500), Drop)
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
		t.Error("filtered packet delivered")
	}
	if allowed != 1 {
		t.Error("allowed packet lost")
	}
	runs, matched := f.Stats()
	if runs != 2 || matched != 1 {
		t.Errorf("stats = (%d runs, %d matched), want (2, 1)", runs, matched)
	}
	f.Remove()
	_ = a.stack.UDP().Send(1, Addr(10, 0, 0, 2), 1500, []byte("now fine"))
	cl.Run(0)
	if blocked != 1 {
		t.Error("packet still filtered after Remove")
	}
}

func TestBCodeFilterDivert(t *testing.T) {
	a, b, cl := pair(t, sal.LanceModel)
	// Divert UDP payloads beginning with 'G' (first payload byte via a
	// bounds-checked LdB through the packet pointer).
	prog := bcode.New(
		bcode.LdCtx(3, CtxProto),
		bcode.JneImm(3, int32(ProtoUDP), 3),
		bcode.LdB(4, 1, 0),
		bcode.JneImm(4, 'G', 1),
		bcode.Ja(2),
		bcode.MovImm(0, 0),
		bcode.Exit(),
		bcode.MovImm(0, 1),
		bcode.Exit(),
	)
	f, err := NewProgramFilter(b.stack, "snoop", prog, Divert)
	if err != nil {
		t.Fatal(err)
	}
	var diverted []byte
	f.Consumer = func(p *Packet) { diverted = p.Payload }
	normal := 0
	_ = b.stack.UDP().Bind(80, InKernelDelivery, func(*Packet) { normal++ })
	_ = a.stack.UDP().Send(1, Addr(10, 0, 0, 2), 80, []byte("GET /"))
	_ = a.stack.UDP().Send(1, Addr(10, 0, 0, 2), 80, []byte("POST /"))
	cl.Run(0)
	if string(diverted) != "GET /" {
		t.Errorf("diverted %q", diverted)
	}
	if normal != 1 {
		t.Errorf("normal deliveries = %d, want 1", normal)
	}
}

func TestBCodeFilterRejectsUnverifiable(t *testing.T) {
	_, b, _ := pair(t, sal.LanceModel)
	// Dereferencing a scalar is the classic type-confusion program.
	bad := bcode.New(
		bcode.MovImm(3, 64),
		bcode.LdB(0, 3, 0),
		bcode.Exit(),
	)
	if _, err := NewProgramFilter(b.stack, "bad", bad, Drop); !errors.Is(err, bcode.ErrVerifyType) {
		t.Fatalf("err = %v, want ErrVerifyType", err)
	}
	if n := len(b.stack.Programs()); n != 0 {
		t.Fatalf("%d programs tracked after rejected install", n)
	}
}

func TestPacketContextMapping(t *testing.T) {
	pkt := &Packet{
		Src: Addr(10, 0, 0, 1), Dst: Addr(10, 0, 0, 2),
		Proto: ProtoTCP, SrcPort: 4321, DstPort: 80,
		Flags: FlagSYN | FlagACK, TTL: 17,
		Payload: []byte("hello"),
	}
	var ctx bcode.Context
	packetContext(&ctx, pkt)
	want := map[int]uint64{
		CtxProto:   uint64(ProtoTCP),
		CtxSrc:     uint64(Addr(10, 0, 0, 1)),
		CtxDst:     uint64(Addr(10, 0, 0, 2)),
		CtxSrcPort: 4321,
		CtxDstPort: 80,
		CtxLen:     5,
		CtxTTL:     17,
		CtxFlags:   uint64(FlagSYN | FlagACK),
	}
	for word, v := range want {
		if ctx.W[word] != v {
			t.Errorf("ctx word %d = %d, want %d", word, ctx.W[word], v)
		}
	}
	if string(ctx.Bytes) != "hello" {
		t.Errorf("ctx bytes = %q", ctx.Bytes)
	}
}

func TestBCodeProgramsSnapshot(t *testing.T) {
	a, b, cl := pair(t, sal.LanceModel)
	if _, err := b.stack.AttachXDP("early", dropUDPToPort(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := NewProgramFilter(b.stack, "late", dropUDPToPort(1500), Drop); err != nil {
		t.Fatal(err)
	}
	_ = a.stack.UDP().Send(1, Addr(10, 0, 0, 2), 7, []byte("x"))
	cl.Run(0)
	progs := b.stack.Programs()
	if len(progs) != 2 {
		t.Fatalf("%d programs, want 2", len(progs))
	}
	byName := map[string]bcode.Stat{}
	for _, p := range progs {
		byName[p.Name] = p
	}
	if p := byName["early"]; p.Point != "xdp" || p.Runs != 1 || p.Hits != 1 || p.Insns != 9 {
		t.Errorf("xdp stat = %+v", p)
	}
	if p := byName["late"]; p.Point != "ip-filter" || p.Quarantined {
		t.Errorf("filter stat = %+v", p)
	}
}

// TestBCodeFilterQuarantine is the PR 4 backstop in miniature: a program
// that verifies fine but whose action faults at run time (modeled by a
// panic rule on the "bcode.run" site) burns its fault budget, is
// quarantined and unlinked, and the receive path keeps flowing.
func TestBCodeFilterQuarantine(t *testing.T) {
	a, b, cl := pair(t, sal.LanceModel)
	b.stack.disp.SetQuarantinePolicy(dispatch.DefaultQuarantinePolicy)
	inj := faultinject.New(0xbadc0de, b.eng.Clock)
	inj.Arm(faultinject.Rule{Site: "bcode.run", Kind: faultinject.KindPanic, MaxFires: 8})
	b.stack.disp.SetInjector(inj)

	f, err := NewProgramFilter(b.stack, "hostile", dropUDPToPort(53), Drop)
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	_ = b.stack.UDP().Bind(53, InKernelDelivery, func(*Packet) { delivered++ })
	for i := 0; i < 20; i++ {
		_ = a.stack.UDP().Send(1, Addr(10, 0, 0, 2), 53, []byte("query"))
		cl.Run(0)
	}
	if got := inj.FiredAt("bcode.run"); got != 8 {
		t.Errorf("fired = %d, want 8 (the fault threshold)", got)
	}
	if !f.Quarantined() {
		t.Fatal("hostile filter not quarantined")
	}
	// Containment means a faulting filter fails open: the panic is caught
	// at the dispatch boundary, the handler never claims the packet, and
	// delivery proceeds — for all 20 packets, both during the fault storm
	// and after the unlink. The kernel lost nothing.
	if delivered != 20 {
		t.Errorf("delivered = %d, want 20 (faults contained, RX never stalls)", delivered)
	}
	progs := b.stack.Programs()
	if len(progs) != 1 || !progs[0].Quarantined {
		t.Errorf("program snapshot = %+v, want quarantined entry", progs)
	}
}
