package netstack

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"spin/internal/bcode"
	"spin/internal/dispatch"
	"spin/internal/domain"
)

// PacketFilter: the paper's §2.1 argues that "little language" in-kernel
// packet filters [Mogul et al. 87, Yuhara et al. 94] are subsumed by SPIN's
// extension model — a filter is just a guard composed from predicates, and
// its action is an ordinary handler running at native speed. Here the
// little language is real: predicates are expressions that lower to bcode
// over the packet ABI, so an in-tree filter passes the same verifier, runs
// on the same interpreter and sits behind the same quarantine backstop
// as a program loaded from untrusted wire bytes. There is no trusted-Go
// predicate path.

// Predicate is a packet-matching expression: a field test, or And/Or/Not
// over sub-expressions. Program lowers it to verifiable bytecode.
type Predicate struct {
	// A leaf loads one field into the scratch register and matches when
	// lo <= field <= hi.
	load   bcode.Insn
	lo, hi uint64
	// A node combines kids with op ('&', '|', '!'); 0 marks a leaf.
	op   byte
	kids []Predicate
}

// Scratch registers of lowered code (r1/r2 are the entry ABI's payload
// pointer and length).
const (
	regField = 3
	regConst = 4
)

func matchWord(word int32, lo, hi uint64) Predicate {
	return Predicate{load: bcode.LdCtx(regField, word), lo: lo, hi: hi}
}

// MatchProto matches the IP protocol number.
func MatchProto(proto uint8) Predicate {
	return matchWord(CtxProto, uint64(proto), uint64(proto))
}

// MatchSrc matches the source address.
func MatchSrc(addr IPAddr) Predicate { return matchWord(CtxSrc, uint64(addr), uint64(addr)) }

// MatchDst matches the destination address.
func MatchDst(addr IPAddr) Predicate { return matchWord(CtxDst, uint64(addr), uint64(addr)) }

// MatchDstPortRange matches destination ports in [lo, hi].
func MatchDstPortRange(lo, hi uint16) Predicate {
	return matchWord(CtxDstPort, uint64(lo), uint64(hi))
}

// MatchPayloadPrefix matches packets whose payload starts with prefix: a
// length test, then the prefix compared in 4-, 2- and 1-byte loads.
func MatchPayloadPrefix(prefix []byte) Predicate {
	kids := []Predicate{matchWord(CtxLen, uint64(len(prefix)), math.MaxUint64)}
	for off := 0; off < len(prefix); {
		var v uint64
		load, n := bcode.LdB, 1
		switch rest := len(prefix) - off; {
		case rest >= 4:
			load, n = bcode.LdW, 4
		case rest >= 2:
			load, n = bcode.LdH, 2
		}
		for _, b := range prefix[off : off+n] {
			v = v<<8 | uint64(b)
		}
		kids = append(kids, Predicate{load: load(regField, 1, int16(off)), lo: v, hi: v})
		off += n
	}
	return And(kids...)
}

// And is true when every predicate is.
func And(ps ...Predicate) Predicate { return Predicate{op: '&', kids: ps} }

// Or is true when any predicate is.
func Or(ps ...Predicate) Predicate { return Predicate{op: '|', kids: ps} }

// Not negates a predicate.
func Not(pred Predicate) Predicate { return Predicate{op: '!', kids: []Predicate{pred}} }

// lowering assembles a predicate. Every jump is forward: a jump is emitted
// against a label and its offset patched when the label is bound, which is
// always later in the instruction stream.
type lowering struct{ insns []bcode.Insn }

// label collects the jumps waiting for one target.
type label struct{ sites []int }

func (l *lowering) jump(in bcode.Insn, to *label) {
	to.sites = append(to.sites, len(l.insns))
	l.insns = append(l.insns, in)
}

func (l *lowering) bind(to *label) {
	for _, at := range to.sites {
		l.insns[at].Off = int16(len(l.insns) - at - 1)
	}
}

// cmp emits "jump to `to` if field <op> k" for one of the imm-form compare
// opcodes. Immediates are sign-extended to 64 bits but fields are
// zero-extended, so a constant with bit 31 set (an address such as
// 192.168.0.1, a payload word ≥ 0x80) goes through a zero-extended register
// and the register form of the same opcode.
func (l *lowering) cmp(op uint8, k uint64, to *label) {
	if k <= math.MaxInt32 {
		l.jump(bcode.Insn{Op: op, Dst: regField, Imm: int32(k)}, to)
		return
	}
	l.insns = append(l.insns, bcode.MovImm(regConst, int32(uint32(k))),
		bcode.LshImm(regConst, 32), bcode.RshImm(regConst, 32))
	l.jump(bcode.Insn{Op: op + (bcode.OpJeqReg - bcode.OpJeqImm), Dst: regField, Src: regConst}, to)
}

// emit lowers p to code that jumps to `to` when p evaluates to want and
// falls through otherwise.
func (l *lowering) emit(p Predicate, want bool, to *label) {
	switch p.op {
	case '!':
		l.emit(p.kids[0], !want, to)
	case '&', '|':
		// And jumps out on its first false kid, Or on its first true one.
		// When that is the outcome wanted, every kid jumps straight to
		// `to`; otherwise the early exits skip past the last kid, which
		// alone decides.
		short := p.op == '|'
		if len(p.kids) == 0 {
			if want != short {
				l.jump(bcode.Ja(0), to)
			}
			return
		}
		if want == short {
			for _, k := range p.kids {
				l.emit(k, short, to)
			}
			return
		}
		var skip label
		last := len(p.kids) - 1
		for _, k := range p.kids[:last] {
			l.emit(k, short, &skip)
		}
		l.emit(p.kids[last], want, to)
		l.bind(&skip)
	default:
		l.insns = append(l.insns, p.load)
		switch {
		case p.lo == p.hi && want:
			l.cmp(bcode.OpJeqImm, p.lo, to)
		case p.lo == p.hi:
			l.cmp(bcode.OpJneImm, p.lo, to)
		case want:
			var skip label
			if p.lo > 0 {
				l.cmp(bcode.OpJltImm, p.lo, &skip)
			}
			if p.hi == math.MaxUint64 {
				l.jump(bcode.Ja(0), to)
			} else {
				l.cmp(bcode.OpJleImm, p.hi, to)
			}
			l.bind(&skip)
		default:
			if p.lo > 0 {
				l.cmp(bcode.OpJltImm, p.lo, to)
			}
			if p.hi != math.MaxUint64 {
				l.cmp(bcode.OpJgtImm, p.hi, to)
			}
		}
	}
}

// Program lowers the predicate to bytecode over PacketSpec whose verdict is
// 1 when the packet matches and 0 otherwise. The result is unverified; an
// expression too large for the ISA is the verifier's to reject.
func (p Predicate) Program() *bcode.Program {
	var l lowering
	var match label
	l.emit(p, true, &match)
	l.insns = append(l.insns, bcode.MovImm(0, 0), bcode.Exit())
	l.bind(&match)
	l.insns = append(l.insns, bcode.MovImm(0, 1), bcode.Exit())
	return bcode.New(l.insns...)
}

// FilterAction is what a matching filter does with the packet.
type FilterAction int

// Filter actions.
const (
	// Observe counts the packet and lets processing continue.
	Observe FilterAction = iota
	// Drop claims the packet, suppressing further processing.
	Drop
	// Divert claims the packet and hands it to the filter's consumer.
	Divert
)

func (a FilterAction) String() string {
	switch a {
	case Observe:
		return "observe"
	case Drop:
		return "drop"
	case Divert:
		return "divert"
	}
	return fmt.Sprintf("action(%d)", int(a))
}

// PacketFilter is one installed filter: a verified program as the guard of
// an IP-layer handler that performs the action.
type PacketFilter struct {
	stack  *Stack
	action FilterAction
	prog   *bcode.Attachment
	ref    dispatch.HandlerRef
	owner  domain.Identity
	// Consumer receives diverted packets.
	Consumer func(*Packet)
}

// NewPacketFilter lowers pred to bytecode and installs it at the IP layer
// of stack (see NewProgramFilter).
func NewPacketFilter(stack *Stack, name string, pred Predicate, action FilterAction) (*PacketFilter, error) {
	return NewProgramFilter(stack, name, pred.Program(), action)
}

// NewProgramFilter verifies prog and installs it at the IP layer of stack:
// the program becomes the handler's guard — evaluated by the dispatcher
// like any other guard, with the same per-guard cost the §5.5 experiment
// measures — and the action runs as an ordinary handler. The handler body
// passes the "bcode.run" fault-injection site (a panic rule there models an
// action that faults at run time), and the dispatcher's quarantine is the
// backstop: the fault is contained, the filter fails open, and at threshold
// it is unlinked like any other bad extension.
func NewProgramFilter(stack *Stack, name string, prog *bcode.Program, action FilterAction) (*PacketFilter, error) {
	att, err := bcode.Attach(name, "ip-filter", prog, PacketSpec)
	if err != nil {
		return nil, err
	}
	f := &PacketFilter{
		stack: stack, action: action, prog: att,
		owner: domain.Identity{Name: "filter:" + name},
	}
	f.ref, err = stack.disp.Install(EvIPArrived, func(arg, _ any) any {
		pkt := arg.(*Packet)
		stack.disp.InjectorInstalled().Fire("bcode.run")
		att.Hit()
		if f.action == Observe {
			return false
		}
		if f.action == Divert && f.Consumer != nil {
			f.Consumer(pkt)
		}
		return true
	}, dispatch.InstallOptions{Installer: f.owner, Guard: f.guard})
	if err != nil {
		return nil, err
	}
	stack.filters = append(stack.filters, f)
	return f, nil
}

// guard is the filter's dispatcher guard. Its context lives on this frame:
// nothing hands it to a func value, so nothing makes it escape.
func (f *PacketFilter) guard(arg any) bool {
	pkt, ok := arg.(*Packet)
	if !ok {
		return false
	}
	var ctx bcode.Context
	packetContext(&ctx, pkt)
	return f.prog.Run(&ctx)
}

// Stats reports guard evaluations and actions completed.
func (f *PacketFilter) Stats() (runs, matched int64) { return f.prog.Stats() }

// Quarantined reports whether the dispatcher has unlinked this filter for
// exhausting its fault budget.
func (f *PacketFilter) Quarantined() bool {
	return slices.ContainsFunc(f.stack.disp.Quarantined(), func(rec dispatch.QuarantineRecord) bool {
		return rec.Owner == f.owner
	})
}

// Remove uninstalls the filter (a no-op if quarantine already did).
func (f *PacketFilter) Remove() {
	_ = f.stack.disp.Remove(f.ref)
	if i := slices.Index(f.stack.filters, f); i >= 0 {
		f.stack.filters = slices.Delete(f.stack.filters, i, i+1)
	}
}

// String describes the filter.
func (f *PacketFilter) String() string {
	_, matched := f.Stats()
	return fmt.Sprintf("filter %s (%s): matched %d", strings.TrimSpace(f.prog.Name()), f.action, matched)
}
