// Package bcode implements SPIN's missing piece in this reproduction: a
// verified extension bytecode. The paper's central claim (§1, §3) is that
// untrusted code can run inside the kernel because the *language and
// verifier* — not hardware protection — enforce isolation. Our in-tree
// extensions are trusted Go closures, so that claim was unreproduced until
// now. This package follows the shape of the modern descendants (eBPF, Rex):
// a small fixed-register bytecode whose programs are checked once at install
// time and then run by one interpreter that re-checks what it executes.
//
// The ISA is deliberately tiny:
//
//   - 8 general registers r0..r7 holding 64-bit values. r0 is the verdict
//     register; the program's result is r0 at Exit.
//   - ALU ops (add/sub/mul/div/mod/and/or/xor/shifts/neg/mov) in immediate
//     and register forms. Division and modulus by a zero register are
//     defined (div → 0, mod → dst unchanged); shifts mask their amount.
//   - Loads only: LdCtx reads one 64-bit word of the install point's
//     context record; LdB/LdH/LdW read 1/2/4 bytes (big-endian, network
//     order) from the context's byte region through a packet-pointer
//     register. There are NO store instructions — a program cannot write
//     kernel memory, full stop.
//   - Conditional and unconditional jumps whose offsets must be forward.
//   - Exit, returning r0 as the verdict (0 = pass/false, nonzero = match).
//
// Entry ABI: r1 holds a packet pointer to the start of the byte region,
// r2 holds its length; every other register is uninitialized and must be
// written before use. Pointers are represented as offsets from the region
// base, so pointer arithmetic is ordinary unsigned arithmetic and every
// load is bounds-checked against the region length (out-of-range loads
// yield 0 — defined, never a fault).
//
// Safety comes from Verify (see verify.go): bounds-checked context reads,
// forward-only branches (termination: each instruction executes at most
// once), a maximum program size, and a type lattice distinguishing
// packet-pointer registers from scalars so a scalar can never be
// dereferenced. Run (interp.go) is the one execution engine: a defensive
// interpreter that checks register numbers, context-word indices, jump
// targets and opcodes again as it runs, so the trusted code is Verify plus
// an interpreter that never relies on it. Every load point calls Run as a
// method on a Context declared on its own stack.
package bcode

import (
	"encoding/binary"
	"fmt"
)

// Core limits of the ISA.
const (
	// NumRegs is the size of the register file.
	NumRegs = 8
	// MaxInsns bounds program length; with forward-only branches it also
	// bounds execution steps.
	MaxInsns = 512
	// MaxCtxWords bounds the context record a load point may expose, so
	// Context can hold it inline without allocating.
	MaxCtxWords = 16
	// InsnSize is the wire size of one encoded instruction.
	InsnSize = 8
)

// Verdict conventions. A program may return any value; the load points
// interpret 0 as "pass / no match" and anything else as "match / drop".
const (
	VerdictPass uint64 = 0
	VerdictDrop uint64 = 1
)

// Opcodes. The imm forms take a 32-bit immediate (sign-extended to 64);
// the reg forms take a second register. Gaps are reserved.
const (
	OpMovImm uint8 = 0x01
	OpAddImm uint8 = 0x02
	OpSubImm uint8 = 0x03
	OpMulImm uint8 = 0x04
	OpDivImm uint8 = 0x05
	OpModImm uint8 = 0x06
	OpAndImm uint8 = 0x07
	OpOrImm  uint8 = 0x08
	OpXorImm uint8 = 0x09
	OpLshImm uint8 = 0x0a
	OpRshImm uint8 = 0x0b

	OpMovReg uint8 = 0x11
	OpAddReg uint8 = 0x12
	OpSubReg uint8 = 0x13
	OpMulReg uint8 = 0x14
	OpDivReg uint8 = 0x15
	OpModReg uint8 = 0x16
	OpAndReg uint8 = 0x17
	OpOrReg  uint8 = 0x18
	OpXorReg uint8 = 0x19
	OpLshReg uint8 = 0x1a
	OpRshReg uint8 = 0x1b
	OpNeg    uint8 = 0x1c

	OpLdCtx uint8 = 0x20
	OpLdB   uint8 = 0x21
	OpLdH   uint8 = 0x22
	OpLdW   uint8 = 0x23

	OpJa      uint8 = 0x30
	OpJeqImm  uint8 = 0x31
	OpJneImm  uint8 = 0x32
	OpJgtImm  uint8 = 0x33
	OpJgeImm  uint8 = 0x34
	OpJltImm  uint8 = 0x35
	OpJleImm  uint8 = 0x36
	OpJsetImm uint8 = 0x37

	OpJeqReg  uint8 = 0x41
	OpJneReg  uint8 = 0x42
	OpJgtReg  uint8 = 0x43
	OpJgeReg  uint8 = 0x44
	OpJltReg  uint8 = 0x45
	OpJleReg  uint8 = 0x46
	OpJsetReg uint8 = 0x47

	OpExit uint8 = 0x95
)

// Insn is one decoded instruction. Jump offsets are relative to the next
// instruction (target = pc + 1 + Off) and counted in instructions.
type Insn struct {
	Op  uint8
	Dst uint8
	Src uint8
	Off int16
	Imm int32
}

// Program is a decoded bytecode program. A Program is inert data until it
// passes Verify; only then may a load point run it.
type Program struct {
	Insns []Insn
}

// New builds a program from assembled instructions.
func New(insns ...Insn) *Program { return &Program{Insns: insns} }

// Context is the read-only record a load point exposes to a program:
// up to MaxCtxWords 64-bit words (the fields — addresses, ports, counters)
// plus one byte region (for packets, the payload). The words array is
// inline so a Context can live on the caller's stack.
type Context struct {
	W     [MaxCtxWords]uint64
	Bytes []byte
}

// Spec describes the context shape a load point provides, which Verify
// checks context reads against.
type Spec struct {
	// Words is how many context words (W[0..Words-1]) are readable.
	Words int
}

// Encode serializes the program: InsnSize bytes per instruction, little
// endian, eBPF-style layout (op, regs nibble-packed, off, imm).
func (p *Program) Encode() []byte {
	out := make([]byte, len(p.Insns)*InsnSize)
	for i, in := range p.Insns {
		b := out[i*InsnSize:]
		b[0] = in.Op
		b[1] = (in.Dst & 0x0f) | (in.Src << 4)
		binary.LittleEndian.PutUint16(b[2:], uint16(in.Off))
		binary.LittleEndian.PutUint32(b[4:], uint32(in.Imm))
	}
	return out
}

// Decode parses an encoded program. It is purely structural — opcodes,
// register numbers and offsets are validated by Verify, not here — but a
// length that is not a whole number of instructions is rejected as
// ErrVerifyTruncated: a truncated program must never reach the verifier
// looking intact.
func Decode(b []byte) (*Program, error) {
	if len(b)%InsnSize != 0 {
		return nil, fmt.Errorf("bcode: %d byte program: %w", len(b), ErrVerifyTruncated)
	}
	insns := make([]Insn, len(b)/InsnSize)
	for i := range insns {
		e := b[i*InsnSize:]
		insns[i] = Insn{
			Op:  e[0],
			Dst: e[1] & 0x0f,
			Src: e[1] >> 4,
			Off: int16(binary.LittleEndian.Uint16(e[2:])),
			Imm: int32(binary.LittleEndian.Uint32(e[4:])),
		}
	}
	return &Program{Insns: insns}, nil
}
