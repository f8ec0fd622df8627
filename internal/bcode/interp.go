package bcode

import (
	"errors"
	"fmt"
)

// Runtime errors from the interpreter. A verified program can produce none
// of these; they exist so the interpreter is safe to run on arbitrary
// (fuzzed, unverified) programs under a step budget.
var (
	// ErrBudget reports a program that exceeded its step budget.
	ErrBudget = errors.New("bcode: step budget exhausted")
	// ErrRuntime reports a structural fault (bad opcode, bad register,
	// jump out of range) hit at execution time.
	ErrRuntime = errors.New("bcode: runtime fault")
)

// Run interprets p against ctx and returns the verdict (r0 at Exit). It is
// what every load point runs. p must have passed Verify; on a verified
// program Run cannot fail, and on any other it returns 0 where RunSteps
// would report the fault.
func (p *Program) Run(ctx *Context) uint64 {
	v, _, _ := p.RunSteps(ctx, len(p.Insns))
	return v
}

// Compile returns Run as a func value, for callers that hold a program as
// a function. A Context passed through the value escapes to the heap, so
// the load points call Run directly instead.
func (p *Program) Compile() func(*Context) uint64 { return p.Run }

// RunSteps is the defensive interpreter: it executes at most budget
// instructions and checks every structural property (register numbers,
// context-word indices, jump ranges, opcodes) at runtime, so it is safe on
// programs that have NOT been verified. Verify and RunSteps together are
// the trusted code; the small-scope and fuzz tests run every accepted
// program through it and assert no error and steps <= len(p.Insns).
//
// It returns the verdict, the number of instructions executed, and any
// runtime fault.
func (p *Program) RunSteps(ctx *Context, budget int) (uint64, int, error) {
	var r [NumRegs]uint64
	n := len(p.Insns)
	bytes := ctx.Bytes
	r[2] = uint64(len(bytes))
	steps := 0
	for pc := 0; pc < n; {
		if steps >= budget {
			return 0, steps, fmt.Errorf("%w after %d steps", ErrBudget, steps)
		}
		steps++
		in := p.Insns[pc]
		if in.Dst >= NumRegs || in.Src >= NumRegs {
			return 0, steps, fmt.Errorf("%w: pc %d: register out of range", ErrRuntime, pc)
		}
		imm := uint64(int64(in.Imm)) // sign-extended
		switch in.Op {
		case OpMovImm:
			r[in.Dst] = imm
		case OpAddImm:
			r[in.Dst] += imm
		case OpSubImm:
			r[in.Dst] -= imm
		case OpMulImm:
			r[in.Dst] *= imm
		case OpDivImm:
			if imm == 0 {
				r[in.Dst] = 0
			} else {
				r[in.Dst] /= imm
			}
		case OpModImm:
			if imm != 0 {
				r[in.Dst] %= imm
			}
		case OpAndImm:
			r[in.Dst] &= imm
		case OpOrImm:
			r[in.Dst] |= imm
		case OpXorImm:
			r[in.Dst] ^= imm
		case OpLshImm:
			r[in.Dst] <<= imm & 63
		case OpRshImm:
			r[in.Dst] >>= imm & 63
		case OpMovReg:
			r[in.Dst] = r[in.Src]
		case OpAddReg:
			r[in.Dst] += r[in.Src]
		case OpSubReg:
			r[in.Dst] -= r[in.Src]
		case OpMulReg:
			r[in.Dst] *= r[in.Src]
		case OpDivReg:
			if r[in.Src] == 0 {
				r[in.Dst] = 0
			} else {
				r[in.Dst] /= r[in.Src]
			}
		case OpModReg:
			if r[in.Src] != 0 {
				r[in.Dst] %= r[in.Src]
			}
		case OpAndReg:
			r[in.Dst] &= r[in.Src]
		case OpOrReg:
			r[in.Dst] |= r[in.Src]
		case OpXorReg:
			r[in.Dst] ^= r[in.Src]
		case OpLshReg:
			r[in.Dst] <<= r[in.Src] & 63
		case OpRshReg:
			r[in.Dst] >>= r[in.Src] & 63
		case OpNeg:
			r[in.Dst] = -r[in.Dst]
		case OpLdCtx:
			if in.Imm < 0 || int(in.Imm) >= MaxCtxWords {
				return 0, steps, fmt.Errorf("%w: pc %d: context word %d out of range", ErrRuntime, pc, in.Imm)
			}
			r[in.Dst] = ctx.W[in.Imm]
		case OpLdB:
			r[in.Dst] = loadBytes(bytes, r[in.Src]+uint64(int64(in.Off)), 1)
		case OpLdH:
			r[in.Dst] = loadBytes(bytes, r[in.Src]+uint64(int64(in.Off)), 2)
		case OpLdW:
			r[in.Dst] = loadBytes(bytes, r[in.Src]+uint64(int64(in.Off)), 4)
		case OpJa:
			pc = pc + 1 + int(in.Off)
			if pc < 0 || pc > n {
				return 0, steps, fmt.Errorf("%w: jump out of range", ErrRuntime)
			}
			continue
		case OpJeqImm, OpJneImm, OpJgtImm, OpJgeImm, OpJltImm, OpJleImm, OpJsetImm:
			if condImm(in.Op, r[in.Dst], imm) {
				pc = pc + 1 + int(in.Off)
				if pc < 0 || pc > n {
					return 0, steps, fmt.Errorf("%w: jump out of range", ErrRuntime)
				}
				continue
			}
		case OpJeqReg, OpJneReg, OpJgtReg, OpJgeReg, OpJltReg, OpJleReg, OpJsetReg:
			if condImm(in.Op&^0x70|0x30, r[in.Dst], r[in.Src]) {
				pc = pc + 1 + int(in.Off)
				if pc < 0 || pc > n {
					return 0, steps, fmt.Errorf("%w: jump out of range", ErrRuntime)
				}
				continue
			}
		case OpExit:
			return r[0], steps, nil
		default:
			return 0, steps, fmt.Errorf("%w: pc %d: unknown opcode %#02x", ErrRuntime, pc, in.Op)
		}
		pc++
	}
	return 0, steps, fmt.Errorf("%w: control fell off the end", ErrRuntime)
}

// condImm evaluates one comparison opcode (imm-form numbering) against two
// operand values. All comparisons are unsigned over the full 64 bits.
func condImm(op uint8, a, b uint64) bool {
	switch op {
	case OpJeqImm:
		return a == b
	case OpJneImm:
		return a != b
	case OpJgtImm:
		return a > b
	case OpJgeImm:
		return a >= b
	case OpJltImm:
		return a < b
	case OpJleImm:
		return a <= b
	case OpJsetImm:
		return a&b != 0
	}
	return false
}

// loadBytes reads size big-endian bytes at offset off from the context's
// byte region. Any out-of-range access — including offsets that wrapped
// around from "negative" pointer arithmetic — yields 0 by definition, so a
// load can never fault.
func loadBytes(b []byte, off uint64, size uint64) uint64 {
	if off >= uint64(len(b)) || uint64(len(b))-off < size {
		return 0
	}
	var v uint64
	for i := uint64(0); i < size; i++ {
		v = v<<8 | uint64(b[off+i])
	}
	return v
}
