package bcode

// Assembler helpers: thin constructors so in-tree call sites and tests can
// write programs as Go literals instead of raw Insn structs. They perform
// no validation — that is Verify's job, and keeping them dumb lets the
// adversarial tests assemble intentionally broken programs.

// MovImm sets dst = imm.
func MovImm(dst uint8, imm int32) Insn { return Insn{Op: OpMovImm, Dst: dst, Imm: imm} }

// MovReg sets dst = src.
func MovReg(dst, src uint8) Insn { return Insn{Op: OpMovReg, Dst: dst, Src: src} }

// AddImm sets dst += imm (also the pointer-advance form).
func AddImm(dst uint8, imm int32) Insn { return Insn{Op: OpAddImm, Dst: dst, Imm: imm} }

// SubImm sets dst -= imm.
func SubImm(dst uint8, imm int32) Insn { return Insn{Op: OpSubImm, Dst: dst, Imm: imm} }

// DivImm sets dst /= imm.
func DivImm(dst uint8, imm int32) Insn { return Insn{Op: OpDivImm, Dst: dst, Imm: imm} }

// ModImm sets dst %= imm.
func ModImm(dst uint8, imm int32) Insn { return Insn{Op: OpModImm, Dst: dst, Imm: imm} }

// LshImm sets dst <<= imm (amount masked to 63).
func LshImm(dst uint8, imm int32) Insn { return Insn{Op: OpLshImm, Dst: dst, Imm: imm} }

// RshImm sets dst >>= imm (amount masked to 63).
func RshImm(dst uint8, imm int32) Insn { return Insn{Op: OpRshImm, Dst: dst, Imm: imm} }

// AddReg sets dst += src (also pointer + scalar).
func AddReg(dst, src uint8) Insn { return Insn{Op: OpAddReg, Dst: dst, Src: src} }

// DivReg sets dst /= src (src == 0 yields 0).
func DivReg(dst, src uint8) Insn { return Insn{Op: OpDivReg, Dst: dst, Src: src} }

// ModReg sets dst %= src (src == 0 leaves dst unchanged).
func ModReg(dst, src uint8) Insn { return Insn{Op: OpModReg, Dst: dst, Src: src} }

// LshReg sets dst <<= src (amount masked to 63).
func LshReg(dst, src uint8) Insn { return Insn{Op: OpLshReg, Dst: dst, Src: src} }

// LdCtx loads context word field into dst.
func LdCtx(dst uint8, field int32) Insn { return Insn{Op: OpLdCtx, Dst: dst, Imm: field} }

// LdB loads one byte at [src+off] from the byte region into dst.
func LdB(dst, src uint8, off int16) Insn { return Insn{Op: OpLdB, Dst: dst, Src: src, Off: off} }

// LdH loads two big-endian bytes at [src+off] into dst.
func LdH(dst, src uint8, off int16) Insn { return Insn{Op: OpLdH, Dst: dst, Src: src, Off: off} }

// LdW loads four big-endian bytes at [src+off] into dst.
func LdW(dst, src uint8, off int16) Insn { return Insn{Op: OpLdW, Dst: dst, Src: src, Off: off} }

// Ja jumps forward off instructions (relative to the next instruction).
func Ja(off int16) Insn { return Insn{Op: OpJa, Off: off} }

// JeqImm jumps forward off if dst == imm.
func JeqImm(dst uint8, imm int32, off int16) Insn {
	return Insn{Op: OpJeqImm, Dst: dst, Imm: imm, Off: off}
}

// JneImm jumps forward off if dst != imm.
func JneImm(dst uint8, imm int32, off int16) Insn {
	return Insn{Op: OpJneImm, Dst: dst, Imm: imm, Off: off}
}

// JgtImm jumps forward off if dst > imm (unsigned).
func JgtImm(dst uint8, imm int32, off int16) Insn {
	return Insn{Op: OpJgtImm, Dst: dst, Imm: imm, Off: off}
}

// JgtReg jumps forward off if dst > src (unsigned).
func JgtReg(dst, src uint8, off int16) Insn {
	return Insn{Op: OpJgtReg, Dst: dst, Src: src, Off: off}
}

// Exit returns r0 as the verdict.
func Exit() Insn { return Insn{Op: OpExit} }
