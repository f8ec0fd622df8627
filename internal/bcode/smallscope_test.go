package bcode

import (
	"errors"
	"testing"
)

// smallScopeInsns is the scope TestVerifierSmallScope enumerates: ten
// opcodes over r0-r2, which at entry are unwritten (r0), the packet pointer
// (r1) and the region length (r2), so every operand type occurs.
// Immediates come from {0, 1, -1}, byte-load offsets from {0, 1, 2},
// context words from {0, 1, 2} (word 2 is past the spec) and jump offsets
// from {-2, -1, 0, 1, 2} (the negative ones are back edges). The full
// cross product is 186 instructions; it is trimmed to 36, keeping for each
// opcode one operand choice per verifier rule it can meet, so that the
// 1.7 M programs of up to four instructions run in about a second.
var smallScopeInsns = []Insn{
	MovImm(0, 0), MovImm(0, 1), MovImm(0, -1),
	MovImm(1, 0),  // the pointer becomes a scalar
	MovImm(2, -1), // the largest unsigned value
	AddReg(0, 2),
	AddReg(1, 2), // ptr += scalar advances the pointer
	AddReg(1, 1), // ptr += ptr: rejected
	AddReg(2, 1), // scalar += ptr: rejected
	DivReg(0, 2),
	DivReg(2, 0), // r0 may be zero at run time: defined, yields 0
	DivReg(0, 1), // divide by a pointer: rejected
	LdCtx(0, 0), LdCtx(0, 1),
	LdCtx(0, 2), // past Spec{Words: 2}: rejected
	LdB(0, 1, 0), LdB(0, 1, 2),
	LdB(0, 2, 0), // through a scalar: rejected
	LdB(1, 1, 0), // overwrites the pointer it loads through
	LdW(0, 1, 0), LdW(0, 1, 2), LdW(2, 1, 1),
	JeqImm(0, 0, -1), JeqImm(0, 0, 0), JeqImm(0, 1, 1), JeqImm(0, -1, 2),
	JeqImm(1, 0, 1), // compares a pointer: rejected
	JgtReg(0, 2, -2), JgtReg(0, 2, 1), JgtReg(2, 0, 0),
	JgtReg(0, 1, 1), // compares a pointer: rejected
	Ja(-1), Ja(-2), Ja(1), Ja(2),
	Exit(),
}

// TestVerifierSmallScope checks the trusted code, Verify and the defensive
// interpreter, against each other over every program of one to four
// instructions drawn from smallScopeInsns. A program Verify admits under
// Spec{Words: 2} must run on an empty, a 1-byte and an 8-byte region with
// no runtime fault and at most one step per instruction, and its verdict
// must not move when the words past the spec (2..15) are poisoned. A
// program it rejects must carry a *VerifyError. A verifier that admits a
// back edge fails the step bound; one that admits a context read past its
// spec shows the poison in a verdict.
func TestVerifierSmallScope(t *testing.T) {
	spec := Spec{Words: 2}
	regions := [][]byte{nil, {0xff}, {1, 2, 3, 4, 5, 6, 7, 8}}
	var clean, poisoned Context
	clean.W[1] = 2
	poisoned = clean
	for w := spec.Words; w < MaxCtxWords; w++ {
		poisoned.W[w] = ^uint64(w)
	}

	var idx [4]int
	var buf [4]Insn
	accepted, rejected := 0, 0
	for n := 1; n <= len(buf); n++ {
		idx = [4]int{}
		for {
			for i := 0; i < n; i++ {
				buf[i] = smallScopeInsns[idx[i]]
			}
			p := &Program{Insns: buf[:n]}
			if err := Verify(p, spec); err != nil {
				var ve *VerifyError
				if !errors.As(err, &ve) {
					t.Fatalf("%+v: rejection is not a *VerifyError: %v", p.Insns, err)
				}
				rejected++
			} else {
				accepted++
				for _, b := range regions {
					clean.Bytes, poisoned.Bytes = b, b
					v, steps, err := p.RunSteps(&clean, n)
					if err != nil || steps > n {
						t.Fatalf("%+v on %d bytes: admitted program ran %d steps, err %v", p.Insns, len(b), steps, err)
					}
					if pv, _, err := p.RunSteps(&poisoned, n); err != nil || pv != v {
						t.Fatalf("%+v on %d bytes: verdict %d with words 2-15 poisoned, %d without (err %v)",
							p.Insns, len(b), pv, v, err)
					}
				}
			}
			// Next program of this length: an odometer over the scope.
			i := 0
			for ; i < n; i++ {
				if idx[i]++; idx[i] < len(smallScopeInsns) {
					break
				}
				idx[i] = 0
			}
			if i == n {
				break
			}
		}
	}
	t.Logf("%d programs admitted, %d rejected", accepted, rejected)
}
