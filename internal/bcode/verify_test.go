package bcode

import (
	"errors"
	"testing"
)

// TestVerifyRejectsAdversarialCorpus is the table of hostile programs: each
// attacks one verifier invariant and must be rejected with its specific
// typed reason — a rejection for the "wrong" reason is a test failure,
// because it usually means one check is shadowing a hole in another.
func TestVerifyRejectsAdversarialCorpus(t *testing.T) {
	spec := Spec{Words: 8}
	oversized := make([]Insn, MaxInsns+1)
	for i := range oversized {
		oversized[i] = MovImm(0, 0)
	}
	oversized[len(oversized)-1] = Exit()

	cases := []struct {
		name string
		prog *Program
		want error
	}{
		{
			name: "back-edge-loop",
			prog: New(MovImm(0, 0), Insn{Op: OpJa, Off: -2}, Exit()),
			want: ErrVerifyBackEdge,
		},
		{
			name: "self-loop",
			prog: New(MovImm(0, 0), Insn{Op: OpJa, Off: -1}, Exit()),
			want: ErrVerifyBackEdge,
		},
		{
			name: "conditional-back-edge",
			prog: New(MovImm(0, 10), SubImm(0, 1), Insn{Op: OpJneImm, Dst: 0, Imm: 0, Off: -2}, Exit()),
			want: ErrVerifyBackEdge,
		},
		{
			name: "jump-past-end",
			prog: New(MovImm(0, 0), Ja(5), Exit()),
			want: ErrVerifyJumpRange,
		},
		{
			name: "ctx-read-past-spec",
			prog: New(LdCtx(0, 8), Exit()),
			want: ErrVerifyCtxOOB,
		},
		{
			name: "ctx-read-negative",
			prog: New(LdCtx(0, -1), Exit()),
			want: ErrVerifyCtxOOB,
		},
		{
			name: "deref-scalar",
			prog: New(MovImm(3, 5), LdB(0, 3, 0), Exit()),
			want: ErrVerifyType,
		},
		{
			name: "deref-forged-pointer",
			// Launder a scalar into a "pointer" through MovReg of a scalar:
			// still a scalar, still rejected at the load.
			prog: New(MovImm(3, 0x1000), MovReg(4, 3), LdW(0, 4, 0), Exit()),
			want: ErrVerifyType,
		},
		{
			name: "pointer-subtraction",
			prog: New(MovImm(0, 0), SubImm(1, 4), Exit()),
			want: ErrVerifyType,
		},
		{
			name: "pointer-into-arith",
			prog: New(MovImm(0, 1), AddReg(0, 1), Exit()),
			want: ErrVerifyType,
		},
		{
			name: "pointer-comparison",
			prog: New(MovImm(0, 0), JeqImm(1, 0, 0), Exit()),
			want: ErrVerifyType,
		},
		{
			name: "pointer-verdict",
			prog: New(MovReg(0, 1), Exit()),
			want: ErrVerifyType,
		},
		{
			name: "uninit-read",
			prog: New(MovImm(0, 0), AddReg(0, 5), Exit()),
			want: ErrVerifyUninit,
		},
		{
			name: "uninit-verdict",
			prog: New(LdCtx(3, 0), Exit()),
			want: ErrVerifyUninit,
		},
		{
			name: "type-divergent-merge",
			// r3 is a pointer on one path and a scalar on the other; the
			// merge makes it unusable on either interpretation.
			prog: New(
				LdCtx(4, 0),     // 0: r4 = proto
				JeqImm(4, 6, 2), // 1: -> 4
				MovReg(3, 1),    // 2: r3 = ptr
				Ja(1),           // 3: -> 5
				MovImm(3, 0),    // 4: r3 = scalar
				MovReg(0, 3),    // 5: r0 = merged r3
				Exit(),          // 6
			),
			want: ErrVerifyUninit,
		},
		{
			name: "oversized-program",
			prog: New(oversized...),
			want: ErrVerifyTooLarge,
		},
		{
			name: "empty-program",
			prog: New(),
			want: ErrVerifyEmpty,
		},
		{
			name: "div-by-zero-imm",
			prog: New(MovImm(0, 1), DivImm(0, 0), Exit()),
			want: ErrVerifyDivZero,
		},
		{
			name: "mod-by-zero-imm",
			prog: New(MovImm(0, 1), ModImm(0, 0), Exit()),
			want: ErrVerifyDivZero,
		},
		{
			name: "register-out-of-range",
			prog: New(Insn{Op: OpMovImm, Dst: 9, Imm: 1}, MovImm(0, 0), Exit()),
			want: ErrVerifyRegister,
		},
		{
			name: "src-register-out-of-range",
			prog: New(MovImm(0, 0), Insn{Op: OpAddReg, Dst: 0, Src: 12}, Exit()),
			want: ErrVerifyRegister,
		},
		{
			name: "unknown-opcode",
			prog: New(Insn{Op: 0x7f}, MovImm(0, 0), Exit()),
			want: ErrVerifyOpcode,
		},
		{
			name: "store-like-opcode-rejected",
			// The ISA has no stores; anything shaped like one (eBPF's 0x62
			// ST) is just an unknown opcode.
			prog: New(MovImm(0, 0), Insn{Op: 0x62, Dst: 1, Imm: 1}, Exit()),
			want: ErrVerifyOpcode,
		},
		{
			name: "falls-off-end",
			prog: New(MovImm(0, 0), MovImm(3, 1)),
			want: ErrVerifyNoExit,
		},
		{
			name: "conditional-in-final-slot",
			// A conditional in the last slot cannot have a legal target
			// (tgt >= pc+1 == len), so it is a range rejection.
			prog: New(MovImm(0, 0), JeqImm(0, 0, 0)),
			want: ErrVerifyJumpRange,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := Verify(c.prog, spec)
			if err == nil {
				t.Fatal("hostile program passed verification")
			}
			if !errors.Is(err, c.want) {
				t.Fatalf("rejected with %v, want %v", err, c.want)
			}
			var ve *VerifyError
			if !errors.As(err, &ve) {
				t.Fatalf("error %v is not a *VerifyError", err)
			}
		})
	}
}

// TestVerifyTruncatedEncoding covers the decode-side typed error: an
// encoding that is not a whole number of instructions.
func TestVerifyTruncatedEncoding(t *testing.T) {
	enc := New(MovImm(0, 0), Exit()).Encode()
	for _, cut := range []int{1, 7, 9, 15} {
		if _, err := Decode(enc[:cut]); !errors.Is(err, ErrVerifyTruncated) {
			t.Errorf("decode of %d bytes: err %v, want ErrVerifyTruncated", cut, err)
		}
	}
	if _, err := Decode(enc); err != nil {
		t.Fatalf("whole encoding failed to decode: %v", err)
	}
}

// TestVerifyAcceptsUnreachableGarbage: instructions no path reaches are
// ignored — they can never execute, so their content is irrelevant.
func TestVerifyAcceptsUnreachableGarbage(t *testing.T) {
	p := New(
		MovImm(0, 0),
		Ja(1),          // over the garbage
		Insn{Op: 0xee}, // unreachable
		Exit(),
	)
	if err := Verify(p, Spec{Words: 0}); err != nil {
		t.Fatalf("unreachable garbage rejected: %v", err)
	}
	if got := p.Run(&Context{}); got != 0 {
		t.Fatalf("verdict %d, want 0", got)
	}
}
