package bcode

import (
	"bytes"
	"errors"
	"testing"
)

// The verifier is an untrusted-input boundary exactly like the packet and
// DNS decoders: arbitrary bytes arrive claiming to be a program, and the
// whole safety story rests on Verify either rejecting them or guaranteeing
// they run bounded and fault-free. FuzzVerify drives random encodings
// through Decode+Verify and executes every accepted program in the
// defensive interpreter under a step-budget watchdog; any runtime fault or
// budget overrun on an accepted program is a soundness bug, not bad input.

func fuzzSpec() Spec { return Spec{Words: 8} }

// fuzzContexts are the execution environments every accepted program runs
// under: empty, short, and realistically sized byte regions.
func fuzzContexts() []*Context {
	small := &Context{Bytes: []byte{0x45}}
	full := &Context{Bytes: bytes.Repeat([]byte{0xa5, 0x00, 0xff, 0x13}, 16)}
	for i := range full.W {
		full.W[i] = uint64(i) * 0x0101010101010101
	}
	return []*Context{{}, small, full}
}

func FuzzVerify(f *testing.F) {
	// Seed with an accepted filter, a near-miss (back edge), and raw junk.
	f.Add(New(
		LdCtx(3, 0),
		JneImm(3, 6, 2),
		MovImm(0, 1),
		Exit(),
		MovImm(0, 0),
		Exit(),
	).Encode())
	f.Add(New(MovImm(0, 0), Insn{Op: OpJa, Off: -2}, Exit()).Encode())
	f.Add(New(MovImm(0, 1), Exit()).Encode())
	f.Add([]byte("\x95\x00\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte{0x20, 0x00, 0xff, 0x7f, 0xff, 0xff, 0xff, 0x7f})

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrVerifyTruncated) {
				t.Fatalf("decode failed with untyped error: %v", err)
			}
			return
		}
		if err := Verify(p, fuzzSpec()); err != nil {
			// Rejected: must carry a typed reason.
			var ve *VerifyError
			if !errors.As(err, &ve) {
				t.Fatalf("rejection without *VerifyError: %v", err)
			}
			return
		}
		// Accepted: the program must run to Exit within len(p.Insns)
		// steps on every context, fault-free.
		for i, ctx := range fuzzContexts() {
			_, steps, rerr := p.RunSteps(ctx, len(p.Insns))
			if rerr != nil {
				t.Fatalf("ctx %d: verified program faulted: %v\nprogram: %+v", i, rerr, p.Insns)
			}
			if steps > len(p.Insns) {
				t.Fatalf("ctx %d: %d steps > %d instructions (termination bound broken)", i, steps, len(p.Insns))
			}
		}
	})
}

// FuzzDecode asserts the wire codec is a bijection on whole-instruction
// inputs: Decode(b) re-encodes to exactly b, and decoding the re-encoding
// yields the same program.
func FuzzDecode(f *testing.F) {
	f.Add(New(MovImm(0, 1), Exit()).Encode())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88})
	f.Add(bytes.Repeat([]byte{0x00}, 24))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			if len(data)%InsnSize == 0 {
				t.Fatalf("whole-instruction input rejected: %v", err)
			}
			return
		}
		enc := p.Encode()
		if !bytes.Equal(enc, data) {
			t.Fatalf("re-encode differs:\n in  %x\n out %x", data, enc)
		}
		p2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(p2.Insns) != len(p.Insns) {
			t.Fatalf("re-decode length %d, want %d", len(p2.Insns), len(p.Insns))
		}
		for i := range p.Insns {
			if p.Insns[i] != p2.Insns[i] {
				t.Fatalf("insn %d differs: %+v vs %+v", i, p.Insns[i], p2.Insns[i])
			}
		}
	})
}
