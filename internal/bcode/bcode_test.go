package bcode

import (
	"bytes"
	"reflect"
	"testing"
)

// portFilter is the running example: drop TCP (proto 6) packets to port 80
// whose payload starts with 'G' — proto in W[0], dst port in W[4].
func portFilter() *Program {
	return New(
		LdCtx(3, 0),       // 0: r3 = proto
		JneImm(3, 6, 6),   // 1: not TCP -> 8 (pass)
		LdCtx(3, 4),       // 2: r3 = dst port
		JneImm(3, 80, 4),  // 3: not :80 -> 8 (pass)
		LdB(4, 1, 0),      // 4: r4 = payload[0]
		JneImm(4, 'G', 2), // 5: not a GET -> 8 (pass)
		MovImm(0, 1),      // 6: verdict: drop
		Exit(),            // 7
		MovImm(0, 0),      // 8: verdict: pass
		Exit(),            // 9
	)
}

func testSpec() Spec { return Spec{Words: 8} }

func TestExampleFilterVerifiesAndRuns(t *testing.T) {
	p := portFilter()
	if err := Verify(p, testSpec()); err != nil {
		t.Fatalf("verify: %v", err)
	}
	cases := []struct {
		proto, port uint64
		payload     []byte
		want        uint64
	}{
		{6, 80, []byte("GET / HTTP/1.0"), VerdictDrop},
		{6, 80, []byte("POST /"), VerdictPass},
		{6, 443, []byte("GET /"), VerdictPass},
		{17, 80, []byte("GET /"), VerdictPass},
		{6, 80, nil, VerdictPass}, // empty payload: LdB yields 0
	}
	for i, c := range cases {
		var ctx Context
		ctx.W[0] = c.proto
		ctx.W[4] = c.port
		ctx.Bytes = c.payload
		if got := p.Run(&ctx); got != c.want {
			t.Errorf("case %d: verdict %d, want %d", i, got, c.want)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := portFilter()
	enc := p.Encode()
	if len(enc) != len(p.Insns)*InsnSize {
		t.Fatalf("encoded %d bytes, want %d", len(enc), len(p.Insns)*InsnSize)
	}
	dec, err := Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(dec.Insns, p.Insns) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", dec.Insns, p.Insns)
	}
	if !bytes.Equal(dec.Encode(), enc) {
		t.Fatal("re-encode differs from original encoding")
	}
}

func TestDecodeTruncated(t *testing.T) {
	enc := portFilter().Encode()
	if _, err := Decode(enc[:len(enc)-3]); err == nil {
		t.Fatal("decode of truncated program succeeded")
	}
}

func TestInterpreterDefinedEdgeCases(t *testing.T) {
	spec := testSpec()
	cases := []struct {
		name string
		prog *Program
		ctx  Context
		want uint64
	}{
		{
			// Division by a zero register yields 0, not a fault.
			name: "div-by-zero-reg",
			prog: New(MovImm(0, 100), MovImm(3, 0), DivReg(0, 3), Exit()),
			want: 0,
		},
		{
			// Modulus by a zero register leaves dst unchanged.
			name: "mod-by-zero-reg",
			prog: New(MovImm(0, 7), MovImm(3, 0), ModReg(0, 3), Exit()),
			want: 7,
		},
		{
			// Shift amounts are masked to 63.
			name: "oversized-shift",
			prog: New(MovImm(0, 1), MovImm(3, 64), LshReg(0, 3), Exit()),
			want: 1,
		},
		{
			// Out-of-range loads yield 0: advance the pointer past the end.
			name: "oob-load",
			prog: New(AddImm(1, 1000), LdW(0, 1, 0), Exit()),
			ctx:  Context{Bytes: []byte{1, 2, 3, 4}},
			want: 0,
		},
		{
			// A short region fails the width check even at offset 0.
			name: "short-load",
			prog: New(LdW(0, 1, 0), Exit()),
			ctx:  Context{Bytes: []byte{0xff, 0xff}},
			want: 0,
		},
		{
			// Big-endian (network order) word load.
			name: "be-word",
			prog: New(LdW(0, 1, 0), Exit()),
			ctx:  Context{Bytes: []byte{0x12, 0x34, 0x56, 0x78}},
			want: 0x12345678,
		},
		{
			// r2 arrives holding the region length.
			name: "length-reg",
			prog: New(MovReg(0, 2), Exit()),
			ctx:  Context{Bytes: make([]byte, 9)},
			want: 9,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := Verify(c.prog, spec); err != nil {
				t.Fatalf("verify: %v", err)
			}
			ctx := c.ctx
			if got := c.prog.Run(&ctx); got != c.want {
				t.Errorf("got %d, want %d", got, c.want)
			}
		})
	}
}

func TestRunStepsBudget(t *testing.T) {
	p := New(MovImm(0, 1), Exit())
	if _, _, err := p.RunSteps(&Context{}, 1); err == nil {
		t.Fatal("budget 1 on a 2-step program did not error")
	}
	v, steps, err := p.RunSteps(&Context{}, len(p.Insns))
	if err != nil || v != 1 || steps != 2 {
		t.Fatalf("got v=%d steps=%d err=%v, want v=1 steps=2 err=nil", v, steps, err)
	}
}
