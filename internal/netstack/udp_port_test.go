package netstack

import (
	"errors"
	"testing"

	"spin/internal/sal"
)

// Regression (ephemeral-port wraparound): the pre-fix allocator incremented a
// uint16 past 65535 and wrapped to port 0, handing out well-known ports. The
// allocator is clamped to [EphemeralMin, EphemeralMax] and wraps inside the
// range.
func TestEphemeralPortWrapsInsideRange(t *testing.T) {
	h := newNetHost(t, "eph", Addr(10, 0, 0, 1), sal.LanceModel)
	u := h.stack.UDP()
	// Park the cursor on the last port of the range.
	u.mu.Lock()
	u.cursor = EphemeralMax - EphemeralMin
	u.mu.Unlock()
	p1, err := u.EphemeralPort()
	if err != nil {
		t.Fatal(err)
	}
	if p1 != EphemeralMax {
		t.Fatalf("port at cursor end = %d, want %d", p1, EphemeralMax)
	}
	if err := u.Bind(p1, nil, nil); err != nil {
		t.Fatal(err)
	}
	// The next allocation crosses the boundary: it must wrap to the bottom
	// of the ephemeral range, never to port 0 or the well-known range.
	p2, err := u.EphemeralPort()
	if err != nil {
		t.Fatal(err)
	}
	if p2 != EphemeralMin {
		t.Fatalf("port after wrap = %d, want %d", p2, EphemeralMin)
	}
	for i := 0; i < 100; i++ {
		p, err := u.EphemeralPort()
		if err != nil {
			t.Fatal(err)
		}
		if p < EphemeralMin {
			t.Fatalf("allocator escaped the ephemeral range: port %d", p)
		}
	}
}

// Allocation skips bound ports and reports exhaustion with an error instead
// of looping or wrapping out of range.
func TestEphemeralPortExhaustion(t *testing.T) {
	h := newNetHost(t, "exh", Addr(10, 0, 0, 1), sal.LanceModel)
	u := h.stack.UDP()
	// Occupy the whole range in one publication (Bind would copy the table
	// 45536 times); the allocator only reads the snapshot.
	u.ports.Update(func(full map[uint16]udpBinding) {
		for p := EphemeralMin; p <= EphemeralMax; p++ {
			full[uint16(p)] = udpBinding{}
		}
	})
	if _, err := u.EphemeralPort(); !errors.Is(err, ErrPortsExhausted) {
		t.Fatalf("err = %v, want ErrPortsExhausted", err)
	}
	// Freeing one port anywhere in the range makes it allocatable again.
	u.Unbind(40000)
	p, err := u.EphemeralPort()
	if err != nil {
		t.Fatal(err)
	}
	if p != 40000 {
		t.Fatalf("allocated %d, want the single free port 40000", p)
	}
}
