package sal

import (
	"testing"

	"spin/internal/sim"
)

// The NIC's counters are plain fields owned by whoever steps the machine's
// engine; read between steps they are exact at every step:
// sent/received/bytesSent/bytesReceived/rxDropped agree with the frames
// that have crossed so far.
func TestNICStatsRaceWithDelivery(t *testing.T) {
	eng := sim.NewEngine()
	prof := &sim.SPINProfile
	ic := NewInterruptController(eng, prof)
	a := NewNIC(LanceModel, eng, ic, VecNIC0)
	b := NewNIC(LanceModel, eng, ic, VecNIC0+1)
	if err := Connect(a, b); err != nil {
		t.Fatal(err)
	}
	// Refuse every other frame so rxDropped moves too.
	refuse := false
	b.OnReceive = func(NetFrame) bool {
		refuse = !refuse
		return refuse
	}

	const frames = 2000
	for i := 0; i < frames; i++ {
		if err := a.Send(NetFrame{Size: 128}); err != nil {
			t.Fatal(err)
		}
		for eng.Step() {
			sent, _, bytesSent, _ := a.Stats()
			_, recv, _, bytesRecv := b.Stats()
			if sent != int64(i+1) || bytesSent != sent*128 || recv > sent || bytesRecv != recv*128 || b.RXDropped() != recv/2 {
				t.Fatalf("frame %d: sent %d (%d B), received %d (%d B), dropped %d", i, sent, bytesSent, recv, bytesRecv, b.RXDropped())
			}
		}
	}

	sent, _, bytesSent, _ := a.Stats()
	if sent != frames {
		t.Errorf("sent = %d, want %d", sent, frames)
	}
	if bytesSent != frames*128 {
		t.Errorf("bytesSent = %d, want %d", bytesSent, frames*128)
	}
	_, recv, _, bytesRecv := b.Stats()
	if recv != frames {
		t.Errorf("received %d, sent %d", recv, frames)
	}
	if bytesRecv != recv*128 {
		t.Errorf("bytesReceived = %d, want %d", bytesRecv, recv*128)
	}
	if b.RXDropped() != frames/2 {
		t.Errorf("rx drops = %d, want %d", b.RXDropped(), frames/2)
	}
}

// AttachWire lets a custom transport observe exactly what Send emits, with
// serialization already applied — the seam vnet builds links on.
func TestNICAttachWire(t *testing.T) {
	eng := sim.NewEngine()
	prof := &sim.SPINProfile
	ic := NewInterruptController(eng, prof)
	n := NewNIC(LanceModel, eng, ic, VecNIC0)
	var got []sim.Time
	n.AttachWire(wireFunc(func(f NetFrame, departed sim.Time) {
		got = append(got, departed)
	}))
	if n.Wire() == nil {
		t.Fatal("Wire() nil after AttachWire")
	}
	if err := n.Send(NetFrame{Size: 1000}); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(NetFrame{Size: 1000}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("wire saw %d frames", len(got))
	}
	// Back-to-back frames serialize: the second departs at least one
	// transmission time after the first.
	if gap := got[1].Sub(got[0]); gap < n.Model.TxTime(1000) {
		t.Errorf("departure gap %v < tx time %v", gap, n.Model.TxTime(1000))
	}
}

type wireFunc func(f NetFrame, departed sim.Time)

func (w wireFunc) Transmit(f NetFrame, departed sim.Time) { w(f, departed) }
