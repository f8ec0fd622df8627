package sal

import (
	"sync"
	"testing"

	"spin/internal/sim"
)

// Regression for the NIC counter race: sent/received/bytesSent/
// bytesReceived/rxDropped are mutated in interrupt context (the engine
// goroutine) while Stats()/RXDropped() are read from test and debug
// goroutines. The counters are atomics; under -race this test
// fails if anyone demotes them back to plain int64.
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

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sink int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				s, r, bs, br := a.Stats()
				_, _, _, _ = s, r, bs, br
				_, r2, _, _ := b.Stats()
				sink += b.RXDropped() + r2
			}
		}()
	}
	const frames = 2000
	for i := 0; i < frames; i++ {
		if err := a.Send(NetFrame{Size: 128}); err != nil {
			t.Fatal(err)
		}
		eng.Run(0)
	}
	close(stop)
	wg.Wait()

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
	if b.RXDropped() == 0 {
		t.Error("refusing upcall never counted an rx drop")
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
