package netstack

import (
	"runtime"
	"slices"
	"testing"
	"time"
)

// collectAndAge runs a collection and waits until the free list has aged,
// so that what follows starts after ageFreePackets wherever the finalizer
// goroutine was scheduled. The young generation must hold a packet.
func collectAndAge(t *testing.T) {
	t.Helper()
	runtime.GC()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		packets.Lock()
		aged := packets.young == nil
		packets.Unlock()
		if aged {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the free list did not age after a collection")
		}
	}
}

// packetBursts takes 32 packets at a time with an 18-byte payload and
// releases them, n times: the shape of a burst of small datagrams.
func packetBursts(n int) {
	var burst [32]*Packet
	var payload [18]byte
	for range n {
		for i := range burst {
			burst[i] = AllocPacket()
			burst[i].SetPayload(payload[:])
		}
		for _, p := range burst {
			p.Release()
		}
	}
}

// A replay after a collection allocates no packet: the packets released
// before it are handed out again, and only the young generation's storage
// (3 objects: the generation, its slice and its weak pointer) is made
// anew. A sync.Pool would make its per-processor storage again after every
// collection (8 to 10 objects a round here) and lose what the processor
// the goroutine left still held. The counter is the whole process's, so a
// round may also count a stray runtime object; the median round may not.
func TestPacketFreeListReplaysAfterACollection(t *testing.T) {
	packetBursts(1)
	var counts []uint64
	for range 9 {
		collectAndAge(t)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		packetBursts(64)
		runtime.ReadMemStats(&after)
		counts = append(counts, after.Mallocs-before.Mallocs)
	}
	t.Logf("objects allocated by 64 bursts after each collection: %v", counts)
	sorted := slices.Clone(counts)
	slices.Sort(sorted)
	if median := sorted[len(sorted)/2]; median > 3 {
		t.Errorf("64 bursts after a collection allocated %v objects; want at most 3 in the median round", counts)
	}
}

// A released packet outlives the next collection, for the next AllocPacket
// to hand out, and is freed by the one after when nothing took it again.
func TestPacketFreeListLetsGoOfWhatIsNotTaken(t *testing.T) {
	freed := make(chan struct{})
	p := AllocPacket()
	runtime.SetFinalizer(p, func(*Packet) { close(freed) })
	p.Release()
	p = nil
	collectAndAge(t)
	select {
	case <-freed:
		t.Fatal("a released packet was freed by the first collection after it")
	default:
	}
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(5 * time.Second):
		t.Fatal("a released packet that nothing took again is still held after two collections")
	}
}
