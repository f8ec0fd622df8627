package netstack

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"spin/internal/sal"
	"spin/internal/sim"
)

// establishedPair returns an ESTABLISHED client conn from a to b (port 80)
// plus the server side's conn.
func establishedPair(t *testing.T) (a, b *host, cl *sim.Cluster, client, server *Conn) {
	t.Helper()
	a, b, cl = pair(t, sal.LanceModel)
	if err := b.stack.TCP().Listen(80, nil, func(c *Conn) { server = c }); err != nil {
		t.Fatal(err)
	}
	client, err := a.stack.TCP().Connect(Addr(10, 0, 0, 2), 80, nil)
	if err != nil {
		t.Fatal(err)
	}
	cl.Run(0)
	if client.State() != StateEstablished || server == nil {
		t.Fatalf("handshake failed: client %v, server %v", client.State(), server)
	}
	return a, b, cl, client, server
}

// The foreground bugfix at the TCP layer: a SYN that is never answered is
// retransmitted with exponential backoff at most MaxRetx times, then the
// connection is torn down — OnClose fires, the shard table empties,
// Err() reports ErrTimedOut — instead of retransmitting forever.
func TestRetxCapSynSent(t *testing.T) {
	a, _, cl := pair(t, sal.LanceModel)
	a.stack.TCP().SetMaxRetx(2)
	c, err := a.stack.TCP().Connect(Addr(10, 0, 0, 9), 80, nil) // dropped at the peer's IP layer
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	c.OnClose = func(*Conn) { closed = true }
	start := a.eng.Now()
	cl.Run(0) // terminates: the retransmit timer must not rearm forever
	elapsed := a.eng.Now().Sub(start)
	if c.State() != StateClosed || !closed {
		t.Fatalf("state %v, OnClose %v — want closed", c.State(), closed)
	}
	if !errors.Is(c.Err(), ErrTimedOut) {
		t.Errorf("Err = %v, want ErrTimedOut", c.Err())
	}
	if got := a.stack.TCP().Conns(); got != 0 {
		t.Errorf("Conns = %d after timeout", got)
	}
	// 2 retransmissions then the final timer: 200+400+800ms, plus the
	// last SYN's in-flight delivery draining after the teardown.
	if elapsed < 1400*sim.Millisecond || elapsed > 1410*sim.Millisecond {
		t.Errorf("gave up after %v, want ~1.4s", elapsed)
	}
	if got := c.Retransmits(); got != 2 {
		t.Errorf("Retransmits = %d, want 2", got)
	}
}

// Data on an established connection hits the same cap when the peer goes
// silent (its NIC starts refusing every frame): the sender times out,
// tears down, and reports ErrTimedOut — no infinite data retransmission.
func TestRetxCapEstablishedData(t *testing.T) {
	a, b, cl, client, _ := establishedPair(t)
	a.stack.TCP().SetMaxRetx(2)
	b.nic.OnReceive = func(sal.NetFrame) bool { return false } // partition b
	closed := false
	client.OnClose = func(*Conn) { closed = true }
	if err := client.Send([]byte("into the void")); err != nil {
		t.Fatal(err)
	}
	cl.Run(0)
	if !closed || client.State() != StateClosed {
		t.Fatalf("client not torn down: state %v", client.State())
	}
	if !errors.Is(client.Err(), ErrTimedOut) {
		t.Errorf("Err = %v, want ErrTimedOut", client.Err())
	}
	if got := a.stack.TCP().Conns(); got != 0 {
		t.Errorf("sender Conns = %d", got)
	}
	if st := tcpStatsOf(a.stack.TCP()); st.TimedOut != 1 {
		t.Errorf("TimedOut = %d", st.TimedOut)
	}
}

// An ACK that makes forward progress resets the retransmission budget:
// a lossy-but-alive path never accumulates attempts toward the cap.
func TestRetxBudgetResetsOnProgress(t *testing.T) {
	a, _, cl, client, server := establishedPair(t)
	a.stack.TCP().SetMaxRetx(3)
	var rx int
	server.OnData = func(_ *Conn, p []byte) { rx += len(p) }
	for i := 0; i < 5; i++ {
		if err := client.Send([]byte("chunk")); err != nil {
			t.Fatal(err)
		}
		cl.Run(0)
	}
	if rx != 25 {
		t.Fatalf("server received %d bytes, want 25", rx)
	}
	if client.State() != StateEstablished || client.Err() != nil {
		t.Errorf("healthy conn degraded: %v, %v", client.State(), client.Err())
	}
}

// Satellite bugfix: Close in SYN_SENT with data queued behind the
// handshake reports ErrClosed (the bytes are discarded, not silently
// dropped) and cancels the armed retransmit timer.
func TestCloseSynSentQueuedData(t *testing.T) {
	a, _, cl := pair(t, sal.LanceModel)
	c, err := a.stack.TCP().Connect(Addr(10, 0, 0, 9), 80, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send([]byte("queued before handshake")); err != nil {
		t.Fatal(err) // SYN_SENT queues silently
	}
	cerr := c.Close()
	if !errors.Is(cerr, ErrClosed) {
		t.Fatalf("Close = %v, want ErrClosed", cerr)
	}
	if !strings.Contains(cerr.Error(), "23 queued bytes") {
		t.Errorf("Close error does not report the discarded bytes: %v", cerr)
	}
	if !errors.Is(c.Err(), ErrClosed) {
		t.Errorf("Err = %v, want ErrClosed", c.Err())
	}
	if got := a.stack.TCP().Conns(); got != 0 {
		t.Errorf("Conns = %d after close", got)
	}
	// The retransmit timer was cancelled: no pending events, no virtual
	// time passes.
	start := a.eng.Now()
	cl.Run(0)
	if elapsed := a.eng.Now().Sub(start); elapsed != 0 {
		t.Errorf("events still pending %v after close — retx timer not cancelled", elapsed)
	}
	// A Close without queued data reports nothing.
	c2, err := a.stack.TCP().Connect(Addr(10, 0, 0, 9), 80, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Close(); err != nil {
		t.Errorf("clean SYN_SENT close = %v, want nil", err)
	}
}

// Satellite bugfix: State, Retransmits, ZeroWindowProbes and Err are read
// concurrently by monitoring code while the engine mutates the connection
// — they must be race-free (run under -race) and never observe torn
// values. The engine goroutine drives a handshake, data with a partitioned
// peer (forcing retransmissions), and the timeout teardown, while readers
// hammer the accessors.
func TestConnAccessorRaceTorture(t *testing.T) {
	a, b, cl, client, _ := establishedPair(t)
	a.stack.TCP().SetMaxRetx(3)
	b.nic.OnReceive = func(sal.NetFrame) bool { return false }

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if s := client.State(); s != StateEstablished && s != StateClosed && s != StateSynSent {
					// Transitional states are fine too; the point is the
					// value is always a real state, never torn.
					_ = s
				}
				if n := client.Retransmits(); n < 0 || n > 64 {
					t.Errorf("implausible Retransmits %d", n)
					return
				}
				_ = client.ZeroWindowProbes()
				if err := client.Err(); err != nil && !errors.Is(err, ErrTimedOut) {
					t.Errorf("unexpected Err %v", err)
					return
				}
			}
		}()
	}
	if err := client.Send(make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	cl.Run(0) // retransmit to exhaustion, teardown
	stop.Store(true)
	wg.Wait()
	if !errors.Is(client.Err(), ErrTimedOut) {
		t.Fatalf("Err = %v after torture, want ErrTimedOut", client.Err())
	}
}
