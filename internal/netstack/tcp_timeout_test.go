package netstack

import (
	"errors"
	"strings"
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
// retransmitted with exponential backoff at most DefaultMaxRetx times, then the
// connection is torn down — OnClose fires, the connection table empties,
// Err() reports ErrTimedOut — instead of retransmitting forever.
func TestRetxCapSynSent(t *testing.T) {
	a, _, cl := pair(t, sal.LanceModel)
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
	// DefaultMaxRetx retransmissions then the final timer, 19.0s, plus
	// the last SYN's in-flight delivery draining after the teardown.
	if elapsed < 19000*sim.Millisecond || elapsed > 19010*sim.Millisecond {
		t.Errorf("gave up after %v, want ~19.0s", elapsed)
	}
	if got := c.Retransmits(); got != DefaultMaxRetx {
		t.Errorf("Retransmits = %d, want %d", got, DefaultMaxRetx)
	}
}

// Data on an established connection hits the same cap when the peer goes
// silent (its NIC starts refusing every frame): the sender times out,
// tears down, and reports ErrTimedOut — no infinite data retransmission.
func TestRetxCapEstablishedData(t *testing.T) {
	a, b, cl, client, _ := establishedPair(t)
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
	_, _, cl, client, server := establishedPair(t)
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

// State, Retransmits, ZeroWindowProbes and Err are plain fields the
// connection's owner reads between steps. The owner drives data at a
// partitioned peer (forcing retransmissions) and the timeout teardown,
// reading the accessors after every step: the state is always a real one,
// retransmissions only grow and stay under the cap, and Err is nil until
// the teardown, ErrTimedOut after it.
func TestConnAccessorRaceTorture(t *testing.T) {
	_, b, cl, client, _ := establishedPair(t)
	b.nic.OnReceive = func(sal.NetFrame) bool { return false }

	if err := client.Send(make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	var last int64
	for cl.Step() { // retransmit to exhaustion, teardown
		s, n := client.State(), client.Retransmits()
		if s != StateEstablished && s != StateClosed {
			t.Fatalf("state %v while retransmitting to a partitioned peer", s)
		}
		if n < last || n > 64 {
			t.Fatalf("Retransmits went %d -> %d", last, n)
		}
		last = n
		if client.ZeroWindowProbes() != 0 {
			t.Fatalf("%d zero-window probes with the window open", client.ZeroWindowProbes())
		}
		if err := client.Err(); (err != nil) != (s == StateClosed) || err != nil && !errors.Is(err, ErrTimedOut) {
			t.Fatalf("Err = %v in state %v", err, s)
		}
	}
	if !errors.Is(client.Err(), ErrTimedOut) || last == 0 {
		t.Fatalf("Err = %v after %d retransmissions, want ErrTimedOut", client.Err(), last)
	}
}
