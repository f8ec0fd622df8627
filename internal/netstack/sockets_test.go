package netstack

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"spin/internal/sal"
	"spin/internal/sim"
)

// sockPair builds two connected hosts sharing one driver, with socket
// layers on both (no resolvers: these tests dial literals).
func sockPair(t *testing.T) (sa, sb *Sockets, a, b *host) {
	t.Helper()
	a, b, cl := pair(t, sal.LanceModel)
	d := NewDriver(cl)
	return NewSockets(d, a.stack, nil), NewSockets(d, b.stack, nil), a, b
}

// The core blocking-adapter contract: a listener accepts, both directions
// carry data, close delivers EOF, and the connections drain from both
// stacks' tables.
func TestSockConnEchoAndEOF(t *testing.T) {
	sa, sb, a, b := sockPair(t)
	ln, err := sb.Listen(7)
	if err != nil {
		t.Fatal(err)
	}
	if got := ln.Addr().String(); got != "10.0.0.2:7" {
		t.Errorf("listener addr = %q", got)
	}

	srvDone := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			srvDone <- err
			return
		}
		// Echo until EOF, then close.
		buf := make([]byte, 64)
		for {
			n, err := c.Read(buf)
			if n > 0 {
				if _, werr := c.Write(buf[:n]); werr != nil {
					srvDone <- werr
					return
				}
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				srvDone <- err
				return
			}
		}
		srvDone <- c.Close()
	}()

	c, err := sa.Dialer().Dial("tcp", "10.0.0.2:7")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.RemoteAddr().String(); got != "10.0.0.2:7" {
		t.Errorf("RemoteAddr = %q", got)
	}
	if got := c.LocalAddr().(SockAddr); got.IP != a.stack.IP {
		t.Errorf("LocalAddr = %v", got)
	}
	for _, msg := range []string{"hello", "extensible", "kernels"} {
		if _, err := c.Write([]byte(msg)); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, len(msg))
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Fatal(err)
		}
		if string(buf) != msg {
			t.Fatalf("echo = %q, want %q", buf, msg)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-srvDone; err != nil {
		t.Fatalf("server: %v", err)
	}
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	// Let the FIN exchange and TIME_WAIT run out: both tables empty.
	sa.Driver().Drain()
	if got := a.stack.TCP().Conns() + b.stack.TCP().Conns(); got != 0 {
		t.Errorf("connections left after close: %d", got)
	}
	// Operations on the closed conn fail with net.ErrClosed.
	if _, err := c.Write([]byte("x")); !errors.Is(err, net.ErrClosed) {
		t.Errorf("write after close: %v", err)
	}
	if _, err := c.Read(make([]byte, 1)); !errors.Is(err, net.ErrClosed) {
		t.Errorf("read after close: %v", err)
	}
}

// A virtual-time read deadline unblocks a reader with
// os.ErrDeadlineExceeded (which satisfies net.Error.Timeout), and clearing
// it restores blocking reads.
func TestSockReadDeadline(t *testing.T) {
	sa, sb, _, _ := sockPair(t)
	ln, err := sb.Listen(7)
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		accepted <- c
	}()
	c, err := sa.Dialer().Dial("tcp", "10.0.0.2:7")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetReadDeadline(time.Now().Add(10 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	_, rerr := c.Read(make([]byte, 1))
	if !errors.Is(rerr, os.ErrDeadlineExceeded) {
		t.Fatalf("read error = %v, want os.ErrDeadlineExceeded", rerr)
	}
	var nerr net.Error
	if !errors.As(rerr, &nerr) || !nerr.Timeout() {
		t.Errorf("deadline error is not a net.Error timeout: %v", rerr)
	}
	// Cleared deadline: the next read blocks until the peer writes.
	if err := c.SetReadDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	srv := <-accepted
	go func() {
		if _, err := srv.Write([]byte("late")); err != nil {
			t.Error(err)
		}
	}()
	buf := make([]byte, 4)
	if _, err := io.ReadFull(c, buf); err != nil || string(buf) != "late" {
		t.Fatalf("read after clear = %q, %v", buf, err)
	}
}

// Dialing a port nobody listens on fails fast on the RST, not by timeout.
func TestSockDialRefused(t *testing.T) {
	sa, _, a, _ := sockPair(t)
	start := a.eng.Now()
	_, err := sa.Dialer().Dial("tcp", "10.0.0.2:81")
	if err == nil {
		t.Fatal("dial to closed port succeeded")
	}
	if elapsed := a.eng.Now().Sub(start); elapsed > 100*sim.Millisecond {
		t.Errorf("refused dial took %v — RST should beat the retransmit timer", elapsed)
	}
	if got := a.stack.TCP().Conns(); got != 0 {
		t.Errorf("refused dial left %d connections", got)
	}
}

// A dial with no resolver and no literal address fails immediately.
func TestSockDialNoResolver(t *testing.T) {
	sa, _, _, _ := sockPair(t)
	_, err := sa.Dialer().Dial("tcp", "web.spin.test:80")
	if !errors.Is(err, ErrNameNotFound) {
		t.Fatalf("err = %v, want ErrNameNotFound", err)
	}
	if _, err := sa.Dialer().Dial("unix", "/tmp/x"); err == nil {
		t.Fatal("unsupported network accepted")
	}
}

// The foreground bugfix, end to end at the socket layer: a dial whose SYNs
// all vanish returns ErrTimedOut after the capped, exponentially backed-
// off retransmissions — in bounded virtual time — and leaves no
// connection behind.
func TestSockDialTimedOut(t *testing.T) {
	sa, _, a, _ := sockPair(t)
	start := a.eng.Now()
	// 10.0.0.9 routes to the peer NIC, but the peer stack drops the
	// foreign-addressed frames: every SYN disappears.
	_, err := sa.Dialer().Dial("tcp", "10.0.0.9:80")
	if !errors.Is(err, ErrTimedOut) {
		t.Fatalf("err = %v, want ErrTimedOut", err)
	}
	elapsed := a.eng.Now().Sub(start)
	// Backoff doubles from the 200ms base; the conn sends DefaultMaxRetx
	// retransmissions and gives up when the last timer fires, 19.0s
	// virtual.
	if elapsed < 19000*sim.Millisecond || elapsed > 19100*sim.Millisecond {
		t.Errorf("timed-out dial took %v, want ~19s", elapsed)
	}
	if got := a.stack.TCP().Conns(); got != 0 {
		t.Errorf("timed-out dial left %d connections", got)
	}
	if st := tcpStatsOf(a.stack.TCP()); st.TimedOut != 1 {
		t.Errorf("TimedOut stat = %d, want 1", st.TimedOut)
	}
}

// Closing a listener unblocks Accept with net.ErrClosed.
func TestSockListenerClose(t *testing.T) {
	_, sb, _, _ := sockPair(t)
	ln, err := sb.Listen(7)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		_, err := ln.Accept()
		got <- err
	}()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-got; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Accept after close = %v, want net.ErrClosed", err)
	}
	// The port is free again.
	if _, err := sb.Listen(7); err != nil {
		t.Fatalf("relisten: %v", err)
	}
}

// Wall-clock deadline conventions (the net.Conn contract) map onto virtual
// time: a past deadline expires reads and writes immediately, a future one
// expires after its distance in virtual time, and the zero time clears both
// directions.
func TestSockWallDeadlines(t *testing.T) {
	sa, sb, _, _ := sockPair(t)
	ln, err := sb.Listen(7)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if _, err := ln.Accept(); err != nil {
			t.Error(err)
		}
	}()
	c, err := sa.Dialer().Dial("tcp", "10.0.0.2:7")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.LocalAddr().Network(); got != "tcp" {
		t.Errorf("Network() = %q", got)
	}
	if c.(*SockConn).Conn().State() != StateEstablished {
		t.Error("underlying conn not established")
	}
	if err := c.SetDeadline(time.Now().Add(-time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("read past deadline = %v", err)
	}
	if _, err := c.Write([]byte("x")); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("write past deadline = %v", err)
	}
	if err := c.SetDeadline(time.Time{}); err != nil { // zero clears
		t.Fatal(err)
	}
	if _, err := c.Write([]byte("x")); err != nil {
		t.Errorf("write after clear = %v", err)
	}
	// A future wall deadline becomes a virtual-time distance; the blocked
	// read steps the simulation up to it and expires.
	if err := c.SetReadDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("read past future deadline = %v", err)
	}
}

// A write larger than the send buffer blocks while ACKs free room and
// returns once all of it is queued, and the peer reads back every byte.
func TestSockWriteLargerThanSendBuffer(t *testing.T) {
	sa, sb, _, _ := sockPair(t)
	ln, err := sb.Listen(7)
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 1<<20)
	for i := range msg {
		msg[i] = byte(i*7 + i>>11)
	}
	got := make(chan []byte, 1)
	go func() {
		buf := make([]byte, len(msg))
		c, err := ln.Accept()
		if err == nil {
			_, err = io.ReadFull(c, buf)
		}
		if err != nil {
			t.Error(err)
		}
		got <- buf
	}()
	c, err := sa.Dialer().Dial("tcp", "10.0.0.2:7")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := c.Write(msg); n != len(msg) || err != nil {
		t.Fatalf("Write = %d, %v; want %d, nil", n, err, len(msg))
	}
	if b := <-got; !bytes.Equal(b, msg) {
		t.Error("the peer read back different bytes")
	}
}

// A write deadline that passes while Write waits for room ends it with
// os.ErrDeadlineExceeded, and the count it returns is what it queued.
func TestSockWriteDeadlineWhileBlocked(t *testing.T) {
	sa, sb, _, b := sockPair(t)
	ln, err := sb.Listen(7)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if _, err := ln.Accept(); err != nil {
			t.Error(err)
		}
	}()
	c, err := sa.Dialer().Dial("tcp", "10.0.0.2:7")
	if err != nil {
		t.Fatal(err)
	}
	// The peer's ACKs vanish, so nothing queued is ever acknowledged.
	sa.Driver().Run(func() { b.nic.InjectLoss(1, 1) })
	if err := c.SetWriteDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	n, err := c.Write(make([]byte, 1<<20))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("blocked write past its deadline = %v, want os.ErrDeadlineExceeded", err)
	}
	var buffered int
	sa.Driver().Run(func() { buffered = c.(*SockConn).Conn().Buffered() })
	if n != buffered || n != SendBufSize {
		t.Errorf("Write returned %d, the send buffer holds %d; want both %d", n, buffered, SendBufSize)
	}
}

// A dial by hostname goes Resolve -> Connect: the resolver supplies the
// address and the returned conn is to the resolved endpoint.
func TestSockDialByName(t *testing.T) {
	a, b, cl := pair(t, sal.LanceModel)
	d := NewDriver(cl)
	res := NewResolver(a.stack, ResolverConfig{
		Servers:   []IPAddr{Addr(10, 0, 0, 2)},
		Transport: &fakeTransport{answers: []IPAddr{Addr(10, 0, 0, 2)}},
	})
	sa := NewSockets(d, a.stack, res)
	sb := NewSockets(d, b.stack, nil)
	ln, err := sb.Listen(7)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if _, err := ln.Accept(); err != nil {
			t.Error(err)
		}
	}()
	c, err := sa.Dialer().Dial("tcp", "web.spin.test:7")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.RemoteAddr().String(); got != "10.0.0.2:7" {
		t.Errorf("RemoteAddr = %q", got)
	}
	if st := res.stats; st.Lookups != 1 || st.Sent != 1 {
		t.Errorf("resolver stats = %+v", st)
	}
}

// The Dialer's own virtual-time Timeout caps a dial even when the TCP
// retransmission budget would keep trying, and a canceled context aborts
// immediately; malformed addresses fail before any traffic.
func TestSockDialDeadlineAndContext(t *testing.T) {
	sa, _, a, _ := sockPair(t)
	dl := sa.Dialer()
	dl.Timeout = 300 * sim.Millisecond
	start := a.eng.Now()
	_, err := dl.Dial("tcp", "10.0.0.9:80")
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want os.ErrDeadlineExceeded", err)
	}
	if elapsed := a.eng.Now().Sub(start); elapsed < 300*sim.Millisecond || elapsed > 310*sim.Millisecond {
		t.Errorf("deadline-capped dial took %v, want ~300ms", elapsed)
	}
	if got := a.stack.TCP().Conns(); got != 0 {
		t.Errorf("capped dial left %d connections", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sa.Dialer().DialContext(ctx, "tcp", "10.0.0.9:80"); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled dial = %v", err)
	}
	if _, err := sa.Dialer().Dial("tcp", "noport"); err == nil {
		t.Error("address without port accepted")
	}
	if _, err := sa.Dialer().Dial("tcp", "10.0.0.2:99999"); err == nil {
		t.Error("out-of-range port accepted")
	}
}
