package netstack

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spin/internal/sal"
	"spin/internal/sim"
)

// gate is a Stepper over src that counts the steps it takes and, while
// hold is set, reports itself dry: a blocked call then stays blocked until
// another goroutine's call releases it.
type gate struct {
	src   Stepper
	hold  atomic.Bool
	steps atomic.Int64
}

func (g *gate) Step() bool {
	if g.hold.Load() || !g.src.Step() {
		return false
	}
	g.steps.Add(1)
	return true
}

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
	sa, sb, a, _ := sockPair(t)
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
	sa.Driver().Run(func() { dropRX(a, 1, 1) })
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

// Waiters resume in the virtual-time order of their conditions, and two
// whose conditions come true at the same step resume in arrival order.
func TestDriverLoopWaitersResumeInOrder(t *testing.T) {
	eng := sim.NewEngine()
	g := &gate{src: eng}
	g.hold.Store(true) // nothing steps until all four wait
	d := NewDriver(g)
	set := map[string]bool{}
	d.Run(func() {
		eng.After(2*sim.Millisecond, func() { set["late"] = true })
		eng.After(1*sim.Millisecond, func() { set["early"] = true })
		eng.After(3*sim.Millisecond, func() { set["tie"] = true })
	})
	var (
		wg      sync.WaitGroup
		waiting int
		order   []string
	)
	for i, w := range []struct{ name, flag string }{
		{"late", "late"}, {"tie1", "tie"}, {"early", "early"}, {"tie2", "tie"},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			first := true
			d.WaitUntil(func() bool {
				if first {
					first = false
					waiting++
				}
				if !set[w.flag] {
					return false
				}
				order = append(order, w.name)
				return true
			})
		}()
		for n := 0; n <= i; {
			runtime.Gosched()
			d.Run(func() { n = waiting })
		}
	}
	g.hold.Store(false)
	d.Run(func() {}) // the loop found the source dry; wake it
	wg.Wait()
	if got := fmt.Sprint(order); got != "[early late tie1 tie2]" {
		t.Errorf("waiters resumed as %s, want [early late tie1 tie2]", got)
	}
}

// A Run issued while a waiter steps a source that never drains (a
// perpetual timer) lands before the next step: the waiter sees its effect
// at the step count it ran at.
func TestDriverLoopRunLandsBeforeNextStep(t *testing.T) {
	eng := sim.NewEngine()
	g := &gate{src: eng}
	d := NewDriver(g)
	var tick func()
	tick = func() { eng.After(sim.Millisecond, tick) }
	d.Run(tick)
	var (
		flag         bool
		ranAt, sawAt int64
	)
	done := make(chan struct{})
	go func() {
		d.WaitUntil(func() bool {
			if flag && sawAt == 0 {
				sawAt = g.steps.Load()
			}
			return flag
		})
		close(done)
	}()
	for g.steps.Load() < 1000 {
		runtime.Gosched()
	}
	d.Run(func() { flag, ranAt = true, g.steps.Load() })
	<-done
	if sawAt != ranAt {
		t.Errorf("the Run landed at step %d, the waiter saw it at step %d", ranAt, sawAt)
	}
}

// Drain steps until the source is dry, events scheduled by events included.
func TestDriverLoopDrainEmptiesSource(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDriver(eng)
	fired := 0
	d.Run(func() {
		for i := 1; i <= 5; i++ {
			eng.After(sim.Duration(i)*sim.Millisecond, func() {
				fired++
				eng.After(sim.Second, func() { fired++ })
			})
		}
	})
	d.Drain()
	if dry := !eng.Step(); fired != 10 || !dry {
		t.Errorf("after Drain: %d of 10 events fired, source dry = %v", fired, dry)
	}
}

// A panic in a Run fn or a predicate reaches the calling goroutine, and
// the Driver goes on serving calls.
func TestDriverLoopPanicReachesCaller(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDriver(eng)
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"Run", func() { d.Run(func() { panic("run") }) }},
		{"WaitUntil", func() { d.WaitUntil(func() bool { panic("pred") }) }},
	} {
		func() {
			defer func() {
				if p := recover(); p == nil {
					t.Errorf("%s: the panic did not reach the caller", tc.name)
				}
			}()
			tc.call()
		}()
	}
	fired := false
	d.Run(func() { eng.After(sim.Millisecond, func() { fired = true }) })
	d.WaitUntil(func() bool { return fired })
}

// A Driver nothing refers to lets its loop goroutine end: 200 of them,
// each used once, leave the goroutine count near where it was. A
// connection kept past its Driver still works; its calls start the loop
// again.
func TestDriverLoopEndsWithDriver(t *testing.T) {
	settle := func(want func() bool) bool {
		for end := time.Now().Add(10 * time.Second); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
			runtime.GC()
			if want() {
				return true
			}
		}
		return false
	}
	base := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		NewDriver(sim.NewEngine()).Run(func() {})
	}
	if !settle(func() bool { return runtime.NumGoroutine() <= base+5 }) {
		t.Errorf("%d goroutines after 200 dropped Drivers, %d before", runtime.NumGoroutine(), base)
	}

	rig := sockConns(t)
	c1, c2 := rig.c1.(*SockConn), rig.c2
	rig.d = nil
	exited := *c1.loop.exited.Load()
	if !settle(func() bool {
		select {
		case <-exited:
			return true
		default:
			return false
		}
	}) {
		t.Fatal("the loop outlived its Driver")
	}
	if _, err := c2.Write([]byte("after")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(c1, buf); err != nil || string(buf) != "after" {
		t.Fatalf("read past the Driver = %q, %v", buf, err)
	}
}

// A large buffered body read in small chunks arrives intact; each Read
// advances a head offset rather than moving what is left, and a drained
// buffer keeps its array for what arrives next.
func TestSockReadSmallChunks(t *testing.T) {
	rig := sockConns(t)
	c1 := rig.c1.(*SockConn)
	want := make([]byte, 1<<20)
	rand.New(rand.NewSource(3)).Read(want)
	if _, err := rig.c2.Write(want); err != nil {
		t.Fatal(err)
	}
	rig.d.Drain()
	got := make([]byte, 0, len(want))
	buf := make([]byte, 1024)
	for len(got) < len(want) {
		n, err := c1.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, buf[:n]...)
		if len(got) == 1024 {
			var head int
			rig.d.Run(func() { head = c1.head })
			if head != 1024 {
				t.Errorf("after one 1 KiB read the head is at %d, want 1024", head)
			}
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the body read in 1 KiB chunks differs from the one written")
	}
	var array *byte
	rig.d.Run(func() { array = &c1.rx[:1][0] })
	if _, err := rig.c2.Write([]byte("next")); err != nil {
		t.Fatal(err)
	}
	rig.d.Drain()
	rig.d.Run(func() {
		if &c1.rx[:1][0] != array || c1.head != 0 || string(c1.rx) != "next" {
			t.Errorf("a drained buffer did not keep its array (head %d, %q)", c1.head, c1.rx)
		}
	})
}

// parseIPv4 reads dotted quads, and a dial by name or by literal, once a
// request in http_star_sockets, parses without allocating.
func TestParseIPv4AllocFree(t *testing.T) {
	for _, tc := range []struct {
		in        string
		ip        IPAddr
		ok, alloc bool // alloc: a malformed literal may allocate netip's error
	}{
		{"10.0.0.2", Addr(10, 0, 0, 2), true, false},
		{"web.spin.test", 0, false, false},
		{"255.255.255.255", Addr(255, 255, 255, 255), true, false},
		{"010.0.0.1", 0, false, true}, // leading zeros read as octal elsewhere: refused
		{"10.0.0", 0, false, true},
		{"10.0.0.2.", 0, false, true},
		{"256.0.0.1", 0, false, true},
		{"::ffff:10.0.0.2", 0, false, false},
		{"", 0, false, false},
	} {
		if ip, ok := parseIPv4(tc.in); ip != tc.ip || ok != tc.ok {
			t.Errorf("parseIPv4(%q) = %v, %v; want %v, %v", tc.in, ip, ok, tc.ip, tc.ok)
		}
		if allocs := testing.AllocsPerRun(100, func() { parseIPv4(tc.in) }); allocs != 0 && !tc.alloc {
			t.Errorf("parseIPv4(%q) allocates %v, want 0", tc.in, allocs)
		}
	}
}
