package netstack

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"spin/internal/sal"
)

// The net.Conn and net.Listener contract of the socket adapters, as one
// table in the shape of golang.org/x/net/nettest's TestConn (conntest.go):
// every row gets a fresh connected pair and checks one clause. The package
// is cited, not imported; this module builds from the standard library
// alone. Where nettest makes a write block by not reading (a pipe's writes
// are synchronous), these rows drop the peer's ACKs: the adapter buffers
// whatever arrives, so an idle reader still acknowledges.

// aLongTimeAgo is a deadline in the past, as nettest spells it.
var aLongTimeAgo = time.Unix(233431200, 0)

// sockRig is a connected pair: c1 dialled from a, c2 accepted on b, both
// driven by d through gate.
type sockRig struct {
	c1, c2 net.Conn
	d      *Driver
	a, b   *host
	gate   *gate
}

// sockConns builds a sockRig; both connections are closed when the test
// ends.
func sockConns(t *testing.T) *sockRig {
	t.Helper()
	a, b, cl := pair(t, sal.LanceModel)
	rig := &sockRig{a: a, b: b, gate: &gate{src: cl}}
	rig.d = NewDriver(rig.gate)
	sa, sb := NewSockets(rig.d, a.stack, nil), NewSockets(rig.d, b.stack, nil)
	ln, err := sb.Listen(7)
	if err != nil {
		t.Fatal(err)
	}
	type accepted struct {
		c   net.Conn
		err error
	}
	acc := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		acc <- accepted{c, err}
	}()
	c1, err := sa.Dialer().Dial("tcp", "10.0.0.2:7")
	if err != nil {
		t.Fatal(err)
	}
	r := <-acc
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() {
		c1.Close()
		r.c.Close()
	})
	rig.c1, rig.c2 = c1, r.c
	return rig
}

// isTimeout reports whether err is the net.Error a deadline must produce.
func isTimeout(err error) bool {
	var nerr net.Error
	return errors.As(err, &nerr) && nerr.Timeout() && errors.Is(err, os.ErrDeadlineExceeded)
}

// chunkedCopy copies src to dst in chunks of up to 1 KiB, as nettest does.
func chunkedCopy(dst io.Writer, src io.Reader) error {
	r := rand.New(rand.NewSource(1))
	_, err := io.CopyBuffer(struct{ io.Writer }{dst}, struct{ io.Reader }{io.LimitReader(src, 1<<62)}, make([]byte, 1+r.Intn(1024)))
	return err
}

func TestSockConformance(t *testing.T) {
	for _, row := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"BasicIO", confBasicIO},
		{"PingPong", confPingPong},
		{"RacyReadWriteClose", confRacy},
		{"ConcurrentMethods", confConcurrentMethods},
		{"PastDeadline", confPastDeadline},
		{"PresentDeadline", confPresentDeadline},
		{"FutureDeadline", confFutureDeadline},
		{"CloseUnblocksRead", confCloseUnblocksRead},
		{"CloseUnblocksWrite", confCloseUnblocksWrite},
		{"WriteLargerThanSendBuffer", confWriteLargerThanSendBuffer},
		{"AcceptAfterClose", confAcceptAfterClose},
		{"CloseUnblocksAccept", confCloseUnblocksAccept},
	} {
		t.Run(row.name, row.run)
	}
}

// 1 MiB crosses in odd-sized writes and reads, and Close ends it with EOF.
func confBasicIO(t *testing.T) {
	rig := sockConns(t)
	c1, c2 := rig.c1, rig.c2
	want := make([]byte, 1<<20)
	rand.New(rand.NewSource(0)).Read(want)
	go func() {
		if err := chunkedCopy(c1, bytes.NewReader(want)); err != nil {
			t.Errorf("c1 write: %v", err)
		}
		if err := c1.Close(); err != nil {
			t.Errorf("c1 close: %v", err)
		}
	}()
	var got bytes.Buffer
	if err := chunkedCopy(&got, c2); err != nil {
		t.Fatalf("c2 read: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("read %d bytes that differ from the %d written", got.Len(), len(want))
	}
}

// Two goroutines bounce a counter: each write answers the other's.
func confPingPong(t *testing.T) {
	rig := sockConns(t)
	c1, c2 := rig.c1, rig.c2
	const rounds = 200
	pingPonger := func(c net.Conn, serve bool) error {
		buf := make([]byte, 8)
		var prev uint64
		if !serve {
			binary.LittleEndian.PutUint64(buf, 1)
			if _, err := c.Write(buf); err != nil {
				return err
			}
		}
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				if err == io.EOF && serve {
					return nil
				}
				return err
			}
			v := binary.LittleEndian.Uint64(buf)
			if prev != 0 && v != prev+2 {
				return errors.New("counter out of order")
			}
			prev = v
			if v >= rounds {
				return c.Close()
			}
			binary.LittleEndian.PutUint64(buf, v+1)
			if _, err := c.Write(buf); err != nil {
				return err
			}
		}
	}
	done := make(chan error, 1)
	go func() { done <- pingPonger(c2, true) }()
	if err := pingPonger(c1, false); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// Readers and writers with deadlines of their own race each other and a
// Close: every call returns data, a timeout or net.ErrClosed, and the race
// detector sees no unsynchronised access.
func confRacy(t *testing.T) {
	rig := sockConns(t)
	c1, c2 := rig.c1, rig.c2
	go chunkedCopy(io.Discard, c2)
	go func() {
		for i := 0; i < 50; i++ {
			if _, err := c2.Write(make([]byte, 512)); err != nil {
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(2)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			buf := make([]byte, 1024)
			for i := 0; i < 20; i++ {
				c1.SetReadDeadline(time.Now().Add(time.Duration(r.Intn(5)) * time.Millisecond))
				if _, err := c1.Read(buf); err != nil && !isTimeout(err) && !errors.Is(err, net.ErrClosed) {
					t.Errorf("racy read: %v", err)
					return
				}
			}
		}(int64(g))
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			buf := make([]byte, 1024)
			for i := 0; i < 20; i++ {
				c1.SetWriteDeadline(time.Now().Add(time.Duration(r.Intn(5)) * time.Millisecond))
				if _, err := c1.Write(buf); err != nil && !isTimeout(err) && !errors.Is(err, net.ErrClosed) {
					t.Errorf("racy write: %v", err)
					return
				}
			}
		}(int64(g))
	}
	time.Sleep(2 * time.Millisecond)
	if err := c1.Close(); err != nil {
		t.Errorf("close while racing: %v", err)
	}
	wg.Wait()
}

// Every method at once, a hundred times over.
func confConcurrentMethods(t *testing.T) {
	rig := sockConns(t)
	c1, c2 := rig.c1, rig.c2
	go chunkedCopy(io.Discard, c2)
	go func() {
		for i := 0; i < 100; i++ {
			if _, err := c2.Write(make([]byte, 512)); err != nil {
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(7)
		go func() { defer wg.Done(); c1.Read(make([]byte, 1024)) }()
		go func() { defer wg.Done(); c1.Write(make([]byte, 1024)) }()
		go func() { defer wg.Done(); c1.SetDeadline(time.Now().Add(10 * time.Millisecond)) }()
		go func() { defer wg.Done(); c1.SetReadDeadline(aLongTimeAgo) }()
		go func() { defer wg.Done(); c1.SetWriteDeadline(aLongTimeAgo) }()
		go func() { defer wg.Done(); c1.LocalAddr() }()
		go func() { defer wg.Done(); c1.RemoteAddr() }()
	}
	wg.Wait()
}

// A deadline already past fails Read and Write at once, moves nothing,
// and a later deadline in the future lets both work again.
func confPastDeadline(t *testing.T) {
	rig := sockConns(t)
	c1, c2 := rig.c1, rig.c2
	if _, err := c2.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	c1.SetDeadline(aLongTimeAgo)
	if n, err := c1.Read(make([]byte, 1)); n != 0 || !isTimeout(err) {
		t.Errorf("read past its deadline = %d, %v", n, err)
	}
	if n, err := c1.Write([]byte("x")); n != 0 || !isTimeout(err) {
		t.Errorf("write past its deadline = %d, %v", n, err)
	}
	c1.SetDeadline(time.Now().Add(time.Hour))
	if _, err := io.ReadFull(c1, make([]byte, 1)); err != nil {
		t.Errorf("read once the deadline moved = %v", err)
	}
	if _, err := c1.Write([]byte("y")); err != nil {
		t.Errorf("write once the deadline moved = %v", err)
	}
}

// A deadline of now, set while a Read is blocked, unblocks it with a
// timeout; a deadline of now set before a call fails the call.
func confPresentDeadline(t *testing.T) {
	rig := sockConns(t)
	c1 := rig.c1
	rig.gate.hold.Store(true)
	set := make(chan bool, 1)
	go func() {
		time.Sleep(20 * time.Millisecond)
		set <- true
		c1.SetReadDeadline(time.Now())
	}()
	n, err := c1.Read(make([]byte, 1024))
	if n != 0 || !isTimeout(err) {
		t.Errorf("blocked read after a deadline of now = %d, %v", n, err)
	}
	if len(set) == 0 {
		t.Error("the read timed out before its deadline was set")
	}
	c1.SetWriteDeadline(time.Now())
	if _, err := c1.Write([]byte("x")); !isTimeout(err) {
		t.Errorf("write after a deadline of now = %v", err)
	}
}

// A deadline in the future ends a blocked Read and a blocked Write when
// that much virtual time has passed.
func confFutureDeadline(t *testing.T) {
	rig := sockConns(t)
	c1 := rig.c1
	const after = 50 * time.Millisecond
	start := rig.a.eng.Now()
	c1.SetDeadline(time.Now().Add(after))
	if _, err := c1.Read(make([]byte, 1)); !isTimeout(err) {
		t.Errorf("read past a future deadline = %v", err)
	}
	if el := rig.a.eng.Now().Sub(start); el < 40*1e6 || el > 60*1e6 {
		t.Errorf("read deadline of %v expired after %v of virtual time", after, el)
	}
	// With the peer's ACKs lost, a write past the send buffer blocks until
	// its deadline, well before the retransmission cap.
	rig.d.Run(func() { dropRX(rig.a, 1, 1) })
	c1.SetDeadline(time.Now().Add(after))
	if n, err := c1.Write(make([]byte, 2*SendBufSize)); n != SendBufSize || !isTimeout(err) {
		t.Errorf("blocked write past a future deadline = %d, %v", n, err)
	}
}

// Close from another goroutine unblocks a pending Read with net.ErrClosed,
// and the peer reads EOF.
func confCloseUnblocksRead(t *testing.T) {
	rig := sockConns(t)
	c1, c2 := rig.c1, rig.c2
	rig.gate.hold.Store(true)
	go func() {
		time.Sleep(20 * time.Millisecond)
		c1.Close()
	}()
	if _, err := c1.Read(make([]byte, 1)); !errors.Is(err, net.ErrClosed) {
		t.Errorf("read pending at Close = %v", err)
	}
	rig.gate.hold.Store(false)
	if _, err := c2.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("peer read after Close = %v", err)
	}
	if err := c1.Close(); !errors.Is(err, net.ErrClosed) {
		t.Errorf("second Close = %v", err)
	}
}

// Close from another goroutine unblocks a Write waiting for send-buffer
// room; it reports what it queued.
func confCloseUnblocksWrite(t *testing.T) {
	rig := sockConns(t)
	c1 := rig.c1
	rig.gate.hold.Store(true) // no ACK arrives: the first SendBufSize bytes fill the buffer
	go func() {
		time.Sleep(20 * time.Millisecond)
		c1.Close()
	}()
	if n, err := c1.Write(make([]byte, 2*SendBufSize)); n != SendBufSize || !errors.Is(err, net.ErrClosed) {
		t.Errorf("write pending at Close = %d, %v", n, err)
	}
}

// A Write past the send buffer blocks while the peer is slow to read and
// returns whole once the peer has taken enough.
func confWriteLargerThanSendBuffer(t *testing.T) {
	rig := sockConns(t)
	c1, c2 := rig.c1, rig.c2
	want := make([]byte, 3*SendBufSize+17)
	rand.New(rand.NewSource(2)).Read(want)
	got := make(chan []byte, 1)
	go func() {
		time.Sleep(10 * time.Millisecond)
		b := make([]byte, len(want))
		if _, err := io.ReadFull(c2, b); err != nil {
			t.Error(err)
		}
		got <- b
	}()
	if n, err := c1.Write(want); n != len(want) || err != nil {
		t.Errorf("Write = %d, %v; want %d, nil", n, err, len(want))
	}
	if !bytes.Equal(<-got, want) {
		t.Error("the peer read different bytes")
	}
}

// Accept on a closed listener fails with net.ErrClosed, and so does a
// second Close.
func confAcceptAfterClose(t *testing.T) {
	_, sb, _, _ := sockPair(t)
	ln, err := sb.Listen(7)
	if err != nil {
		t.Fatal(err)
	}
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Accept after Close = %v", err)
	}
	if err := ln.Close(); !errors.Is(err, net.ErrClosed) {
		t.Errorf("second Close = %v", err)
	}
}

// Close from another goroutine unblocks a pending Accept, and a dial to the
// closed port is refused.
func confCloseUnblocksAccept(t *testing.T) {
	sa, sb, _, _ := sockPair(t)
	ln, err := sb.Listen(7)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		ln.Close()
	}()
	if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Accept pending at Close = %v", err)
	}
	if _, err := sa.Dialer().Dial("tcp", "10.0.0.2:7"); err == nil {
		t.Error("dial to a closed listener succeeded")
	}
}
