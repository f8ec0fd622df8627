package netstack

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spin/internal/sim"
)

// Stdlib-compatible sockets: net.Conn / net.Listener / net.Addr adapters
// over the simulated TCP endpoints, plus a Dialer that resolves names and
// waits out the handshake. The point is that *unmodified* Go application
// code — including net/http with a custom DialContext — runs against the
// simulated stack.
//
// The hard part is marrying two worlds: the simulation is a single-
// threaded discrete-event engine (callbacks, virtual time), while stdlib
// networking code blocks real goroutines. The Driver bridges them: every
// blocking operation takes the driver lock and *becomes the simulation's
// clock*, stepping the engine until its predicate holds, then parking on a
// condition variable when the event queue runs dry. Virtual time therefore
// advances exactly as far as the blocked callers need it to — no wall-
// clock polling, no background ticker — and a run remains deterministic
// because the engine still executes events in virtual-time order under one
// lock, regardless of which goroutine happens to be stepping.

// Stepper is any event source the Driver can advance: a single machine's
// sim.Engine or a whole topology's sim.Cluster. Step executes the next
// pending event and reports whether there was one.
type Stepper interface {
	Step() bool
}

// Driver serializes a simulation shared by blocking goroutines. All engine
// access — stepping, scheduling, reading adapter state — happens under its
// lock; engine callbacks (OnData, timers) thus run with the lock held and
// may touch adapter buffers directly.
//
// Once a Driver wraps an engine or cluster, advance the simulation only
// through it (blocking socket calls, Run, Drain) — mixing in direct
// Engine.Run calls would race the stepping goroutines.
type Driver struct {
	mu   sync.Mutex
	cond *sync.Cond
	src  Stepper
	// pending counts goroutines blocked entering Run. A stepping WaitUntil
	// yields to them instead of executing more events: an injector is
	// conceptually an event at the current virtual time, so racing the
	// clock ahead of it would starve it forever once perpetual timers
	// (periodic health probes, keepalives) keep the event queue non-empty.
	pending atomic.Int64
}

// NewDriver wraps an event source.
func NewDriver(src Stepper) *Driver {
	d := &Driver{src: src}
	d.cond = sync.NewCond(&d.mu)
	return d
}

// Run injects fn into the simulation: it runs under the driver lock and
// wakes every blocked operation to re-check what changed.
func (d *Driver) Run(fn func()) {
	d.pending.Add(1)
	d.mu.Lock()
	d.pending.Add(-1)
	fn()
	d.cond.Broadcast()
	d.mu.Unlock()
}

// WaitUntil blocks the calling goroutine until pred holds, stepping the
// simulation as needed. pred runs under the driver lock and may have side
// effects (consuming buffered data); it is re-evaluated after every step
// and every Run injection. If the event queue drains with pred still
// false — or another goroutine is waiting to inject — the caller parks
// until the injection lands: exactly a blocking socket's semantics.
//
// Fairness vs. determinism: yielding to pending injectors keeps concurrent
// blocking goroutines (net/http's split read/write loops) live even when
// periodic timers never let the queue drain. The byte-identical-replay
// contract is narrower: it holds when blocking calls are issued from one
// goroutine at a time, so every step interleaving is fixed by virtual time
// alone.
func (d *Driver) WaitUntil(pred func() bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if pred() {
			return
		}
		if d.pending.Load() > 0 {
			d.cond.Wait()
			continue
		}
		if d.src.Step() {
			d.cond.Broadcast()
			continue
		}
		d.cond.Wait()
	}
}

// Drain steps the simulation until the event queue is empty, without
// parking — the harness call for "let everything in flight settle".
func (d *Driver) Drain() {
	d.mu.Lock()
	for d.src.Step() {
		d.cond.Broadcast()
	}
	d.cond.Broadcast()
	d.mu.Unlock()
}

// SockAddr is the net.Addr for simulated TCP endpoints.
type SockAddr struct {
	IP   IPAddr
	Port uint16
}

// Network returns "tcp": to application code the simulated stack is just a
// TCP network.
func (a SockAddr) Network() string { return "tcp" }

func (a SockAddr) String() string { return fmt.Sprintf("%s:%d", a.IP, a.Port) }

// sockDeadline is one direction's deadline: a virtual-time event that
// marks the direction expired when it fires.
type sockDeadline struct {
	ev      sim.Event // owner-held, bound on first use
	expired bool
}

func (dl *sockDeadline) expire() { dl.expired = true }

// set arms the deadline d from now; zero clears it. Caller holds the
// driver lock.
func (dl *sockDeadline) set(engine *sim.Engine, d sim.Duration, armed bool) {
	dl.ev.Disarm()
	dl.expired = false
	if !armed {
		return
	}
	if d <= 0 {
		dl.expired = true
		return
	}
	if dl.ev.Do == nil {
		dl.ev.Do = dl.expire
	}
	engine.Arm(&dl.ev, d)
}

// SockConn adapts one *Conn to net.Conn. Reads block (stepping the
// simulation) until data, EOF, an error, or a deadline; writes queue into
// the TCP send buffer and block, the same way, while it is full. Obtain one
// from Sockets.Dial / Dialer.DialContext or a Sockets listener.
type SockConn struct {
	d      *Driver
	c      *Conn
	stack  *Stack
	rx     []byte
	dead   bool // OnClose fired: peer FIN, teardown, or local close done
	closed bool // local Close called
	rd, wr sockDeadline
}

// newSockConn wires the adapter's callbacks; call with the driver lock
// held (inside Run or an engine callback) and before any payload can
// arrive.
func newSockConn(d *Driver, stack *Stack, c *Conn) *SockConn {
	s := &SockConn{d: d, c: c, stack: stack}
	c.OnData = func(_ *Conn, payload []byte) {
		// The packet owning payload is pooled; copy before it is reused.
		s.rx = append(s.rx, payload...)
	}
	c.OnClose = func(*Conn) { s.dead = true }
	return s
}

// Conn exposes the underlying TCP endpoint (tests assert on its state).
func (s *SockConn) Conn() *Conn { return s.c }

// Read blocks until buffered payload, EOF, a connection error, or the read
// deadline, driving the simulation forward while it waits.
func (s *SockConn) Read(p []byte) (n int, err error) {
	if len(p) == 0 {
		return 0, nil
	}
	s.d.WaitUntil(func() bool {
		switch {
		case s.closed:
			err = net.ErrClosed
		case len(s.rx) > 0:
			n = copy(p, s.rx)
			rest := copy(s.rx, s.rx[n:])
			s.rx = s.rx[:rest]
		case s.rd.expired:
			err = os.ErrDeadlineExceeded
		case s.dead:
			if e := s.c.Err(); e != nil {
				err = e
			} else {
				err = io.EOF
			}
		default:
			return false
		}
		return true
	})
	return n, err
}

// Write queues p into the TCP send buffer (which copies it). While the
// buffer has no room for the rest of p it blocks, driving the simulation
// forward, until ACKs free some, the write deadline passes or the
// connection closes; it returns how much of p it queued.
func (s *SockConn) Write(p []byte) (n int, err error) {
	for {
		s.d.Run(func() {
			switch {
			case s.closed:
				err = net.ErrClosed
			case s.wr.expired:
				err = os.ErrDeadlineExceeded
			default:
				k := min(len(p)-n, SendBufSize-s.c.Buffered())
				if err = s.c.Send(p[n : n+k]); err == nil {
					n += k
				}
			}
		})
		if err != nil || n == len(p) {
			return n, err
		}
		// Wait for room for the rest, or for half the buffer, as OnSent does.
		s.d.WaitUntil(func() bool {
			return s.closed || s.wr.expired || s.c.State() == StateClosed ||
				SendBufSize-s.c.Buffered() >= min(len(p)-n, SendBufSize/2)
		})
	}
}

// Close closes the connection (FIN, or teardown in SYN_SENT) and wakes any
// blocked reads. Queued-but-unsent data in SYN_SENT surfaces the TCP
// layer's ErrClosed report.
func (s *SockConn) Close() (err error) {
	s.d.Run(func() {
		if s.closed {
			err = net.ErrClosed
			return
		}
		s.closed = true
		s.rd.set(s.stack.engine, 0, false)
		s.wr.set(s.stack.engine, 0, false)
		err = s.c.Close()
	})
	return err
}

// LocalAddr returns the connection's local endpoint.
func (s *SockConn) LocalAddr() net.Addr {
	return SockAddr{IP: s.stack.IP, Port: s.c.LocalPort()}
}

// RemoteAddr returns the connection's remote endpoint.
func (s *SockConn) RemoteAddr() net.Addr {
	ip, port := s.c.Remote()
	return SockAddr{IP: ip, Port: port}
}

// SetDeadline implements net.Conn: the wall-clock deadline's distance from
// now is mapped 1:1 onto virtual time.
func (s *SockConn) SetDeadline(t time.Time) error {
	return errors.Join(s.SetReadDeadline(t), s.SetWriteDeadline(t))
}

// SetReadDeadline implements net.Conn; see SetDeadline.
func (s *SockConn) SetReadDeadline(t time.Time) error {
	d, armed := wallDeadline(t)
	s.d.Run(func() { s.rd.set(s.stack.engine, d, armed) })
	return nil
}

// SetWriteDeadline implements net.Conn; see SetDeadline.
func (s *SockConn) SetWriteDeadline(t time.Time) error {
	d, armed := wallDeadline(t)
	s.d.Run(func() { s.wr.set(s.stack.engine, d, armed) })
	return nil
}

// wallDeadline converts net.Conn wall-clock deadline conventions: the zero
// time clears, otherwise the distance from now becomes a virtual duration.
func wallDeadline(t time.Time) (sim.Duration, bool) {
	if t.IsZero() {
		return 0, false
	}
	return sim.Duration(time.Until(t).Nanoseconds()), true
}

// SockListener adapts a TCP listen port to net.Listener. The TCP accept
// callback (engine context, driver lock held) wires a SockConn immediately
// — before any payload lands — and queues it for Accept.
type SockListener struct {
	d       *Driver
	stack   *Stack
	port    uint16
	backlog []*SockConn
	closed  bool
}

// Accept blocks until a connection reaches ESTABLISHED, driving the
// simulation while it waits.
func (l *SockListener) Accept() (c net.Conn, err error) {
	l.d.WaitUntil(func() bool {
		switch {
		case len(l.backlog) > 0:
			c = l.backlog[0]
			l.backlog = l.backlog[1:]
		case l.closed:
			err = net.ErrClosed
		default:
			return false
		}
		return true
	})
	return c, err
}

// Close withdraws the listener and wakes blocked Accepts. Connections
// already accepted live on.
func (l *SockListener) Close() (err error) {
	l.d.Run(func() {
		if l.closed {
			err = net.ErrClosed
			return
		}
		l.closed = true
		l.stack.TCP().Unlisten(l.port)
	})
	return err
}

// Addr returns the listening endpoint.
func (l *SockListener) Addr() net.Addr { return SockAddr{IP: l.stack.IP, Port: l.port} }

// Sockets is one machine's stdlib-compatible socket layer: a Driver (often
// shared across a topology), the machine's stack, and its resolver.
type Sockets struct {
	d        *Driver
	stack    *Stack
	resolver *Resolver
}

// NewSockets builds the socket layer. resolver may be nil, in which case
// only literal addresses dial.
func NewSockets(d *Driver, stack *Stack, resolver *Resolver) *Sockets {
	return &Sockets{d: d, stack: stack, resolver: resolver}
}

// Driver returns the simulation driver (for Run/Drain from harness code).
func (s *Sockets) Driver() *Driver { return s.d }

// Stack returns the machine's protocol stack (layered adapters — the
// load balancer's health prober — need its engine and transports).
func (s *Sockets) Stack() *Stack { return s.stack }

// Resolver returns the machine's stub resolver (nil if none).
func (s *Sockets) Resolver() *Resolver { return s.resolver }

// Listen opens a net.Listener on port.
func (s *Sockets) Listen(port uint16) (net.Listener, error) {
	l := &SockListener{d: s.d, stack: s.stack, port: port}
	var err error
	s.d.Run(func() {
		err = s.stack.TCP().Listen(port, nil, func(c *Conn) {
			if l.closed {
				_ = c.Close()
				return
			}
			l.backlog = append(l.backlog, newSockConn(s.d, s.stack, c))
		})
	})
	if err != nil {
		return nil, err
	}
	return l, nil
}

// Dialer dials simulated TCP by name or literal address:
// Resolve → Connect → block until ESTABLISHED or failure. The zero
// Timeout leans on the TCP retransmission cap, which bounds every dial in
// virtual time — a dial to a dead or partitioned machine returns
// ErrTimedOut instead of hanging.
type Dialer struct {
	s *Sockets
	// Timeout, when positive, additionally caps the whole dial
	// (resolve + handshake) in virtual time.
	Timeout sim.Duration
}

// Dialer returns a Dialer over this socket layer.
func (s *Sockets) Dialer() *Dialer { return &Dialer{s: s} }

// Dial implements the net.Dial shape for "tcp" addresses ("host:port").
func (dl *Dialer) Dial(network, address string) (net.Conn, error) {
	return dl.DialContext(context.Background(), network, address)
}

// DialContext implements the net.Dialer.DialContext shape — drop it into
// http.Transport.DialContext and net/http runs against the simulation.
// Context cancellation is observed at simulation steps (virtual-time
// bounds, not the context, are the guarantee against hanging).
func (dl *Dialer) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	switch network {
	case "tcp", "tcp4":
	default:
		return nil, fmt.Errorf("netstack: dial %s: unsupported network", network)
	}
	host, portStr, err := net.SplitHostPort(address)
	if err != nil {
		return nil, fmt.Errorf("netstack: dial %s: %w", address, err)
	}
	port, err := strconv.ParseUint(portStr, 10, 16)
	if err != nil {
		return nil, fmt.Errorf("netstack: dial %s: bad port: %w", address, err)
	}
	var deadline sockDeadline
	if dl.Timeout > 0 {
		dl.s.d.Run(func() { deadline.set(dl.s.stack.engine, dl.Timeout, true) })
		defer dl.s.d.Run(func() { deadline.set(dl.s.stack.engine, 0, false) })
	}
	addrs, err := dl.resolve(ctx, host, &deadline)
	if err != nil {
		return nil, fmt.Errorf("netstack: dial %s: %w", address, err)
	}
	var lastErr error
	for _, ip := range addrs {
		c, err := dl.dialIP(ctx, ip, uint16(port), &deadline)
		if err == nil {
			return c, nil
		}
		lastErr = err
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
			errors.Is(err, os.ErrDeadlineExceeded) {
			break
		}
	}
	return nil, fmt.Errorf("netstack: dial %s: %w", address, lastErr)
}

// resolve turns host into candidate addresses: a literal IPv4 parses
// directly, anything else goes through the resolver.
func (dl *Dialer) resolve(ctx context.Context, host string, deadline *sockDeadline) ([]IPAddr, error) {
	if ip, ok := parseIPv4(host); ok {
		return []IPAddr{ip}, nil
	}
	if dl.s.resolver == nil {
		return nil, fmt.Errorf("%w: no resolver for %q", ErrNameNotFound, host)
	}
	var (
		addrs []IPAddr
		rerr  error
		done  bool
	)
	dl.s.d.Run(func() {
		dl.s.resolver.LookupA(host, func(a []IPAddr, e error) {
			addrs, rerr, done = a, e, true
		})
	})
	dl.s.d.WaitUntil(func() bool {
		if deadline.expired && !done {
			rerr, done = os.ErrDeadlineExceeded, true
		}
		if ctx.Err() != nil && !done {
			rerr, done = ctx.Err(), true
		}
		return done
	})
	if rerr != nil {
		return nil, rerr
	}
	return addrs, nil
}

// dialIP opens the connection and pumps the simulation until the handshake
// resolves: ESTABLISHED, or a teardown whose cause (ErrTimedOut after the
// retransmission cap, a RST) comes from Conn.Err.
func (dl *Dialer) dialIP(ctx context.Context, ip IPAddr, port uint16, deadline *sockDeadline) (net.Conn, error) {
	var (
		sc   *SockConn
		cerr error
	)
	dl.s.d.Run(func() {
		c, err := dl.s.stack.TCP().Connect(ip, port, nil)
		if err != nil {
			cerr = err
			return
		}
		sc = newSockConn(dl.s.d, dl.s.stack, c)
	})
	if cerr != nil {
		return nil, cerr
	}
	dl.s.d.WaitUntil(func() bool {
		switch {
		case sc.c.State() == StateEstablished:
		case sc.dead || sc.c.State() == StateClosed:
			if cerr = sc.c.Err(); cerr == nil {
				cerr = ErrClosed
			}
		case deadline.expired:
			cerr = os.ErrDeadlineExceeded
		case ctx.Err() != nil:
			cerr = ctx.Err()
		default:
			return false
		}
		return true
	})
	if cerr != nil {
		dl.s.d.Run(func() { _ = sc.c.Close() })
		return nil, cerr
	}
	return sc, nil
}

// parseIPv4 parses a dotted-quad literal.
func parseIPv4(s string) (IPAddr, bool) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, false
	}
	var ip uint32
	for _, p := range parts {
		n, err := strconv.ParseUint(p, 10, 8)
		if err != nil {
			return 0, false
		}
		ip = ip<<8 | uint32(n)
	}
	return IPAddr(ip), true
}
