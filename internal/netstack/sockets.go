package netstack

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"os"
	"runtime"
	"strconv"
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
// networking code blocks real goroutines. The Driver bridges them with one
// long-lived goroutine, its loop, that alone steps the engine. A blocking
// operation hands the loop a call — what to do, and what must hold before
// the caller may go on — and parks until the loop signals it. The loop
// steps only while some call waits, so virtual time advances exactly as
// far as the blocked callers need it to (no wall-clock polling, no
// background ticker), and it runs events in virtual-time order whichever
// goroutine asked. The deep simulation stack lives on the loop's
// goroutine: it grows once per Driver, not on each fresh goroutine that
// net/http starts for a request.

// Stepper is any event source the Driver can advance: a single machine's
// sim.Engine or a whole topology's sim.Cluster. Step executes the next
// pending event and reports whether there was one.
type Stepper interface {
	Step() bool
}

// Driver runs a simulation shared by blocking goroutines. Its loop
// goroutine owns every engine behind the source: it alone steps it, and
// engine callbacks, WaitUntil predicates and Run functions all run there,
// so they may touch adapter buffers directly.
//
// Once a Driver wraps an engine or cluster, advance the simulation only
// through it (blocking socket calls, Run, Drain) — a direct Engine.Run
// would race the loop. The loop goroutine ends once nothing refers to the
// Driver and no call is pending.
type Driver struct{ loop *loop }

// NewDriver wraps an event source and starts its loop.
func NewDriver(src Stepper) *Driver {
	l := &loop{src: src, calls: make(chan *call)}
	l.start(nil)
	d := &Driver{loop: l}
	// The loop refers to l, never to d, so d can become unreachable while
	// the loop runs. Then a nil call tells the loop it may end.
	runtime.SetFinalizer(d, func(d *Driver) { go func() { l.calls <- nil }() })
	return d
}

// Run injects fn into the simulation at the current virtual time: it runs
// on the loop, before the next step, and every blocked operation then
// re-checks what changed. A panic in fn is raised again here.
func (d *Driver) Run(fn func()) {
	c := newCall(opRun)
	c.fn = fn
	d.loop.do(c)
}

// WaitUntil blocks the calling goroutine until pred holds, stepping the
// simulation as needed. pred runs on the loop and may have side effects
// (consuming buffered data); it is checked when the call arrives, after
// every step and after every call that lands meanwhile. If the event queue
// drains with pred still false, the caller stays parked until some other
// call changes that: exactly a blocking socket's semantics. A panic in
// pred is raised again here.
//
// Waiters are checked in the order they arrived, so of two whose
// conditions come true at the same step the earlier resumes first. The
// byte-identical-replay contract holds when blocking calls are issued from
// one goroutine at a time: the order in which calls from several
// goroutines reach the loop is up to the host scheduler.
func (d *Driver) WaitUntil(pred func() bool) {
	c := newCall(opWait)
	c.pred = pred
	d.loop.do(c)
}

// Drain steps the simulation until the event queue is empty — the harness
// call for "let everything in flight settle".
func (d *Driver) Drain() { d.loop.do(newCall(opDrain)) }

func opRun(_ *loop, c *call) bool { c.fn(); return true }

func opWait(_ *loop, c *call) bool { return c.pred() }

func opDrain(l *loop, _ *call) bool { return l.dry }

// loop is a Driver's state, owned by its goroutine. Nothing reachable from
// it may refer to the Driver: socket adapters and their TCP callbacks hold
// the loop, so a Driver nothing else holds is finalized and its loop ends.
type loop struct {
	src     Stepper
	calls   chan *call                    // a nil call: the Driver is unreachable
	exited  atomic.Pointer[chan struct{}] // closed when the current run ends
	waiters []*call                       // calls whose condition does not hold yet, in arrival order
	dry     bool                          // the last Step found no event, and no call arrived since
	orphan  bool                          // the Driver is gone
}

// start runs the loop goroutine again after the run that old belongs to,
// unless another call did already. A call on a loop whose Driver was
// dropped (a SockConn kept past its Sockets) starts the next run this way.
func (l *loop) start(old *chan struct{}) {
	exited := make(chan struct{})
	if l.exited.CompareAndSwap(old, &exited) {
		go l.run(exited)
	}
}

// do hands c to the loop, blocks until the loop is done with it, and
// returns c's results, recycling c. A panic in c's op is raised again.
func (l *loop) do(c *call) result {
	// Most calls find the loop parked waiting for one; a non-blocking send
	// is shallower than send's select on the goroutines net/http starts.
	select {
	case l.calls <- c:
	default:
		l.send(c)
	}
	<-c.done
	r, p := c.result, c.panicked
	c.free()
	if p != nil {
		panic(p)
	}
	return r
}

// send waits until the loop takes c, starting a new run if the last one
// ended.
func (l *loop) send(c *call) {
	for {
		exited := l.exited.Load()
		select {
		case l.calls <- c:
			return
		case <-*exited:
			l.start(exited)
		}
	}
}

// run admits every queued call before each step, steps while some call
// waits, and blocks for the next call when none does or the source is dry.
// Once the Driver is gone, it ends when no call waits or is queued.
func (l *loop) run(exited chan struct{}) {
	defer close(exited)
	for {
		var c *call
		switch {
		case len(l.waiters) > 0 && !l.dry:
			select {
			case c = <-l.calls:
			default:
				l.dry = !l.src.Step()
				l.poll()
				continue
			}
		case l.orphan && len(l.waiters) == 0:
			select {
			case c = <-l.calls:
			default:
				return
			}
		default:
			c = <-l.calls
		}
		if c == nil {
			l.orphan = true
			continue
		}
		l.dry = false
		if l.try(c) {
			l.poll() // c may have changed what the waiters wait for
		} else {
			l.waiters = append(l.waiters, c)
		}
	}
}

// poll signals, in arrival order, every waiter whose condition now holds.
func (l *loop) poll() {
	keep := l.waiters[:0]
	for _, w := range l.waiters {
		if !l.try(w) {
			keep = append(keep, w)
		}
	}
	clear(l.waiters[len(keep):])
	l.waiters = keep
}

// try runs c's op and signals c if it is done or it panicked.
func (l *loop) try(c *call) (done bool) {
	defer func() {
		if p := recover(); p != nil {
			c.panicked, done = p, true
			c.done <- struct{}{}
		}
	}()
	if done = c.op(l, c); done {
		c.done <- struct{}{}
	}
	return done
}

// call is one blocking operation handed to the loop: a static op, its
// operands and its results, so that a socket call allocates nothing.
type call struct {
	// op does the work on the loop and reports whether the call is done;
	// one that is not stays a waiter, and op runs again after each step.
	op       func(l *loop, c *call) bool
	done     chan struct{}
	panicked any
	result

	fn    func()      // Run
	pred  func() bool // WaitUntil
	ln    *SockListener
	stack *Stack
	dl    *sockDeadline
	ctx   context.Context
	p     []byte
	dur   sim.Duration
	armed bool

	res       *Resolver
	host      string
	ip        IPAddr
	port      uint16
	onResolve func([]IPAddr, error) // c.resolved, bound once per call
	looked    bool                  // the lookup answered
	keep      bool                  // the dial gave up first: the lookup holds c
}

// result is what a call hands back; s is also an operand.
type result struct {
	n     int
	s     *SockConn
	addrs []IPAddr
	err   error
}

// spareCalls recycles calls. A pool's fast path is shallow: the first call
// on one of net/http's fresh goroutines should not be what grows its stack.
var spareCalls = sync.Pool{New: func() any { return &call{done: make(chan struct{}, 1)} }}

func newCall(op func(*loop, *call) bool) *call {
	c := spareCalls.Get().(*call)
	c.op = op
	return c
}

// free keeps c for reuse, unless the resolver still holds it.
func (c *call) free() {
	if !c.keep {
		*c = call{done: c.done, onResolve: c.onResolve}
		spareCalls.Put(c)
	}
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

// set arms the deadline d from now; zero clears it. Runs on the loop.
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

// passed reports whether the deadline expired; a nil deadline never does.
func (dl *sockDeadline) passed() bool { return dl != nil && dl.expired }

func opSetDeadline(_ *loop, c *call) bool {
	c.dl.set(c.stack.engine, c.dur, c.armed)
	return true
}

// SockConn adapts one *Conn to net.Conn. Reads block (stepping the
// simulation) until data, EOF, an error, or a deadline; writes queue into
// the TCP send buffer and block, the same way, while it is full. Obtain one
// from Sockets.Dial / Dialer.DialContext or a Sockets listener.
type SockConn struct {
	loop   *loop
	c      *Conn
	stack  *Stack
	rx     []byte // received, unread from rx[head:]
	head   int
	dead   bool // OnClose fired: peer FIN, teardown, or local close done
	closed bool // local Close called
	rd, wr sockDeadline
}

// newSockConn wires the adapter's callbacks; call it on the loop (inside
// Run or an engine callback) before any payload can arrive.
func newSockConn(l *loop, stack *Stack, c *Conn) *SockConn {
	s := &SockConn{loop: l, c: c, stack: stack}
	c.OnData = func(_ *Conn, payload []byte) {
		// The packet owning payload is pooled; copy before it is reused.
		// Slide the unread bytes down rather than grow past the array.
		if s.head > 0 && len(s.rx)+len(payload) > cap(s.rx) {
			s.rx = s.rx[:copy(s.rx, s.rx[s.head:])]
			s.head = 0
		}
		s.rx = append(s.rx, payload...)
	}
	c.OnClose = func(*Conn) { s.dead = true }
	return s
}

// Conn exposes the underlying TCP endpoint (tests assert on its state).
func (s *SockConn) Conn() *Conn { return s.c }

// Read blocks until buffered payload, EOF, a connection error, or the read
// deadline, driving the simulation forward while it waits.
func (s *SockConn) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	c := newCall(opRead)
	c.s, c.p = s, p
	r := s.loop.do(c)
	return r.n, r.err
}

func opRead(_ *loop, c *call) bool {
	s := c.s
	switch {
	case s.closed:
		c.err = net.ErrClosed
	case s.head < len(s.rx):
		c.n = copy(c.p, s.rx[s.head:])
		if s.head += c.n; s.head == len(s.rx) {
			s.rx, s.head = s.rx[:0], 0
		}
	case s.rd.expired:
		c.err = os.ErrDeadlineExceeded
	case s.dead:
		if c.err = s.c.Err(); c.err == nil {
			c.err = io.EOF
		}
	default:
		return false
	}
	return true
}

// Write queues p into the TCP send buffer (which copies it). While the
// buffer has no room for the rest of p it blocks, driving the simulation
// forward, until ACKs free some, the write deadline passes or the
// connection closes; it returns how much of p it queued.
func (s *SockConn) Write(p []byte) (int, error) {
	c := newCall(opWrite)
	c.s, c.p = s, p
	r := s.loop.do(c)
	return r.n, r.err
}

// opWrite queues what fits of the rest of c.p, then waits as opWriteRoom.
func opWrite(_ *loop, c *call) bool {
	s := c.s
	switch {
	case s.closed:
		c.err = net.ErrClosed
	case s.wr.expired:
		c.err = os.ErrDeadlineExceeded
	default:
		k := min(len(c.p)-c.n, SendBufSize-s.c.Buffered())
		if c.err = s.c.Send(c.p[c.n : c.n+k]); c.err == nil {
			c.n += k
		}
	}
	c.op = opWriteRoom
	return c.err != nil || c.n == len(c.p)
}

// opWriteRoom waits for room for the rest of a write, or for half the
// buffer, as OnSent does, and then queues more.
func opWriteRoom(l *loop, c *call) bool {
	s := c.s
	return (s.closed || s.wr.expired || s.c.State() == StateClosed ||
		SendBufSize-s.c.Buffered() >= min(len(c.p)-c.n, SendBufSize/2)) && opWrite(l, c)
}

// Close closes the connection (FIN, or teardown in SYN_SENT) and wakes any
// blocked reads. Queued-but-unsent data in SYN_SENT surfaces the TCP
// layer's ErrClosed report.
func (s *SockConn) Close() error {
	c := newCall(opClose)
	c.s = s
	return s.loop.do(c).err
}

func opClose(_ *loop, c *call) bool {
	s := c.s
	if s.closed {
		c.err = net.ErrClosed
		return true
	}
	s.closed = true
	s.rd.set(s.stack.engine, 0, false)
	s.wr.set(s.stack.engine, 0, false)
	c.err = s.c.Close()
	return true
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
func (s *SockConn) SetReadDeadline(t time.Time) error { return s.setDeadline(&s.rd, t) }

// SetWriteDeadline implements net.Conn; see SetDeadline.
func (s *SockConn) SetWriteDeadline(t time.Time) error { return s.setDeadline(&s.wr, t) }

// setDeadline converts net.Conn's wall-clock convention: the zero time
// clears, otherwise the distance from now becomes a virtual duration.
func (s *SockConn) setDeadline(dl *sockDeadline, t time.Time) error {
	c := newCall(opSetDeadline)
	c.stack, c.dl, c.armed = s.stack, dl, !t.IsZero()
	if c.armed {
		c.dur = sim.Duration(time.Until(t).Nanoseconds())
	}
	return s.loop.do(c).err
}

// SockListener adapts a TCP listen port to net.Listener. The TCP accept
// callback (on the loop) wires a SockConn immediately — before any payload
// lands — and queues it for Accept.
type SockListener struct {
	loop    *loop
	stack   *Stack
	port    uint16
	backlog []*SockConn
	closed  bool
}

// accepted is the listen port's accept callback.
func (ln *SockListener) accepted(c *Conn) {
	if ln.closed {
		_ = c.Close()
		return
	}
	ln.backlog = append(ln.backlog, newSockConn(ln.loop, ln.stack, c))
}

// Accept blocks until a connection reaches ESTABLISHED, driving the
// simulation while it waits.
func (ln *SockListener) Accept() (net.Conn, error) {
	c := newCall(opAccept)
	c.ln = ln
	r := ln.loop.do(c)
	if r.err != nil {
		return nil, r.err
	}
	return r.s, nil
}

func opAccept(_ *loop, c *call) bool {
	ln := c.ln
	switch {
	case len(ln.backlog) > 0:
		c.s = ln.backlog[0]
		ln.backlog = ln.backlog[1:]
	case ln.closed:
		c.err = net.ErrClosed
	default:
		return false
	}
	return true
}

// Close withdraws the listener and wakes blocked Accepts. Connections
// already accepted live on.
func (ln *SockListener) Close() error {
	c := newCall(opUnlisten)
	c.ln = ln
	return ln.loop.do(c).err
}

func opUnlisten(_ *loop, c *call) bool {
	if c.ln.closed {
		c.err = net.ErrClosed
	} else {
		c.ln.closed = true
		c.ln.stack.TCP().Unlisten(c.ln.port)
	}
	return true
}

// Addr returns the listening endpoint.
func (ln *SockListener) Addr() net.Addr { return SockAddr{IP: ln.stack.IP, Port: ln.port} }

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
	ln := &SockListener{loop: s.d.loop, stack: s.stack, port: port}
	var err error
	s.d.Run(func() { err = s.stack.TCP().Listen(port, nil, ln.accepted) })
	if err != nil {
		return nil, err
	}
	return ln, nil
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
	// The whole dial's deadline; a nil one never passes.
	var deadline *sockDeadline
	if dl.Timeout > 0 {
		deadline = new(sockDeadline)
		dl.setDeadline(deadline, dl.Timeout)
		defer dl.setDeadline(deadline, 0)
	}
	addrs, err := dl.resolve(ctx, host, deadline)
	if err != nil {
		return nil, fmt.Errorf("netstack: dial %s: %w", address, err)
	}
	var lastErr error
	for _, ip := range addrs {
		c := newCall(opConnect)
		c.stack, c.ip, c.port, c.ctx, c.dl = dl.s.stack, ip, uint16(port), ctx, deadline
		r := dl.s.d.loop.do(c)
		if r.err == nil {
			return r.s, nil
		}
		lastErr = r.err
		if errors.Is(lastErr, context.Canceled) || errors.Is(lastErr, context.DeadlineExceeded) ||
			errors.Is(lastErr, os.ErrDeadlineExceeded) {
			break
		}
	}
	return nil, fmt.Errorf("netstack: dial %s: %w", address, lastErr)
}

// setDeadline arms the dial's deadline d from now; zero clears it.
func (dl *Dialer) setDeadline(deadline *sockDeadline, d sim.Duration) {
	c := newCall(opSetDeadline)
	c.stack, c.dl, c.dur, c.armed = dl.s.stack, deadline, d, d > 0
	dl.s.d.loop.do(c)
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
	c := newCall(opResolve)
	c.res, c.host, c.ctx, c.dl = dl.s.resolver, host, ctx, deadline
	r := dl.s.d.loop.do(c)
	return r.addrs, r.err
}

// opResolve starts the lookup, then waits as opResolved.
func opResolve(l *loop, c *call) bool {
	if c.onResolve == nil {
		c.onResolve = c.resolved
	}
	c.res.LookupA(c.host, c.onResolve)
	c.op = opResolved
	return opResolved(l, c)
}

// resolved is the lookup's callback. Once the dial has given up, the
// caller may be reading c's results, so it leaves them alone.
func (c *call) resolved(addrs []IPAddr, err error) {
	if !c.keep {
		c.addrs, c.err, c.looked = addrs, err, true
	}
}

func opResolved(_ *loop, c *call) bool {
	if c.looked {
		return true
	}
	c.keep = c.gaveUp()
	return c.keep
}

// gaveUp reports whether the dial's deadline or context ended its wait,
// and why.
func (c *call) gaveUp() bool {
	switch {
	case c.dl.passed():
		c.err = os.ErrDeadlineExceeded
	case c.ctx.Err() != nil:
		c.err = c.ctx.Err()
	default:
		return false
	}
	return true
}

// opConnect opens the connection, then waits as opEstablished: for
// ESTABLISHED, or a teardown whose cause (ErrTimedOut after the
// retransmission cap, a RST) comes from Conn.Err.
func opConnect(l *loop, c *call) bool {
	conn, err := c.stack.TCP().Connect(c.ip, c.port, nil)
	if err != nil {
		c.err = err
		return true
	}
	c.s = newSockConn(l, c.stack, conn)
	c.op = opEstablished
	return opEstablished(l, c)
}

// opEstablished waits for the handshake; a dial that fails or is given up
// on closes its connection.
func opEstablished(_ *loop, c *call) bool {
	s := c.s
	switch {
	case s.c.State() == StateEstablished:
		return true
	case s.dead || s.c.State() == StateClosed:
		if c.err = s.c.Err(); c.err == nil {
			c.err = ErrClosed
		}
	case !c.gaveUp():
		return false
	}
	_ = s.c.Close()
	return true
}

// parseIPv4 parses a dotted-quad literal without allocating. A name is
// turned down at its first letter, before netip would build an error.
func parseIPv4(s string) (IPAddr, bool) {
	if s == "" || s[0] < '0' || s[0] > '9' {
		return 0, false
	}
	a, err := netip.ParseAddr(s)
	if err != nil || !a.Is4() {
		return 0, false
	}
	b := a.As4()
	return Addr(b[0], b[1], b[2], b[3]), true
}
