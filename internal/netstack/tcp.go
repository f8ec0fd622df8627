package netstack

import (
	"errors"
	"fmt"
	"slices"

	"spin/internal/faultinject"
	"spin/internal/metrics"
	"spin/internal/sim"
)

// TCPState is a connection state (RFC 793 subset).
type TCPState int

// Connection states.
const (
	StateClosed TCPState = iota
	StateSynSent
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateCloseWait
	StateLastAck
	StateTimeWait
)

func (s TCPState) String() string {
	names := []string{"CLOSED", "SYN_SENT", "ESTABLISHED",
		"FIN_WAIT_1", "FIN_WAIT_2", "CLOSE_WAIT", "LAST_ACK", "TIME_WAIT"}
	if int(s) < len(names) {
		return names[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// DefaultMSS is the default maximum segment size (Ethernet-friendly).
const DefaultMSS = 1460

// rcvWindow is the receive window, in bytes, advertised to a peer that
// scales windows (RFC 7323), with shift rcvShift. A peer that does not is
// advertised maxUnscaledWindow, and so is every peer in a SYN or SYN|ACK,
// whose window is never scaled.
const (
	rcvWindow         = 96 * 1024
	rcvShift          = 1
	maxUnscaledWindow = 0xffff
	// maxWScale is the largest shift taken from a peer (RFC 7323 §2.3).
	maxWScale = 14
)

// The scaled window fits the header's 16 bits (a constant that does not
// convert fails to compile).
const _ = uint16(rcvWindow >> rcvShift)

// initialWindow is the congestion window a connection starts with, in
// segments: three for a segment size above 1095 bytes (RFC 5681 §3.1).
const initialWindow = 3

// retxTimeout is the retransmission timeout before the first round-trip
// sample and its floor after (RFC 6298 with a 200 ms minimum). Each
// unacknowledged retransmission doubles the timeout, up to retxBackoffCap
// doublings.
const retxTimeout = 200 * sim.Millisecond

// retxBackoffCap bounds the exponential backoff at sixteen times the
// timeout (6.4 s at the floor), so a long outage retries at a steady
// cadence instead of hours apart.
const retxBackoffCap = 5

// maxRTT caps a round-trip sample, which keeps the estimator's microsecond
// arithmetic inside 32 bits.
const maxRTT = 60 * sim.Second

// maxCwnd caps the congestion window, in segments. The advertised window
// (rcvWindow, 67 segments) binds before it does.
const maxCwnd = 128

// dupAckThreshold is the number of duplicate ACKs taken as a loss from a
// peer without SACK (RFC 5681), and the number of SACKed segments past a
// hole that make RACK give up its reordering window before it has seen
// reordering (RFC 8985 §6.2).
const dupAckThreshold = 3

// DefaultMaxRetx is the retransmission cap: after this many
// unacknowledged retransmissions of the same data (or SYN) the connection
// is torn down with ErrTimedOut. With exponential backoff from retxTimeout
// the whole attempt is bounded at ~19 s of virtual time.
const DefaultMaxRetx = 6

// SendBufSize bounds the bytes a connection holds for its writer, sent and
// unacknowledged or waiting for window (a real stack's SO_SNDBUF). It is
// more than twice the window a peer advertises, so a writer that refills
// it once OnSent reports it half empty never leaves the window short.
const SendBufSize = 256 << 10

// Errors surfaced by connections that fail rather than hang.
var (
	// ErrSendBufFull is Send's refusal of a write the send buffer has no
	// room for. Nothing of it was queued; OnSent reports room.
	ErrSendBufFull = errors.New("netstack: send buffer full")
	// ErrTimedOut reports that the retransmission cap was exhausted: the
	// peer (or the path to it) stayed silent through every backoff.
	ErrTimedOut = errors.New("netstack: connection timed out")
	// ErrClosed reports an operation on a closed connection — including a
	// Close in SYN_SENT that discards data queued before the handshake
	// completed.
	ErrClosed = errors.New("netstack: connection closed")
)

// timeWaitDelay is the TIME_WAIT linger before the connection is reaped.
const timeWaitDelay = 500 * sim.Millisecond

// serverISS is the deterministic initial send sequence for server-side
// connections (clients use 100); fixed values keep the simulation
// replayable.
const serverISS = 1000

// Half-open table bounds (RFC 4987 §3.2). A SYN costs one compact entry
// (SYN received, final ACK pending) in a bounded table, syncookie-style —
// never a *Conn — so a SYN flood is capped at MaxHalfOpen entries of a few
// dozen bytes each.
const (
	// MaxHalfOpen bounds the half-open table; beyond it the oldest entry is
	// evicted (counted in net_tcp_half_open_evicted).
	MaxHalfOpen = 4096
	// synTTL evicts half-open entries whose final ACK never arrived, when
	// the next SYN arrives.
	synTTL = 5 * sim.Second
)

// connKey packs the 4-tuple that identifies a connection — remote address,
// remote port, local port (the local address is the stack's own) — into one
// comparable word.
type connKey uint64

func tcpKey(remote IPAddr, remotePort, localPort uint16) connKey {
	return connKey(uint64(remote)<<32 | uint64(remotePort)<<16 | uint64(localPort))
}

// synEntry is the compact half-open record for a SYN awaiting its final
// ACK: just enough to resend the SYN-ACK and materialize the connection.
type synEntry struct {
	rcvNxt uint32  // peer ISS + 1
	iss    uint32  // our initial send sequence for the SYN-ACK
	wnd    uint16  // peer's advertised window from the SYN
	opts   synOpts // what the SYN offered, so the SYN-ACK offers it too
}

// synOpts are the options both SYNs of a connection carried, in one byte:
// whether the peer reads SACK blocks (RFC 2018) and whether windows are
// scaled (RFC 7323), and if so by what shift the peer's are.
type synOpts uint8

const (
	optsShift synOpts = 0x0f // the peer's window shift, at most maxWScale; 0 without optsScale
	optsScale synOpts = 1 << 4
	optsSACK  synOpts = 1 << 5
)

// synOptsOf reads the options a SYN or SYN|ACK offers.
func synOptsOf(p *Packet) synOpts {
	var o synOpts
	if p.SACKPermitted {
		o |= optsSACK
	}
	if p.WScaleOK {
		o |= optsScale | synOpts(min(p.WScale, maxWScale))
	}
	return o
}

// offer puts on a SYN or SYN|ACK the options o holds.
func (o synOpts) offer(p *Packet) {
	p.SACKPermitted = o&optsSACK != 0
	if o&optsScale != 0 {
		p.WScaleOK, p.WScale = true, rcvShift
	}
}

// Conn is one TCP connection endpoint. A million idle ones make every word
// count: counters and windows are as narrow as their values, and fields are
// ordered so that none is padded.
type Conn struct {
	tcp        *TCP
	remote     IPAddr
	localPort  uint16
	remotePort uint16

	// connErr is the terminal error, the first one recorded.
	connErr       *error
	state         int32
	retransmits   int32
	zeroWndProbes int32

	// Send side.
	sndUna, sndNxt uint32
	// sendBuf is a ring holding, from head on and wrapping at its end,
	// the queued bytes Send took that the peer has not acknowledged, at
	// most SendBufSize: the first sent of them are the inflight segments'
	// data, back to back, and the rest wait for window. Segments are cut
	// from it and retransmitted from it; a segment that straddles the end
	// of the ring is cut in two pieces. An ACK advances head; a write that
	// does not fit grows the ring, doubling it, and copies the live bytes
	// once.
	sent, head, queued uint32
	sendBuf            []byte
	inflight           []segment
	sndWnd             uint32 // peer's advertised window, bytes
	// sndWL1 and sndWL2 are the sequence and acknowledgment numbers of the
	// segment sndWnd was last taken from (RFC 793 §3.9): an older segment,
	// arriving late, does not bring its window back.
	sndWL1, sndWL2 uint32
	// srtt and rttvar are the smoothed round-trip time and its variation
	// (RFC 6298), in microseconds; srtt is 0 until the first sample.
	srtt, rttvar uint32
	// recover is SND.NXT as it was when the current (or last) loss was
	// noticed. An ACK short of it is partial. A loss found at or below it
	// belongs to a window already halved for and halves nothing (RFC 6582).
	recover  uint32
	cwnd     uint16 // congestion window, segments
	ssthresh uint16 // slow-start threshold, segments
	caAcked  uint8  // segments acknowledged since cwnd last grew, above ssthresh (< cwnd ≤ maxCwnd)
	dupAcks  uint8
	phase    sendPhase
	// retxAttempts counts consecutive unacknowledged retransmissions of
	// the oldest outstanding data (or SYN) and enforces the MaxRetx cap;
	// any forward ACK progress resets it. backoff is how many times the
	// timeout is doubled, and only a clean round-trip sample resets that
	// (Karn): an ACK that may answer a retransmission says the path works,
	// not how long it is.
	retxAttempts uint8
	backoff      uint8

	closed bool
	// opts are the options both SYNs carried. With SACK (RFC 2018) the
	// receive side reports its queue in SACK blocks, and the send side finds
	// losses with RACK-TLP instead of counting duplicate ACKs. With window
	// scaling (RFC 7323) every window after the SYNs is scaled, both ways.
	opts synOpts
	// timer is what the retx event does when it expires.
	timer  timerKind
	rcvNxt uint32
	// loss holds what only a connection that met loss or reordering needs.
	// Nil until it does.
	loss *lossState

	// retx is the retransmit timer, an owner-held event (sim.Engine.Arm)
	// bound to onRetxTimer the first time it is armed, and retxAt the time
	// it is to expire. The event may be queued for earlier: an ACK that
	// restarts the timer moves retxAt and leaves the heap alone, and the
	// event, firing early, re-arms itself for the remainder. The one event
	// serves as the retransmission timeout, RACK's reordering timer and the
	// tail-loss probe timer; timer says which.
	retx   sim.Event
	retxAt sim.Time

	delivery DeliveryCost

	// OnConnect fires when the connection reaches ESTABLISHED.
	OnConnect func(*Conn)
	// OnData receives in-order payload bytes.
	OnData func(*Conn, []byte)
	// OnClose fires when the connection fully closes.
	OnClose func(*Conn)
	// OnSent fires, until Close, when an ACK of new data leaves the send
	// buffer at most half full (Buffered() <= SendBufSize/2): the writer's
	// cue to refill it.
	OnSent func(*Conn)

	// acceptCb is the listener's accept callback. On server-side
	// connections it is set on the Conn before the Conn enters the
	// connection table, so no delivery can observe the connection without
	// it.
	acceptCb func(*Conn)
}

// sendPhase is where the sender stands with respect to loss.
type sendPhase uint8

const (
	// phaseOpen: nothing is known lost. An ACK of new data grows cwnd (by a
	// segment below ssthresh, by a segment per window above it). A segment
	// found lost (see tcp_rack.go) starts recovery.
	phaseOpen sendPhase = iota
	// phaseRecovery: fast recovery (RFC 5681 §3.2, RFC 6675). cwnd holds
	// at ssthresh and the segments found lost are resent as the pipe leaves
	// room; an ACK of recover reopens.
	phaseRecovery
	// phaseLoss: the retransmission timer marked what was outstanding
	// lost, resent the head and restarted cwnd from one segment; the rest
	// are resent as slow start opens the window. An ACK of recover reopens.
	phaseLoss
)

// timerKind is what the retransmit event does when it expires.
type timerKind uint8

const (
	timerRTO timerKind = iota // the retransmission timeout (RFC 6298)
	timerREO                  // RACK's reordering window closes (RFC 8985 §6.3)
	timerPTO                  // the tail-loss probe timeout (RFC 8985 §7)
)

// segment is one unacknowledged segment: n bytes of sendBuf, or a FIN.
type segment struct {
	at   sim.Time // when it was last sent
	seq  uint32
	n    uint16
	bits segBits
}

// segBits are a segment's flags.
type segBits uint8

const (
	segFIN    segBits = 1 << iota
	segRexmit         // sent more than once: its ACK times nothing (Karn)
	segSacked         // the peer holds it (a SACK block covered it)
	segLost           // presumed lost and not resent since
)

// end is the sequence number after the segment's last.
func (s segment) end() uint32 {
	if s.bits&segFIN != 0 {
		return s.seq + 1
	}
	return s.seq + uint32(s.n)
}

// len is the sequence space the segment occupies.
func (s segment) len() uint32 { return s.end() - s.seq }

// ringAt is the index in sendBuf of the byte off bytes past head.
func (c *Conn) ringAt(off uint32) uint32 {
	if i := c.head + off; i < uint32(len(c.sendBuf)) {
		return i
	}
	return c.head + off - uint32(len(c.sendBuf))
}

// queuedAt returns the n queued bytes from off bytes past head on, as the
// piece before the end of the ring and the piece that wrapped past it.
func (c *Conn) queuedAt(off, n uint32) (a, b []byte) {
	i := c.ringAt(off)
	if k := uint32(len(c.sendBuf)) - i; n > k {
		return c.sendBuf[i:], c.sendBuf[:n-k]
	}
	return c.sendBuf[i : i+n], nil
}

// unsent is how many queued bytes are not yet segmented.
func (c *Conn) unsent() int { return int(c.queued - c.sent) }

// Buffered reports the bytes the send buffer holds: queued by Send and not
// yet acknowledged by the peer. It never exceeds SendBufSize.
func (c *Conn) Buffered() int { return int(c.queued) }

// sendData cuts the next n unsent bytes into a segment and sends it.
func (c *Conn) sendData(n int) {
	c.track(segment{at: c.tcp.stack.clock.Now(), seq: c.sndNxt, n: uint16(n)})
	a, b := c.queuedAt(c.sent, uint32(n))
	c.sendSeg(c.seg(FlagACK, c.sndNxt, c.rcvNxt, a, b))
	c.sent += uint32(n)
	c.sndNxt += uint32(n)
	c.armRetx()
}

// track records a segment just sent. The first record makes room for the
// initial window and a FIN, so a short exchange grows the list no further.
func (c *Conn) track(s segment) {
	if c.inflight == nil {
		c.inflight = make([]segment, 0, initialWindow+1)
	}
	c.inflight = append(c.inflight, s)
}

// sackOK reports whether both SYNs carried SACK-permitted.
func (c *Conn) sackOK() bool { return c.opts&optsSACK != 0 }

// rcvWnd is the window the connection advertises, in bytes: what a peer may
// send past RCV.NXT.
func (c *Conn) rcvWnd() uint32 {
	if c.opts&optsScale != 0 {
		return rcvWindow
	}
	return maxUnscaledWindow
}

// window is the window field of a segment after the SYNs: rcvWnd, scaled.
func (c *Conn) window() int {
	if c.opts&optsScale != 0 {
		return rcvWindow >> rcvShift
	}
	return maxUnscaledWindow
}

// State reports the connection state.
func (c *Conn) State() TCPState { return TCPState(c.state) }

func (c *Conn) setState(s TCPState) { c.state = int32(s) }

// Remote reports the peer address/port.
func (c *Conn) Remote() (IPAddr, uint16) { return c.remote, c.remotePort }

// LocalPort reports the local port of the connection's 4-tuple.
func (c *Conn) LocalPort() uint16 { return c.localPort }

// Retransmits reports how many segments were retransmitted.
func (c *Conn) Retransmits() int64 { return int64(c.retransmits) }

// ZeroWindowProbes reports how many persist probes were sent against a
// peer's zero-window advertisement.
func (c *Conn) ZeroWindowProbes() int64 { return int64(c.zeroWndProbes) }

// Err reports why the connection failed: ErrTimedOut after retransmission
// exhaustion, ErrClosed (wrapped) when a close discarded queued data, nil
// for connections that closed cleanly or are still alive.
func (c *Conn) Err() error {
	if c.connErr != nil {
		return *c.connErr
	}
	return nil
}

// setErr records the connection's terminal error; the first one wins.
func (c *Conn) setErr(err error) {
	if c.connErr == nil {
		c.connErr = &err
	}
}

// Listener accepts inbound connections on a port.
type Listener struct {
	port   uint16
	cost   DeliveryCost
	accept func(*Conn)
	owner  string
}

// TCP is the stack's TCP module. The paper notes SPIN used the DEC OSF/1
// TCP engine as a kernel-asserted extension; here the engine is implemented
// natively, which only strengthens the reproduction.
//
// Connections and half-open entries are demultiplexed through one table,
// conns (made on first insert) and syn, and listeners through another, all
// plain maps owned, like the rest of the stack, by whoever steps the
// machine's engine: a segment's lookup is a map read. nextPort is the
// ephemeral-port cursor, and spareSendBufs is send-buffer storage that
// torn-down connections left empty for the next ones to write into.
type TCP struct {
	stack *Stack

	listeners     map[uint16]*Listener
	conns         map[connKey]*Conn
	syn           agedTable[connKey, synEntry]
	nextPort      uint16
	spareSendBufs [][]byte

	accepted int64
	resets   int64
	timedOut int64

	fastRecoveries, rackMarkedLost, tlpProbes, rtos, dsacksReceived int64
}

// A TCP module keeps at most maxSpareSendBufs spare send buffers, enough for
// a server's concurrent responses, and none larger than maxSpareSendBuf,
// so never a bulk flow's.
const (
	maxSpareSendBufs = 64
	maxSpareSendBuf  = 64 << 10
)

func newTCP(s *Stack) *TCP {
	return &TCP{
		stack:    s,
		syn:      agedTable[connKey, synEntry]{ttl: synTTL, max: MaxHalfOpen},
		nextPort: 30000,
	}
}

// put enters key -> c. Callers have seen key absent.
func (t *TCP) put(key connKey, c *Conn) {
	if t.conns == nil {
		t.conns = make(map[connKey]*Conn)
	}
	t.conns[key] = c
}

// Listen accepts connections on port; accept runs when a connection reaches
// ESTABLISHED.
func (t *TCP) Listen(port uint16, cost DeliveryCost, accept func(*Conn)) error {
	return t.ListenOwned("", port, cost, accept)
}

// ListenOwned is Listen with a recorded owning principal, so the listener is
// withdrawn by UnlistenOwner when the owner's domain is destroyed.
func (t *TCP) ListenOwned(owner string, port uint16, cost DeliveryCost, accept func(*Conn)) error {
	if cost == nil {
		cost = InKernelDelivery
	}
	if _, dup := t.listeners[port]; dup {
		return fmt.Errorf("netstack: TCP port %d in use", port)
	}
	if t.listeners == nil {
		t.listeners = make(map[uint16]*Listener)
	}
	t.listeners[port] = &Listener{port: port, cost: cost, accept: accept, owner: owner}
	return nil
}

// Unlisten stops accepting on port.
func (t *TCP) Unlisten(port uint16) { delete(t.listeners, port) }

// UnlistenOwner withdraws every listener registered under owner — the TCP
// module's teardown reclaimer. Established
// connections accepted earlier run their normal state machines to
// completion; only the ability to accept new ones is revoked. It returns
// the number of listeners withdrawn.
func (t *TCP) UnlistenOwner(owner string) int {
	if owner == "" {
		return 0
	}
	n := 0
	for port, l := range t.listeners {
		if l.owner == owner {
			delete(t.listeners, port)
			n++
		}
	}
	return n
}

// Connect opens a connection to dst:port. The returned Conn is in SYN_SENT;
// OnConnect fires at ESTABLISHED.
//
// Fault site "net.dial" fires per connect attempt: KindError fails the
// dial before any connection state exists (the caller sees the injected
// error synchronously), KindDrop loses the initial SYN — the handshake
// then completes late through the retransmission machinery, or times the
// connection out at the cap.
func (t *TCP) Connect(dst IPAddr, port uint16, cost DeliveryCost) (*Conn, error) {
	if cost == nil {
		cost = InKernelDelivery
	}
	dialFault := t.stack.disp.InjectorInstalled().Fire("net.dial")
	if dialFault.Kind == faultinject.KindError {
		return nil, fmt.Errorf("netstack: dial %v:%d: %w", dst, port, dialFault.Err)
	}
	// A local port only has to be unique per 4-tuple (full demux), so the
	// same ephemeral port serves many remotes and outbound connection
	// count is not capped by the port range. The scan is bounded: with
	// fewer than 2^16 connections to this exact remote endpoint it
	// terminates in a few probes.
	c := &Conn{
		tcp:    t,
		remote: dst, remotePort: port,
		cwnd: initialWindow, ssthresh: 16, sndWnd: rcvWindow,
		delivery: cost,
		sndUna:   100, sndNxt: 100, recover: 100,
	}
	c.setState(StateSynSent)
	found := false
	for i := 0; i < 1<<16 && !found; i++ {
		t.nextPort++
		if t.nextPort < 30000 {
			t.nextPort = 30000 // wrapped uint16: stay out of the low range
		}
		c.localPort = t.nextPort
		key := tcpKey(dst, port, c.localPort)
		if _, taken := t.conns[key]; !taken {
			t.put(key, c)
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("netstack: no free local port for %v:%d: %w", dst, port, ErrPortsExhausted)
	}
	if dialFault.Kind != faultinject.KindDrop {
		c.sendSYN()
	}
	c.sndNxt++
	c.armRetx()
	return c, nil
}

// sendSYN sends (or resends) the connection's SYN, which always offers SACK
// and window scaling.
func (c *Conn) sendSYN() {
	p := c.seg(FlagSYN, c.sndUna, 0, nil, nil)
	(optsSACK | optsScale).offer(p)
	c.sendSeg(p)
}

// Send queues payloads for transmission, back to back, as one write. A
// write that does not fit the send buffer whole is refused with
// ErrSendBufFull and nothing of it is queued.
func (c *Conn) Send(payloads ...[]byte) error {
	st := c.State()
	switch {
	case c.closed || st == StateClosed:
		return fmt.Errorf("netstack: send: %w", ErrClosed)
	case st != StateEstablished && st != StateCloseWait && st != StateSynSent:
		return errors.New("netstack: send on non-established connection")
	}
	n := 0
	for _, p := range payloads {
		n += len(p)
	}
	if c.Buffered()+n > SendBufSize {
		return ErrSendBufFull
	}
	c.write(payloads, n)
	c.pump() // sends nothing before the handshake completes
	return nil
}

// write appends n bytes of payloads to the send buffer. A connection's
// first write takes the storage a torn-down one left its module, if there
// is some, or else makes a ring of the write's size; a write that does not
// fit doubles the ring, up to SendBufSize, until it does.
func (c *Conn) write(payloads [][]byte, n int) {
	if t := c.tcp; len(c.sendBuf) == 0 {
		if k := len(t.spareSendBufs); k > 0 {
			c.sendBuf = t.spareSendBufs[k-1]
			t.spareSendBufs = t.spareSendBufs[:k-1]
		}
	}
	if need := int(c.queued) + n; need > len(c.sendBuf) {
		size := len(c.sendBuf)
		if size == 0 {
			size = need
		}
		for size < need {
			size *= 2
		}
		grown := make([]byte, min(size, SendBufSize))
		a, b := c.queuedAt(0, c.queued)
		copy(grown[copy(grown, a):], b)
		c.sendBuf, c.head = grown, 0
	}
	for _, p := range payloads {
		a, b := c.queuedAt(c.queued, uint32(len(p)))
		copy(b, p[copy(a, p):])
		c.queued += uint32(len(p))
	}
}

// Close begins an orderly shutdown. A close before the handshake completed
// aborts the connection; if data was queued behind the SYN (Send in
// SYN_SENT) it is discarded and the loss is reported as an error wrapping
// ErrClosed — the bytes were never acknowledged, or even sent.
func (c *Conn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	switch c.State() {
	case StateEstablished:
		c.setState(StateFinWait1)
	case StateCloseWait:
		c.setState(StateLastAck)
	default:
		var err error
		if c.State() == StateSynSent && c.unsent() > 0 {
			err = fmt.Errorf("%w: %d queued bytes discarded before handshake completed",
				ErrClosed, c.unsent())
			c.head, c.queued = 0, 0
			c.setErr(err)
		}
		c.teardown() // cancels any armed retransmit timer
		return err
	}
	// The FIN rides behind any queued data: pump sends it once the buffer
	// has drained, now or from a later ACK.
	c.pump()
	return nil
}

func (c *Conn) sendFIN() {
	c.track(segment{at: c.tcp.stack.clock.Now(), seq: c.sndNxt, bits: segFIN})
	c.sendSeg(c.seg(FlagFIN|FlagACK, c.sndNxt, c.rcvNxt, nil, nil))
	c.sndNxt++
	c.armRetx()
}

// pump resends what is marked lost, then sends as much buffered data as the
// congestion and peer windows allow.
func (c *Conn) pump() {
	c.resendLost()
	if !c.sending() {
		return
	}
	for c.unsent() > 0 {
		if c.sndWnd == 0 {
			// Peer advertised a zero window: pause, and let the
			// retransmission timer send persist probes (the peer owes us
			// no ACK that would reopen the window unprompted).
			c.armRetx()
			return
		}
		n := min(DefaultMSS, c.unsent(), c.peerRoom(), int(c.cwnd)*DefaultMSS-c.pipe())
		if n <= 0 {
			return // a window is full; ACKs will re-pump
		}
		c.sendData(n)
	}
	if st := c.State(); (st == StateFinWait1 || st == StateLastAck) && c.unsent() == 0 && !c.finInflight() {
		c.sendFIN()
	}
}

// sending reports whether the state lets new data out.
func (c *Conn) sending() bool {
	st := c.State()
	return st == StateEstablished || st == StateCloseWait || st == StateFinWait1 || st == StateLastAck
}

// peerRoom is what the peer's advertised window has left.
func (c *Conn) peerRoom() int { return int(c.sndWnd) - int(c.sndNxt-c.sndUna) }

// pipe is the sequence space in the network (RFC 6675): sent and not
// acknowledged, less what the peer has SACKed and what is presumed lost.
// With nothing marked it is everything outstanding.
func (c *Conn) pipe() int {
	n := int(c.sndNxt - c.sndUna)
	if x := c.loss; x != nil {
		n -= int(x.sacked + x.lost)
	}
	return n
}

// finInflight reports whether the FIN, always the last segment, is out.
func (c *Conn) finInflight() bool {
	n := len(c.inflight)
	return n > 0 && c.inflight[n-1].bits&segFIN != 0
}

// seg allocates a pooled segment carrying this connection's receive window
// (unscaled on its SYN, which goes before any scaling is agreed), and, on an
// ACK to a peer that permits it, SACK blocks for what is queued out of
// order; payload (if any) is copied into the packet's own buffer.
func (c *Conn) seg(flags TCPFlags, seq, ack uint32, payload, wrapped []byte) *Packet {
	p := AllocPacket()
	p.Flags, p.Seq, p.Ack, p.Window = flags, seq, ack, c.window()
	if x := c.loss; x != nil && c.sackOK() && flags&FlagACK != 0 {
		x.fillSACK(p)
	}
	if len(payload) > 0 {
		p.SetPayload(payload)
		p.Payload = append(p.Payload, wrapped...)
	}
	return p
}

// sendSeg fills in addressing and transmits one segment, donating the
// packet to the stack.
func (c *Conn) sendSeg(p *Packet) {
	p.Src = c.tcp.stack.IP
	p.Dst = c.remote
	p.Proto = ProtoTCP
	p.SrcPort = c.localPort
	p.DstPort = c.remotePort
	p.TTL = 32
	_ = c.tcp.stack.SendIP(p)
}

// rto is the current retransmission timeout (RFC 6298): SRTT + 4 RTTVAR,
// never below retxTimeout, doubled per backoff.
func (c *Conn) rto() sim.Duration {
	d := sim.Duration(int64(c.srtt)+4*int64(c.rttvar)) * sim.Microsecond
	return max(d, retxTimeout) << c.backoff
}

// sampleRTT folds one round-trip measurement into the estimator. A clean
// sample also ends any backoff.
func (c *Conn) sampleRTT(r sim.Duration) {
	us := uint32(max(min(r, maxRTT)/sim.Microsecond, 1))
	if c.srtt == 0 {
		c.srtt, c.rttvar = us, us/2
	} else {
		dev := max(c.srtt, us) - min(c.srtt, us)
		c.rttvar = (3*c.rttvar + dev) / 4
		c.srtt = (7*c.srtt + us) / 8
	}
	if x := c.loss; x != nil && (x.rack.minRTT == 0 || r < x.rack.minRTT) {
		x.rack.minRTT = r
	}
	c.backoff = 0
}

// armRetx starts the retransmission timer unless it is running, and
// restarts the probe timer, which runs from the newest transmission.
func (c *Conn) armRetx() {
	if !c.retx.Armed() || c.probeAllowed() {
		c.restartRetx()
	}
}

// restartRetx sets the timer to expire one RTO from now or, where a
// tail-loss probe is allowed, one probe timeout (RFC 8985 §7.2): two SRTTs,
// plus a delayed ACK's worth with one segment out, and no later than the
// RTO.
func (c *Conn) restartRetx() {
	d, kind := c.rto(), timerRTO
	if c.probeAllowed() {
		pto := 2 * sim.Duration(c.srtt) * sim.Microsecond
		if len(c.inflight) == 1 {
			pto += retxTimeout
		}
		d, kind = min(d, pto), timerPTO
	}
	c.armAt(kind, c.tcp.stack.clock.Now().Add(d))
}

// armAt sets the timer to expire at at as kind. A queued event due no later
// than that stays where it is and onRetxTimer re-arms it for the
// difference, so restarting on every ACK of new data costs no heap
// operation.
func (c *Conn) armAt(kind timerKind, at sim.Time) {
	c.timer, c.retxAt = kind, at
	if c.retx.Armed() && c.retx.At <= at {
		return
	}
	if c.retx.Do == nil {
		c.retx.Do = c.onRetxTimer
	}
	s := c.tcp.stack
	s.engine.Arm(&c.retx, at.Sub(s.clock.Now()))
}

func (c *Conn) cancelRetx() { c.retx.Disarm() }

// retxExhausted enforces the retransmission cap: past DefaultMaxRetx
// consecutive unacknowledged retransmissions the connection fails with
// ErrTimedOut — teardown fires OnClose and removes it from the connection
// table. Reports true when the caller must stop retransmitting. Otherwise
// it counts the attempt and doubles the timeout.
func (c *Conn) retxExhausted() bool {
	if c.retxAttempts >= DefaultMaxRetx {
		c.tcp.timedOut++
		c.setErr(ErrTimedOut)
		c.teardown()
		return true
	}
	c.retxAttempts++
	c.backoff = min(c.backoff+1, retxBackoffCap)
	return false
}

// onRetxTimer is the retransmit event firing: early, if ACKs have moved the
// deadline since it was queued, or as the timer it was armed as.
func (c *Conn) onRetxTimer() {
	s := c.tcp.stack
	if now := s.clock.Now(); now < c.retxAt {
		s.engine.Arm(&c.retx, c.retxAt.Sub(now))
		return
	}
	switch {
	case c.State() == StateSynSent:
		if c.retxExhausted() {
			return
		}
		c.tcp.rtos++
		c.retransmits++
		c.sendSYN()
		c.restartRetx()
	case len(c.inflight) > 0 && c.timer == timerPTO:
		c.probe()
	case len(c.inflight) > 0 && c.timer == timerREO:
		c.rackDetect()
		c.pump()
		if !c.retx.Armed() {
			c.restartRetx()
		}
	case len(c.inflight) > 0:
		if c.retxExhausted() {
			return
		}
		c.tcp.rtos++
		// RFC 5681 §3.1: half the flight on the first timeout of this
		// segment, held on the ones after; then slow start from one
		// segment through what is marked lost.
		if c.retxAttempts == 1 {
			c.ssthresh = uint16(max(len(c.inflight)/2, 2))
		}
		c.cwnd, c.caAcked, c.dupAcks = 1, 0, 0
		c.phase, c.recover = phaseLoss, c.sndNxt
		c.markLostOnTimeout()
		c.pump()
		c.restartRetx()
	case c.sndWnd == 0 && c.unsent() > 0 && c.State() != StateClosed:
		// Zero-window persist (RFC 1122 §4.2.2.17): the peer advertised
		// window 0 and will send nothing further on its own; probe with a
		// single byte to elicit an ACK carrying the reopened window.
		// Probes are deliberately uncapped — the peer is alive and ACKing,
		// just full — so they never trip the MaxRetx teardown.
		c.zeroWndProbes++
		c.sendData(1)
	}
}

// Deliver hands one TCP segment directly to the module, as if it had
// arrived addressed to this stack with lower layers already charged — the
// direct-drive entry point for tests and benchmarks (the C10M scaling
// experiment pushes a million handshakes through it without a wire). The
// packet is borrowed: Deliver does not release it.
func (t *TCP) Deliver(pkt *Packet) { t.deliver(pkt) }

// deliver routes one inbound TCP segment, feeding the per-segment latency
// series when tracing is enabled.
func (t *TCP) deliver(pkt *Packet) {
	f := t.stack.disp.InjectorInstalled().Fire("net.tcp.deliver")
	if f.Kind == faultinject.KindDrop || f.Kind == faultinject.KindError {
		return // injected segment loss; retransmission recovers
	}
	if tr := t.stack.disp.Tracer(); tr != nil {
		start := t.stack.clock.Now()
		defer func() {
			tr.Observe("net.tcp.deliver", t.stack.clock.Now().Sub(start))
		}()
	}
	t.deliver1(pkt)
}

func (t *TCP) deliver1(pkt *Packet) {
	key := tcpKey(pkt.Src, pkt.SrcPort, pkt.DstPort)
	var e synEntry
	var synack, accepted bool
	c := t.conns[key]
	if c == nil {
		l := t.listeners[pkt.DstPort]
		switch {
		case pkt.Flags&(FlagSYN|FlagACK) == FlagSYN:
			// A SYN to a listening port records a compact half-open entry —
			// no *Conn until the final ACK proves the peer is real.
			if l != nil {
				e, synack = t.recordSyn(key, pkt), true
			}
		case pkt.Flags&FlagACK != 0:
			// The final ACK consumes its half-open entry whatever it says. A
			// wrong acknowledgment number (the peer is confused or hostile)
			// or a listener withdrawn since the SYN leaves no connection,
			// and the segment is reset below.
			if half, ok := t.syn.get(key); ok {
				t.syn.delete(key)
				if l != nil && pkt.Ack == half.iss+1 {
					c, accepted = t.newServerConn(l, half, pkt), true
					t.put(key, c)
				}
			}
		}
	}

	if accepted {
		t.accepted++
		if c.acceptCb != nil {
			c.acceptCb(c)
		}
		if c.OnConnect != nil {
			c.OnConnect(c)
		}
	}
	switch {
	case c != nil:
		// The final ACK too: it may carry data or a FIN.
		c.handle(pkt)
	case synack:
		t.sendSynAck(pkt, e)
	case pkt.Flags&FlagRST == 0:
		t.reset(pkt)
	}
}

// recordSyn records the half-open entry for a SYN, or finds the one a
// duplicate SYN — our SYN-ACK was lost, or the client retransmitted — already
// has, so that the SYN-ACK goes out again with the original ISS.
func (t *TCP) recordSyn(key connKey, pkt *Packet) synEntry {
	e, dup := t.syn.get(key)
	if dup {
		return e
	}
	e = synEntry{rcvNxt: pkt.Seq + 1, iss: serverISS, wnd: clampU16(pkt.Window), opts: synOptsOf(pkt)}
	t.syn.put(key, e, t.stack.clock.Now())
	return e
}

// sendSynAck answers the SYN pkt from its half-open entry, with an unscaled
// window and the options the SYN offered.
func (t *TCP) sendSynAck(pkt *Packet, e synEntry) {
	synack := AllocPacket()
	synack.Src, synack.Dst, synack.Proto = t.stack.IP, pkt.Src, ProtoTCP
	synack.SrcPort, synack.DstPort = pkt.DstPort, pkt.SrcPort
	synack.Flags, synack.Seq, synack.Ack, synack.Window = FlagSYN|FlagACK, e.iss, e.rcvNxt, maxUnscaledWindow
	e.opts.offer(synack)
	synack.TTL = 32
	_ = t.stack.SendIP(synack)
}

// newServerConn builds the connection for a half-open entry whose final ACK
// arrived — the first point a server-side *Conn exists. The accept callback
// is on the Conn before it enters the table, so no delivery can reach a
// connection without it.
func (t *TCP) newServerConn(l *Listener, e synEntry, pkt *Packet) *Conn {
	c := &Conn{
		tcp:    t,
		remote: pkt.Src, localPort: pkt.DstPort, remotePort: pkt.SrcPort,
		cwnd: initialWindow, ssthresh: 16,
		sndWnd: uint32(e.wnd), sndWL1: e.rcvNxt - 1, sndWL2: e.iss + 1,
		delivery: l.cost,
		sndUna:   e.iss + 1, sndNxt: e.iss + 1, recover: e.iss,
		rcvNxt:   e.rcvNxt,
		opts:     e.opts,
		acceptCb: l.accept,
	}
	c.setState(StateEstablished)
	return c
}

// reset sends RST for an unexpected segment, in the two RFC 793 forms: a
// segment carrying an ACK is refuted with Seq = its ACK number; a segment
// without one (a bare SYN to a closed port) gets Seq 0 plus an ACK of
// everything it occupied, so the peer can match the RST to its send.
func (t *TCP) reset(pkt *Packet) {
	t.resets++
	rst := AllocPacket()
	rst.Src, rst.Dst, rst.Proto = t.stack.IP, pkt.Src, ProtoTCP
	rst.SrcPort, rst.DstPort = pkt.DstPort, pkt.SrcPort
	rst.TTL = 32
	if pkt.Flags&FlagACK != 0 {
		rst.Flags = FlagRST
		rst.Seq = pkt.Ack
	} else {
		seglen := uint32(len(pkt.Payload))
		if pkt.Flags&FlagSYN != 0 {
			seglen++
		}
		if pkt.Flags&FlagFIN != 0 {
			seglen++
		}
		rst.Flags = FlagRST | FlagACK
		rst.Seq = 0
		rst.Ack = pkt.Seq + seglen
	}
	_ = t.stack.SendIP(rst)
}

// handle runs the per-connection state machine for one segment.
func (c *Conn) handle(pkt *Packet) {
	c.delivery(c.tcp.stack.clock, pkt)
	if c.State() == StateSynSent {
		c.handleSynSent(pkt)
		return
	}
	if pkt.Flags&FlagRST != 0 {
		// RFC 5961 §3.2: a RST is believed at exactly RCV.NXT, challenged
		// with an ACK elsewhere in the window, and dropped outside it.
		if d := pkt.Seq - c.rcvNxt; d == 0 {
			c.teardown()
		} else if d < c.rcvWnd() {
			c.sendAck()
		}
		return
	}
	if pkt.Flags&FlagACK != 0 && !c.onAck(pkt) {
		return
	}
	if len(pkt.Payload) > 0 {
		c.onData(pkt)
	}
	if pkt.Flags&FlagFIN != 0 {
		c.onFIN(pkt)
	}
}

// handleSynSent takes the answer to our SYN: the SYN-ACK, or a RST, which
// counts only if it acknowledges the SYN (RFC 793 §3.9).
func (c *Conn) handleSynSent(pkt *Packet) {
	if pkt.Flags&FlagACK == 0 || pkt.Ack != c.sndNxt {
		return
	}
	if pkt.Flags&FlagRST != 0 {
		c.teardown()
		return
	}
	if pkt.Flags&FlagSYN == 0 {
		return
	}
	c.sndUna = pkt.Ack
	c.rcvNxt = pkt.Seq + 1
	// The advertised window is taken at face value, unscaled as a SYN's
	// always is — including zero. A zero window pauses pump(), and the
	// persist probe in onRetxTimer keeps testing for it to reopen.
	c.sndWnd, c.sndWL1, c.sndWL2 = uint32(clampU16(pkt.Window)), pkt.Seq, pkt.Ack
	c.opts = synOptsOf(pkt)
	c.setState(StateEstablished)
	c.retxAttempts = 0
	c.cancelRetx()
	c.sendAck()
	if c.OnConnect != nil {
		c.OnConnect(c)
	}
	c.pump()
}

// sendAck sends a bare ACK of everything received in order so far.
func (c *Conn) sendAck() { c.sendSeg(c.seg(FlagACK, c.sndNxt, c.rcvNxt, nil, nil)) }

// onAck processes an acknowledgment and reports whether the segment
// carrying it is acceptable. An ACK for data never sent (RFC 793 §3.9:
// SEG.ACK > SND.NXT) is answered with an ACK and the whole segment dropped.
func (c *Conn) onAck(pkt *Packet) bool {
	ack := pkt.Ack
	if int32(ack-c.sndNxt) > 0 {
		c.sendAck()
		return false
	}
	if int32(ack-c.sndUna) < 0 {
		return true // older than what we know, its window included
	}
	// RFC 5681 §2: a duplicate ACK repeats SND.UNA while data is
	// outstanding and carries nothing else, no data, SYN, FIN or new window.
	dup := ack == c.sndUna && len(c.inflight) > 0 && len(pkt.Payload) == 0 && pkt.Flags&(FlagSYN|FlagFIN) == 0
	if d := int32(pkt.Seq - c.sndWL1); d > 0 || d == 0 && int32(ack-c.sndWL2) >= 0 {
		// The peer's shift is 0 unless both SYNs offered scaling.
		wnd := uint32(clampU16(pkt.Window)) << (c.opts & optsShift)
		dup = dup && wnd == c.sndWnd
		c.sndWnd, c.sndWL1, c.sndWL2 = wnd, pkt.Seq, ack
	}
	if ack == c.sndUna {
		c.takeSACK(pkt)
		switch {
		case c.sackOK() && c.loss != nil:
			c.rackDetect()
			c.pump()
		case dup && !c.sackOK():
			c.onDupAck()
		}
		return true
	}

	// Forward progress: the peer is alive, so the retransmission cap
	// restarts from scratch for whatever is still outstanding.
	c.sndUna = ack
	c.retxAttempts, c.dupAcks = 0, 0
	n, finAcked := c.takeCumAck(ack)
	c.takeSACK(pkt)
	// The probe timer runs from the newest transmission, which an ACK of
	// older data does not move; every other timer restarts.
	if len(c.inflight) == 0 {
		c.cancelRetx()
	} else if c.timer != timerPTO || !c.retx.Armed() || !c.probeAllowed() {
		c.restartRetx()
	}
	c.endProbe(ack)
	// An ACK short of recover is partial (never so in phaseOpen, where
	// recover is behind SND.UNA). Without SACK it deflates the window that
	// duplicate ACKs inflated, by what was acknowledged less the segment
	// about to go out, and marks the hole it uncovers lost (RFC 6582 §3.2;
	// the same after a timeout); with SACK, RACK finds the holes. An ACK of
	// recover ends recovery at ssthresh.
	full := int32(ack-c.recover) >= 0
	switch {
	case c.phase != phaseRecovery:
		c.grow(n)
	case full:
		c.cwnd, c.caAcked = c.ssthresh, 0
	case !c.sackOK():
		c.cwnd = uint16(max(int(c.cwnd)-n, 0) + 1)
	}
	switch {
	case full:
		c.endRecovery()
	case !c.sackOK():
		c.markLost(0)
	}
	if finAcked {
		switch c.State() {
		case StateFinWait1:
			c.setState(StateFinWait2)
		case StateLastAck:
			c.teardown()
			return true
		}
	}
	c.rackDetect()
	c.pump()
	if c.OnSent != nil && !c.closed && c.Buffered() <= SendBufSize/2 {
		c.OnSent(c)
	}
	return true
}

// takeCumAck drops the segments ack covers, and reports how many and
// whether the FIN was among them. The newest of them times the round trip,
// unless any was sent twice (Karn) or is timed already by the SACK that
// reported it.
func (c *Conn) takeCumAck(ack uint32) (n int, finAcked bool) {
	now := c.tcp.stack.clock.Now()
	acked, clean, timed := 0, true, -1
	for ; n < len(c.inflight) && int32(c.inflight[n].end()-ack) <= 0; n++ {
		s := c.inflight[n]
		acked += int(s.n)
		finAcked = finAcked || s.bits&segFIN != 0
		clean = clean && s.bits&segRexmit == 0
		if s.bits&segSacked == 0 {
			timed = n
		}
		if c.loss != nil {
			c.delivered(s, now)
		}
	}
	if timed >= 0 && clean {
		c.sampleRTT(now.Sub(c.inflight[timed].at))
	}
	c.inflight = c.inflight[:copy(c.inflight, c.inflight[n:])]
	c.sent -= uint32(acked)
	c.head, c.queued = c.ringAt(uint32(acked)), c.queued-uint32(acked)
	if c.queued == 0 {
		c.head = 0
	}
	return n, finAcked
}

// grow opens the congestion window for n newly acknowledged segments: a
// segment for each below ssthresh (slow start), a segment for each
// window's worth of them above it (congestion avoidance, RFC 5681 §3.1).
func (c *Conn) grow(n int) {
	for ; n > 0; n-- {
		if c.cwnd < c.ssthresh {
			c.cwnd++
		} else if c.caAcked++; uint16(c.caAcked) >= c.cwnd {
			c.caAcked = 0
			c.cwnd = min(c.cwnd+1, maxCwnd)
		}
	}
}

// onDupAck counts a duplicate ACK from a peer without SACK, which says
// only that one more segment left the network. The third marks the head
// lost and starts recovery (RFC 5681 §3.2) unless it only echoes an earlier
// recovery's retransmissions (RFC 6582 §3.2, step 2); inside recovery each
// one inflates cwnd by the segment that left, which stands in for the pipe
// a SACK scoreboard would have shrunk.
func (c *Conn) onDupAck() {
	switch c.phase {
	case phaseRecovery:
		c.cwnd = min(c.cwnd+1, maxCwnd)
		c.pump()
	case phaseOpen:
		// (A count that wraps round to three again finds SND.UNA where it
		// was, and the same answer.)
		if c.dupAcks++; c.dupAcks == dupAckThreshold && int32(c.sndUna-c.recover) > 0 {
			c.startRecovery()
			c.markLost(0)
			c.pump()
		}
	}
}

// onData takes a segment's payload. The in-order case, with nothing queued
// ahead of it, is the whole steady state.
func (c *Conn) onData(pkt *Packet) {
	if x := c.loss; pkt.Seq != c.rcvNxt || x != nil && (len(x.runs) > 0 || x.fin) {
		c.onDataOutOfOrder(pkt)
		return
	}
	c.deliver(pkt.Payload)
	c.sendAck()
}

// onDataOutOfOrder is onData in general: the payload may start before
// RCV.NXT (the part already delivered is trimmed, and reported as a
// duplicate), at it (delivered, and whatever it joins up with in the queue
// behind it), or after it (queued). Every case is answered at once with an
// ACK of RCV.NXT: a duplicate if the segment left a hole, carrying the
// queue's SACK blocks, and one covering everything when the hole has
// filled.
func (c *Conn) onDataOutOfOrder(pkt *Packet) {
	seq, p := pkt.Seq, pkt.Payload
	if old := int32(c.rcvNxt - seq); old > 0 {
		dup := min(int(old), len(p))
		c.reportDuplicate(seq, seq+uint32(dup))
		seq, p = c.rcvNxt, p[dup:]
	}
	switch {
	case len(p) == 0:
	case seq == c.rcvNxt:
		c.deliver(p)
		c.drainOOO()
	default:
		c.queueOOO(pkt)
	}
	c.sendAck()
	if x := c.loss; x != nil && x.fin && x.finSeq == c.rcvNxt {
		c.takeFIN()
	}
}

// reportDuplicate has the next ACK open with a D-SACK block for [start,
// end), sequence space that arrived twice (RFC 2883), if the peer reads
// SACK blocks.
func (c *Conn) reportDuplicate(start, end uint32) {
	if c.sackOK() && start != end {
		c.lossState().dsack = seqRange{start, end}
	}
}

// deliver hands the next in-order bytes to the application.
func (c *Conn) deliver(p []byte) {
	c.rcvNxt += uint32(len(p))
	if c.OnData != nil {
		c.OnData(c, p)
	}
}

// lossState is what only a connection that met loss or reordering needs,
// made the first time it does: on the receive side the out-of-order queue
// and the D-SACK to report, on the send side the SACK scoreboard's totals
// and the RACK-TLP state (tcp_rack.go).
//
// The out-of-order queue holds the segments that arrived ahead of RCV.NXT,
// kept so that the segment that fills the hole releases them all and the
// sender resends only what was lost. Each is kept as the packet it arrived
// in, retained, so queueing copies nothing. A segment reaching past the
// advertised window is dropped, and so is one that would make the queue
// hold more than maxOOOPackets packets or track more than maxOOORuns
// separate runs, so that a peer dribbling one-byte segments with gaps can
// grow neither the queue nor its bookkeeping. All three are within what the
// sender was told: it retransmits.
type lossState struct {
	// ooo are the queued packets, in sequence order.
	ooo []*Packet
	// runs are the queued byte ranges, ascending, disjoint and not
	// touching: the index the SACK blocks are read from.
	runs []seqRange
	// fin records a FIN that arrived ahead of a hole, at finSeq.
	fin    bool
	finSeq uint32
	// newest is where the segment queued last starts: the run holding it
	// is the first SACK block (RFC 2018 §4).
	newest uint32
	// dsack is a duplicate the next ACK reports first (RFC 2883); empty
	// when start == end.
	dsack seqRange

	// The sender's scoreboard: the sequence space of the inflight segments
	// marked sacked and lost, and how many are sacked.
	sacked, lost uint32
	sackedSegs   uint16

	rack rackState
}

type seqRange struct{ start, end uint32 }

const (
	maxOOORuns = 32
	// maxOOOPackets is two windows of full-sized segments.
	maxOOOPackets = 2 * rcvWindow / DefaultMSS
)

// lossState returns the connection's loss state, made on first use. RACK
// starts out counting what is acknowledged as delivered.
func (c *Conn) lossState() *lossState {
	if c.loss == nil {
		c.loss = &lossState{rack: rackState{fack: c.sndUna, end: c.sndUna, reoMult: 1,
			minRTT: sim.Duration(c.srtt) * sim.Microsecond}}
	}
	return c.loss
}

// queueOOO keeps pkt, whose payload starts ahead of RCV.NXT. A segment all
// of whose bytes one run holds already is reported as a duplicate instead.
func (c *Conn) queueOOO(pkt *Packet) {
	seq := pkt.Seq
	end := seq + uint32(len(pkt.Payload))
	if end-c.rcvNxt > c.rcvWnd() {
		return
	}
	q := c.lossState()
	if q.runs == nil {
		q.runs = make([]seqRange, 0, maxOOORuns)
	}
	// The runs from i up to j overlap or touch [seq, end): they merge.
	i := 0
	for i < len(q.runs) && int32(q.runs[i].end-seq) < 0 {
		i++
	}
	j := i
	for j < len(q.runs) && int32(q.runs[j].start-end) <= 0 {
		j++
	}
	if r := q.runs[i:j]; len(r) == 1 && int32(seq-r[0].start) >= 0 && int32(end-r[0].end) <= 0 {
		c.reportDuplicate(seq, end)
		q.newest = seq
		return
	}
	if len(q.ooo) == maxOOOPackets || i == j && len(q.runs) == maxOOORuns {
		return
	}
	if i == j {
		q.runs = slices.Insert(q.runs, i, seqRange{seq, end})
	} else {
		r := &q.runs[i]
		if int32(seq-r.start) < 0 {
			r.start = seq
		}
		if r.end = q.runs[j-1].end; int32(end-r.end) > 0 {
			r.end = end
		}
		q.runs = slices.Delete(q.runs, i+1, j)
	}
	q.newest = seq
	k := len(q.ooo)
	for k > 0 && int32(q.ooo[k-1].Seq-seq) > 0 {
		k--
	}
	q.ooo = slices.Insert(q.ooo, k, hold(pkt))
}

// hold keeps a delivered packet past its delivery: a pooled one by one more
// reference, any other as a pooled copy, since its owner may reuse it.
func hold(p *Packet) *Packet {
	if p.pooled {
		return p.Retain()
	}
	return p.Clone()
}

// drainOOO delivers every queued run RCV.NXT has reached, each packet's
// bytes from RCV.NXT on, and releases the packets. A run that RCV.NXT has
// passed arrived twice, in part: that part is reported.
func (c *Conn) drainOOO() {
	q := c.loss
	for q != nil && q == c.loss && len(q.runs) > 0 && int32(q.runs[0].start-c.rcvNxt) <= 0 {
		r := q.runs[0]
		q.runs = slices.Delete(q.runs, 0, 1)
		if int32(r.start-c.rcvNxt) < 0 {
			end := r.end
			if int32(end-c.rcvNxt) > 0 {
				end = c.rcvNxt
			}
			c.reportDuplicate(r.start, end)
		}
		for q == c.loss && len(q.ooo) > 0 && int32(q.ooo[0].Seq-r.end) < 0 {
			p := q.ooo[0]
			q.ooo = slices.Delete(q.ooo, 0, 1)
			if off := c.rcvNxt - p.Seq; int(off) < len(p.Payload) {
				c.deliver(p.Payload[off:])
			}
			p.Release()
		}
	}
}

// fillSACK writes the SACK blocks an ACK carries (RFC 2018 §4): a pending
// D-SACK first (RFC 2883), reported once; then the run holding the newest
// segment; then the rest from the highest down, which in a stream are the
// ones that grew most recently. A FIN queued ahead of a hole counts as the
// sequence number it occupies.
func (q *lossState) fillSACK(p *Packet) {
	add := func(start, end uint32) {
		if p.NumSACK < MaxSACKBlocks {
			p.SACK[p.NumSACK] = SACKBlock{start, end}
			p.NumSACK++
		}
	}
	block := func(r seqRange) {
		if q.fin && q.finSeq == r.end {
			r.end++
		}
		add(r.start, r.end)
	}
	if q.dsack.start != q.dsack.end {
		add(q.dsack.start, q.dsack.end)
		q.dsack = seqRange{}
	}
	first := -1
	for i, r := range q.runs {
		if int32(q.newest-r.start) >= 0 && int32(q.newest-r.end) < 0 {
			first = i
			block(r)
		}
	}
	if last := len(q.runs) - 1; q.fin && (last < 0 || q.runs[last].end != q.finSeq) {
		add(q.finSeq, q.finSeq+1)
	}
	for i := len(q.runs) - 1; i >= 0; i-- {
		if i != first {
			block(q.runs[i])
		}
	}
}

// onFIN handles the FIN flag of a segment whose payload has been taken. A
// FIN is processed in sequence like any other octet (RFC 793 §3.9): one
// ahead of a hole waits in the queue, and one already taken, resent
// because our ACK was lost, is acknowledged again.
func (c *Conn) onFIN(pkt *Packet) {
	seq := pkt.Seq + uint32(len(pkt.Payload))
	switch d := int32(seq - c.rcvNxt); {
	case d == 0:
		c.takeFIN()
		return
	case d > 0 && uint32(d) < c.rcvWnd():
		q := c.lossState()
		q.fin, q.finSeq = true, seq
	}
	if len(pkt.Payload) == 0 {
		c.sendAck() // the payload's ACK said the same
	}
}

// takeFIN consumes the peer's FIN at RCV.NXT.
func (c *Conn) takeFIN() {
	c.rcvNxt++
	if c.loss != nil {
		c.loss.fin = false
	}
	c.sendAck()
	switch c.State() {
	case StateEstablished:
		c.setState(StateCloseWait)
		if c.OnClose != nil {
			c.OnClose(c)
		}
	case StateFinWait1, StateFinWait2:
		// FIN_WAIT_1 here is a simultaneous close, taken as FIN_WAIT_2's.
		c.setState(StateTimeWait)
		c.startTimeWait()
	}
}

func (c *Conn) startTimeWait() {
	// Nobody cancels TIME_WAIT (teardown of a closed connection does
	// nothing), so it rides in a recycled event, not one more timer in
	// every Conn.
	s := c.tcp.stack
	s.engine.Post(s.clock.Now().Add(timeWaitDelay), teardownPosted, c, nil, 0)
}

func teardownPosted(c, _ any, _ int) { c.(*Conn).teardown() }

// teardown removes the connection from the demultiplexing table.
func (c *Conn) teardown() {
	if c.State() == StateClosed {
		return
	}
	c.cancelRetx()
	if c.loss != nil {
		for _, p := range c.loss.ooo {
			p.Release()
		}
		c.loss = nil
	}
	prev := c.State()
	c.setState(StateClosed)
	t := c.tcp
	delete(t.conns, tcpKey(c.remote, c.remotePort, c.localPort))
	// Drained send-buffer storage goes to the next connection. Packets copy
	// what they carry, so nothing else holds it.
	if n := len(c.sendBuf); c.Buffered() == 0 && n > 0 && n <= maxSpareSendBuf && len(t.spareSendBufs) < maxSpareSendBufs {
		t.spareSendBufs = append(t.spareSendBufs, c.sendBuf)
		c.sendBuf = nil
	}
	if c.OnClose != nil && prev != StateCloseWait {
		c.OnClose(c)
	}
}

// Conns reports the number of live connections.
func (t *TCP) Conns() int { return len(t.conns) }

// Unsettled counts the live connections holding out-of-order data and those
// with the retransmit timer running. On a topology run until nothing is
// left to happen, either is a leak. It reads every connection's state, so it
// is for tests and debuggers.
func (t *TCP) Unsettled() (queued, armed int) {
	for _, c := range t.conns {
		if q := c.loss; q != nil && (len(q.runs) > 0 || q.fin) {
			queued++
		}
		if c.retx.Armed() {
			armed++
		}
	}
	return queued, armed
}

// Metrics emits the module's table sizes and counters, including why
// segments were retransmitted.
func (t *TCP) Metrics(emit metrics.Emit) {
	emit("net_tcp_conns", float64(len(t.conns)))                // from SYN_SENT or the final ACK to teardown
	emit("net_tcp_half_open", float64(t.syn.len()))             // awaiting their final ACK
	emit("net_tcp_half_open_evicted", float64(t.syn.evicted))   // dropped by the bounded table, by TTL or age
	emit("net_tcp_accepted", float64(t.accepted))               // materialized by a final ACK
	emit("net_tcp_resets", float64(t.resets))                   // RSTs sent for unexpected segments
	emit("net_tcp_timed_out", float64(t.timedOut))              // torn down by the retransmission cap
	emit("net_tcp_fast_recoveries", float64(t.fastRecoveries))  // entered on a loss RACK or duplicate ACKs found
	emit("net_tcp_rack_marked_lost", float64(t.rackMarkedLost)) // something sent after them arrived
	emit("net_tcp_tlp_probes", float64(t.tlpProbes))            // tail-loss probes sent
	emit("net_tcp_rtos", float64(t.rtos))                       // retransmission timeouts, SYN included
	emit("net_tcp_dsacks_received", float64(t.dsacksReceived))  // the peer got a segment twice
}
