package vnet

import (
	"bytes"
	"fmt"

	"spin"
	"spin/internal/bcode"
	"spin/internal/netstack"
	"spin/internal/sim"
	"spin/internal/strand"
)

// DemoPeer is one of the demo star's machines besides the primary.
type DemoPeer struct {
	Name string
	IP   netstack.IPAddr
}

// DemoStar boots the topology the demo commands (spin-dbg, spin-httpd)
// share: primary (10.0.0.2, two virtual CPUs) and peers on switch s0 over
// 100 µs edges, dnsHost publishing primary as <label>.spin.test, and a
// "ttl-guard" XDP program on primary dropping TTL-expired packets.
func DemoStar(primary, dnsHost, label string, peers ...DemoPeer) (*Internet, error) {
	edge := LinkModel{Latency: 100 * sim.Microsecond}
	b := NewBuilder(1).
		MachineCfg(primary, spin.Config{IP: netstack.Addr(10, 0, 0, 2), CPUs: 2}).
		Switch("s0").
		Link(primary, "s0", edge)
	for _, p := range peers {
		b.Machine(p.Name, p.IP).Link(p.Name, "s0", edge)
	}
	in, err := b.Build()
	if err != nil {
		return nil, err
	}
	if err := in.EnableDNS(dnsHost); err != nil {
		return nil, err
	}
	if err := in.AddName(label, primary); err != nil {
		return nil, err
	}
	_, err = in.Machine(primary).Stack.AttachXDP("ttl-guard", bcode.New(
		bcode.LdCtx(3, netstack.CtxTTL),
		bcode.JeqImm(3, 0, 2),
		bcode.MovImm(0, 0),
		bcode.Exit(),
		bcode.MovImm(0, 1),
		bcode.Exit(),
	))
	return in, err
}

// RunDemoStrands runs the demo commands' strand workload on m: 8 workers
// homed on CPU 0, so the idle second CPU steals and migrates.
func RunDemoStrands(m *spin.Machine) {
	for i := 0; i < 8; i++ {
		m.Sched.Start(m.Sched.NewStrandOn(fmt.Sprintf("worker-%d", i), 1, 0, func(s *strand.Strand) {
			for k := 0; k < 16; k++ {
				s.Exec(5 * sim.Microsecond)
				s.Yield()
			}
		}))
	}
	m.Sched.Run()
}

// Conversation is one cross-machine TCP transfer for the harness: From
// connects to To on Port and streams Bytes of a deterministic pattern; the
// server side verifies every byte as it arrives.
type Conversation struct {
	From, To string
	Port     uint16
	Bytes    int
	// Chunk is the application write size (default 4096).
	Chunk int
}

// ConvResult is one conversation's outcome.
type ConvResult struct {
	From, To string
	Port     uint16
	// Received counts verified in-order bytes at the server.
	Received int
	// Complete reports the full payload arrived before the deadline.
	Complete bool
	// Corrupt reports a byte arrived that did not match the pattern —
	// must never happen, whatever the links did.
	Corrupt bool
	// Retransmits is the client connection's retransmission count.
	Retransmits int64
}

// pattern is the deterministic payload byte at offset off of conversation
// idx — cheap to generate on both sides, position-sensitive so swapped or
// duplicated-into-stream bytes are caught.
func pattern(idx, off int) byte { return byte(idx*31 + off*7 + 11) }

// payload is two periods of one conversation's pattern (its period in off
// is 256), so the 256 bytes from any stream offset are one window of it and
// both sides work a run at a time instead of a byte at a time.
type payload [512]byte

func newPayload(idx int) *payload {
	p := new(payload)
	for off := range p {
		p[off] = pattern(idx, off)
	}
	return p
}

// fill writes the stream's bytes from offset off into dst.
func (p *payload) fill(dst []byte, off int) {
	for len(dst) > 0 {
		n := copy(dst, p[off&255:][:256])
		dst, off = dst[n:], off+n
	}
}

// receive checks b, the next bytes of the stream, against the pattern —
// every byte, whatever sizes the stream arrives split into — and reports
// whether this delivery completed a payload of total bytes.
func (r *ConvResult) receive(p *payload, b []byte, total int) bool {
	for len(b) > 0 {
		n := min(len(b), 256)
		if !bytes.Equal(b[:n], p[r.Received&255:][:n]) {
			r.Corrupt = true
		}
		b, r.Received = b[n:], r.Received+n
	}
	if r.Received < total || r.Complete {
		return false
	}
	r.Complete = true
	return true
}

// RunConversations drives convs over the topology until every transfer
// completes or the earliest pending event passes deadline (0 = drain).
// Conversations with Port 0 get distinct ports from 4000 up. The returned
// results are in convs order; err is non-nil only for harness misuse
// (unknown machine), never for lost traffic.
func RunConversations(in *Internet, convs []Conversation, deadline sim.Time) ([]ConvResult, error) {
	results := make([]ConvResult, len(convs))
	done := 0
	for i := range convs {
		c := convs[i]
		if c.Port == 0 {
			c.Port = uint16(4000 + i)
		}
		if c.Chunk <= 0 {
			c.Chunk = 4096
		}
		r := &results[i]
		r.From, r.To, r.Port = c.From, c.To, c.Port
		server := in.Machine(c.To)
		client := in.Machine(c.From)
		if server == nil || client == nil {
			return nil, fmt.Errorf("vnet: conversation %d: unknown machine %q or %q", i, c.From, c.To)
		}
		pat := newPayload(i)
		reader := &convReader{r: r, pat: pat, total: c.Bytes, done: &done}
		err := server.Stack.TCP().Listen(c.Port, netstack.InKernelDelivery, func(conn *netstack.Conn) {
			conn.Handler = reader
		})
		if err != nil {
			return nil, fmt.Errorf("vnet: conversation %d: listen: %w", i, err)
		}
		conn, err := client.Stack.TCP().Connect(server.Stack.IP, c.Port, netstack.InKernelDelivery)
		if err != nil {
			return nil, fmt.Errorf("vnet: conversation %d: connect: %w", i, err)
		}
		conn.Handler = &convWriter{pat: pat, buf: make([]byte, c.Chunk), total: c.Bytes}
		rr := r
		cc := conn
		defer func() { rr.Retransmits = cc.Retransmits() }()
	}
	in.RunUntil(func() bool { return done == len(convs) }, deadline)
	return results, nil
}

// convReader is a conversation's server end: it checks the stream as it
// arrives and counts the conversation done once it is whole.
type convReader struct {
	r     *ConvResult
	pat   *payload
	total int
	done  *int
}

func (cr *convReader) Connected(*netstack.Conn) {}

func (cr *convReader) Received(_ *netstack.Conn, b []byte) {
	if cr.r.receive(cr.pat, b, cr.total) {
		*cr.done++
	}
}

func (cr *convReader) Sent(*netstack.Conn) {}

func (cr *convReader) Closed(*netstack.Conn) {}

// convWriter is a conversation's client end. It queues a chunk at a time
// while the send buffer has room, when it connects and again whenever ACKs
// have half emptied it.
type convWriter struct {
	pat        *payload
	buf        []byte
	off, total int
}

func (w *convWriter) Connected(c *netstack.Conn) { w.fill(c) }

func (w *convWriter) Received(*netstack.Conn, []byte) {}

func (w *convWriter) Sent(c *netstack.Conn) { w.fill(c) }

func (w *convWriter) Closed(*netstack.Conn) {}

func (w *convWriter) fill(c *netstack.Conn) {
	for w.off < w.total {
		b := w.buf[:min(len(w.buf), w.total-w.off)]
		w.pat.fill(b, w.off)
		if c.Send(b) != nil {
			return
		}
		w.off += len(b)
	}
}
