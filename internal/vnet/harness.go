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
		pat, total := newPayload(i), c.Bytes
		err := server.Stack.TCP().Listen(c.Port, netstack.InKernelDelivery, func(conn *netstack.Conn) {
			conn.OnData = func(_ *netstack.Conn, b []byte) {
				if r.receive(pat, b, total) {
					done++
				}
			}
		})
		if err != nil {
			return nil, fmt.Errorf("vnet: conversation %d: listen: %w", i, err)
		}
		conn, err := client.Stack.TCP().Connect(server.Stack.IP, c.Port, netstack.InKernelDelivery)
		if err != nil {
			return nil, fmt.Errorf("vnet: conversation %d: connect: %w", i, err)
		}
		// The writer queues a chunk at a time while the send buffer has
		// room, from OnConnect and again whenever ACKs have half emptied it.
		buf, off := make([]byte, c.Chunk), 0
		fill := func(cn *netstack.Conn) {
			for off < total {
				b := buf[:min(len(buf), total-off)]
				pat.fill(b, off)
				if cn.Send(b) != nil {
					return
				}
				off += len(b)
			}
		}
		conn.OnConnect, conn.OnSent = fill, fill
		rr := r
		cc := conn
		defer func() { rr.Retransmits = cc.Retransmits() }()
	}
	in.RunUntil(func() bool { return done == len(convs) }, deadline)
	return results, nil
}

// CheckReplay builds and drives the same scenario runs times and verifies
// every run produces an identical fingerprint — the determinism gate. It
// returns the common fingerprint.
func CheckReplay(runs int, build func() (*Internet, error), drive func(*Internet) error) (uint64, error) {
	var fp uint64
	for i := 0; i < runs; i++ {
		in, err := build()
		if err != nil {
			return 0, fmt.Errorf("vnet: replay run %d: build: %w", i, err)
		}
		if drive != nil {
			if err := drive(in); err != nil {
				return 0, fmt.Errorf("vnet: replay run %d: drive: %w", i, err)
			}
		}
		f := in.Fingerprint()
		if i == 0 {
			fp = f
		} else if f != fp {
			return 0, fmt.Errorf("vnet: replay diverged: run %d fingerprint %#x != run 0 %#x", i, f, fp)
		}
	}
	return fp, nil
}

// MatrixConfig is one cell of the conversation matrix: a star topology of
// Machines hosts whose spokes all carry Loss/Reorder, Conversations
// concurrent pairwise transfers of Bytes each, optionally partitioned
// mid-flight (one spoke flapped down and up).
type MatrixConfig struct {
	Name          string
	Machines      int
	Loss, Reorder float64
	Partition     bool
	Conversations int
	Bytes         int
	Seed          uint64
}

// Deadline is the virtual-time budget for one matrix cell: generous enough
// for lossy, partitioned transfers (the retransmission timeout starts at
// 200ms virtual and doubles), tight enough that a wedged transfer fails
// fast.
const matrixDeadline = sim.Time(120 * sim.Second)

// RunMatrixCell builds the cell's topology and drives its conversations.
// Every transfer must complete with zero corruption; the first violation is
// the returned error. The topology comes back as the conversations left it,
// for its fingerprint, its links' counters and its stacks.
func RunMatrixCell(cfg MatrixConfig) (*Internet, []ConvResult, error) {
	spoke := LinkModel{
		Latency:      200 * sim.Microsecond,
		Loss:         cfg.Loss,
		Reorder:      cfg.Reorder,
		ReorderDelay: 300 * sim.Microsecond,
	}
	in, err := Star(cfg.Machines, spoke, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	if cfg.Partition {
		// Cut host 0's spoke 1ms in — early enough that no transfer over
		// it has finished — and heal it at 600ms; TCP must ride it out.
		if err := in.FlapLink("h0~s0", sim.Time(1*sim.Millisecond), sim.Time(600*sim.Millisecond)); err != nil {
			return nil, nil, err
		}
	}
	convs := make([]Conversation, cfg.Conversations)
	for i := range convs {
		convs[i] = Conversation{
			From:  fmt.Sprintf("h%d", i%cfg.Machines),
			To:    fmt.Sprintf("h%d", (i+cfg.Machines/2)%cfg.Machines),
			Bytes: cfg.Bytes,
		}
	}
	results, err := RunConversations(in, convs, matrixDeadline)
	if err != nil {
		return nil, nil, err
	}
	for _, r := range results {
		if !r.Complete {
			return in, results, fmt.Errorf("vnet: %s: %s->%s:%d incomplete (%d/%d bytes)",
				cfg.Name, r.From, r.To, r.Port, r.Received, cfg.Bytes)
		}
		if r.Corrupt {
			return in, results, fmt.Errorf("vnet: %s: %s->%s:%d corrupted", cfg.Name, r.From, r.To, r.Port)
		}
	}
	return in, results, nil
}

// DefaultMatrix is the harness's standard sweep: loss × reorder ×
// partition × machine count, every cell a complete seeded scenario.
func DefaultMatrix() []MatrixConfig {
	var out []MatrixConfig
	for _, machines := range []int{2, 4, 8} {
		for _, loss := range []float64{0, 0.05} {
			for _, reorder := range []float64{0, 0.1} {
				out = append(out, MatrixConfig{
					Name:          fmt.Sprintf("m%d/loss%.2f/reorder%.1f", machines, loss, reorder),
					Machines:      machines,
					Loss:          loss,
					Reorder:       reorder,
					Conversations: machines / 2,
					Bytes:         16 << 10,
					Seed:          uint64(machines)*1000 + uint64(loss*100)*10 + uint64(reorder*10),
				})
			}
		}
	}
	// Partition cells: clean and lossy.
	for _, loss := range []float64{0, 0.02} {
		out = append(out, MatrixConfig{
			Name:          fmt.Sprintf("m4/partition/loss%.2f", loss),
			Machines:      4,
			Loss:          loss,
			Partition:     true,
			Conversations: 2,
			Bytes:         32 << 10,
			Seed:          7_000 + uint64(loss*100),
		})
	}
	return out
}
