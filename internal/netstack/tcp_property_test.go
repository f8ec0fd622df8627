package netstack

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"spin/internal/sal"
	"spin/internal/sim"
)

// Property: for any traffic profile — arbitrary chunk sizes, arbitrary
// moderate loss — TCP delivers every byte, in order, exactly once, in both
// directions.
func TestTCPBidirectionalIntegrityProperty(t *testing.T) {
	check := func(chunkSeeds []uint16, lossPct uint8, seed uint64) bool {
		lossRate := float64(lossPct%16) / 100 // 0-15%
		nChunks := len(chunkSeeds)
		if nChunks == 0 {
			return true
		}
		if nChunks > 12 {
			chunkSeeds = chunkSeeds[:12]
			nChunks = 12
		}
		a, b, cl := pair(t, sal.LanceModel)
		if lossRate > 0 {
			dropRX(b, lossRate, seed*2+1)
			dropRX(a, lossRate, seed*2+2)
		}
		// Build the payloads: client sends chunks; server echoes each
		// chunk back doubled.
		var sent []byte
		for i, cs := range chunkSeeds {
			size := int(cs)%2000 + 1
			chunk := make([]byte, size)
			for j := range chunk {
				chunk[j] = byte(i + j)
			}
			sent = append(sent, chunk...)
		}
		var serverGot, clientGot []byte
		_ = b.stack.TCP().Listen(80, nil, func(c *Conn) {
			on(c).received = func(c *Conn, d []byte) {
				serverGot = append(serverGot, d...)
				_ = c.Send(d) // echo
			}
		})
		conn, err := a.stack.TCP().Connect(Addr(10, 0, 0, 2), 80, nil)
		if err != nil {
			return false
		}
		on(conn).connected = func(c *Conn) {
			off := 0
			for _, cs := range chunkSeeds {
				size := int(cs)%2000 + 1
				_ = c.Send(sent[off : off+size])
				off += size
			}
		}
		on(conn).received = func(_ *Conn, d []byte) { clientGot = append(clientGot, d...) }
		done := func() bool {
			return len(serverGot) == len(sent) && len(clientGot) == len(sent)
		}
		cl.RunUntil(done, sim.Time(30*60*sim.Second))
		return bytes.Equal(serverGot, sent) && bytes.Equal(clientGot, sent)
	}
	// Once drawn, and failed: per-NIC seeds seed|1 and seed|2 are one seed
	// when seed's two low bits are set, so both ends dropped in lockstep
	// and the client's SYN used up its retransmissions.
	if !check([]uint16{0x2720, 0xb5bb, 0x7834, 0x1566, 0x0bbf, 0xf1fb, 0xbfff, 0x5932, 0x512f, 0xc20a, 0x21b5, 0x7ad2},
		0xdc, 0x5fe6312b7dc6fa7f) {
		t.Error("12% loss, seed 0x5fe6312b7dc6fa7f: streams differ")
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
