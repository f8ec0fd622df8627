package vnet

import (
	"io"
	"testing"

	"spin/internal/netstack"
	"spin/internal/sal"
	"spin/internal/sim"
)

// arrivalOf spaces test frames a microsecond apart.
func arrivalOf(i int) sim.Time { return sim.Time(1000 * (i + 1)) }

// digestOf is Link.Digests() after the given frames arrived in order, each
// folded by its hash as a frame's header sum or, asPayload, as the sum of
// its payload.
func digestOf(frames [][]byte, arrival func(i int) sim.Time, asPayload bool) uint64 {
	l := newLink("a~b", LinkModel{}, 1)
	for i, f := range frames {
		if asPayload {
			l.ab.fold(0, hashBytes(f), arrival(i))
		} else {
			l.ab.fold(hashBytes(f), 0, arrival(i))
		}
	}
	ab, _ := l.Digests()
	return ab
}

// The digest is the replay oracle of every vnet test and of the benchmark,
// so folding words four lanes at a time, and a payload by its sum, must not
// cost it anything it used to detect: for short frames on both sides of the
// word and lane boundaries and for a full-size one, folded as a header sum
// and as a payload sum, any single changed byte, a dropped or added trailing
// byte, two frames changing places and an arrival one nanosecond off each
// give a different digest.
func TestDigestSensitivity(t *testing.T) {
	lengths := []int{1514, 31, 32, 33, 63, 64, 65}
	for n := 0; n <= 24; n++ {
		lengths = append(lengths, n)
	}
	rng := sim.NewRand(14)
	for _, n := range lengths {
		frame := make([]byte, n)
		for i := range frame {
			frame[i] = byte(rng.Uint64())
		}
		// A neighbour to change places with, one byte longer so that the two
		// differ even at length 0.
		other := make([]byte, n+1)
		for i := range other {
			other[i] = byte(rng.Uint64())
		}
		for _, asPayload := range []bool{false, true} {
			digest := func(frames [][]byte, arrival func(int) sim.Time) uint64 {
				return digestOf(frames, arrival, asPayload)
			}
			base := [][]byte{other, frame}
			want := digest(base, arrivalOf)
			if again := digest(base, arrivalOf); again != want {
				t.Fatalf("len %d payload %v: the same frames digest to %#x and %#x", n, asPayload, want, again)
			}
			differs := func(what string, frames [][]byte, arrival func(int) sim.Time) {
				t.Helper()
				if got := digest(frames, arrival); got == want {
					t.Errorf("len %d payload %v: %s leaves the digest at %#x", n, asPayload, what, want)
				}
			}
			for i := range frame {
				for _, flip := range []byte{0x01, 0x80, 0xff} {
					mutated := append([]byte(nil), frame...)
					mutated[i] ^= flip
					differs("flipping a byte", [][]byte{other, mutated}, arrivalOf)
				}
			}
			if n > 0 {
				differs("dropping the last byte", [][]byte{other, frame[:n-1]}, arrivalOf)
				// A zero last byte is the case a length-blind fold would miss.
				zeroEnd := append(append([]byte(nil), frame[:n-1]...), 0)
				if got, short := digest([][]byte{other, zeroEnd}, arrivalOf), digest([][]byte{other, frame[:n-1]}, arrivalOf); got == short {
					t.Errorf("len %d payload %v: a trailing zero byte leaves the digest at %#x", n, asPayload, got)
				}
			}
			differs("appending a zero byte", [][]byte{other, append(append([]byte(nil), frame...), 0)}, arrivalOf)
			differs("swapping two frames", [][]byte{frame, other}, arrivalOf)
			differs("the second arrival 1 ns later", base, func(i int) sim.Time { return arrivalOf(i) + sim.Time(i) })
			differs("the first arrival 1 ns earlier", base, func(i int) sim.Time { return arrivalOf(i) - sim.Time(1-i) })
		}
	}

	// The same on the packet path, where a header's fields are summed on
	// every hop and a payload once: three full-size TCP segments cross a
	// link, a switch and a second link, and a change to the middle one's
	// payload, header or length changes the digest of both links. A capture,
	// the only reader of encoded header bytes, changes nothing.
	t.Run("packets over link-switch-link", func(t *testing.T) {
		crossed := []string{"h0~s0", "h1~s0"}
		run := func(change func(*netstack.Packet), capture bool) (map[string][2]uint64, uint64) {
			in, err := Star(2, LinkModel{Latency: 50 * sim.Microsecond}, 1)
			if err != nil {
				t.Fatal(err)
			}
			if capture {
				for _, name := range crossed {
					if _, err := in.CaptureLink(name, io.Discard); err != nil {
						t.Fatal(err)
					}
				}
			}
			in.Machine("h1").NICs()[0].OnReceive = func(f sal.NetFrame) bool {
				sal.ReleaseFrame(f)
				return true
			}
			nic := in.Machine("h0").NICs()[0]
			for i := range 3 {
				pkt := netstack.AllocPacket()
				pkt.Src, pkt.Dst, pkt.Proto, pkt.TTL = in.IP("h0"), in.IP("h1"), netstack.ProtoTCP, 32
				pkt.Seq, pkt.Ack, pkt.Flags = 1+1460*uint32(i), 1, netstack.FlagACK
				pkt.NumSACK, pkt.SACK[0] = 1, netstack.SACKBlock{Start: 7000, End: 9000}
				for j := range pkt.AllocPayload(1460) {
					pkt.Payload[j] = byte(i + 3*j)
				}
				if i == 1 && change != nil {
					change(pkt)
				}
				if err := nic.Send(sal.NetFrame{Size: pkt.WireSize(), Payload: pkt}); err != nil {
					t.Fatal(err)
				}
				in.Run(0)
			}
			return in.LinkDigests(), in.Fingerprint()
		}
		want, fp := run(nil, false)
		if got, capturedFP := run(nil, true); capturedFP != fp || got[crossed[0]] != want[crossed[0]] || got[crossed[1]] != want[crossed[1]] {
			t.Errorf("a capture moves the fingerprint from %#x to %#x", fp, capturedFP)
		}
		for _, c := range []struct {
			what   string
			change func(*netstack.Packet)
		}{
			{"a flipped payload byte", func(p *netstack.Packet) { p.Payload[700] ^= 0x10 }},
			{"a flipped sequence number", func(p *netstack.Packet) { p.Seq ^= 1 }},
			{"a flipped TTL", func(p *netstack.Packet) { p.TTL ^= 1 }},
			{"a flipped SACK block", func(p *netstack.Packet) { p.SACK[0].End ^= 1 }},
			{"a flipped acknowledgement number", func(p *netstack.Packet) { p.Ack ^= 1 }},
			{"a flipped window", func(p *netstack.Packet) { p.Window ^= 1 }},
			{"an added FIN flag", func(p *netstack.Packet) { p.Flags |= netstack.FlagFIN }},
			{"a flipped destination port", func(p *netstack.Packet) { p.DstPort ^= 1 }},
			{"an added payload byte", func(p *netstack.Packet) { p.SetPayload(append(p.Payload[:len(p.Payload):len(p.Payload)], 0)) }},
		} {
			got, _ := run(c.change, false)
			for _, name := range crossed {
				if got[name] == want[name] {
					t.Errorf("%s leaves link %s's digest at %#x", c.what, name, want[name])
				}
			}
		}
	})
}

// BenchmarkFrameHop reports what one link hop of a full-size frame costs
// the host, as ns/hop over host, switch, switch and host: the NIC and the
// link, the header's fields summed and folded on each hop, the payload
// summed on the first, and the switches' forwarding steps.
func BenchmarkFrameHop(b *testing.B) {
	in, err := NewBuilder(1).Machine("a", 0).Switch("s1").Switch("s2").Machine("b", 0).
		Link("a", "s1", LinkModel{}).Link("s1", "s2", LinkModel{}).Link("s2", "b", LinkModel{}).
		Build()
	if err != nil {
		b.Fatal(err)
	}
	in.Machine("b").NICs()[0].OnReceive = func(f sal.NetFrame) bool {
		sal.ReleaseFrame(f)
		return true
	}
	nic, src, dst := in.Machine("a").NICs()[0], in.IP("a"), in.IP("b")
	const hops = 3
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		pkt := netstack.AllocPacket()
		pkt.Src, pkt.Dst, pkt.Proto, pkt.TTL, pkt.Flags = src, dst, netstack.ProtoTCP, 32, netstack.FlagACK
		pkt.AllocPayload(1460)
		if err := nic.Send(sal.NetFrame{Size: pkt.WireSize(), Payload: pkt}); err != nil {
			b.Fatal(err)
		}
		in.Run(0)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*hops), "ns/hop")
}
