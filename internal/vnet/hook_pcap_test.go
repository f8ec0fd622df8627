package vnet

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"spin/internal/netstack"
	"spin/internal/sim"
)

// buildPair returns a two-machine direct-link topology.
func buildPair(t *testing.T, model LinkModel, seed uint64) *Internet {
	t.Helper()
	in, err := NewBuilder(seed).
		Machine("a", 0).Machine("b", 0).
		Link("a", "b", model).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestHookSeesLinkAndDirection: a hook on link a~b is told the link by name
// and the direction each frame travels, "a->b" for what a sends and "b->a"
// for what b sends, in both directions of one conversation.
func TestHookSeesLinkAndDirection(t *testing.T) {
	in := buildPair(t, LinkModel{Latency: 20 * sim.Microsecond}, 1)
	a, b := in.Machine("a"), in.Machine("b")
	want := map[netstack.IPAddr]string{a.Stack.IP: "a->b", b.Stack.IP: "b->a"}
	seen := map[string]int{}
	in.Link("a~b").AddHook(func(ev *FrameEvent) Verdict {
		if ev.Link != "a~b" {
			t.Errorf("hook on a~b saw Link %q", ev.Link)
		}
		if pkt, ok := ev.Frame.Payload.(*netstack.Packet); ok && ev.Dir != want[pkt.Src] {
			t.Errorf("frame from %v: Dir %q, want %q", pkt.Src, ev.Dir, want[pkt.Src])
		}
		seen[ev.Dir]++
		return Pass
	})
	b.Stack.UDP().Bind(9, nil, func(*netstack.Packet) {
		if err := b.Stack.UDP().Send(9, a.Stack.IP, 100, []byte("pong")); err != nil {
			t.Error(err)
		}
	})
	a.Stack.UDP().Bind(100, nil, func(*netstack.Packet) {})
	if err := a.Stack.UDP().Send(100, b.Stack.IP, 9, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	in.Run(0)
	if seen["a->b"] != 1 || seen["b->a"] != 1 || len(seen) != 2 {
		t.Errorf("hook saw %v, want one frame each way", seen)
	}
}

// TestHookDroppedFramesNeverReachPeer: property, across several seeds and
// drop predicates — every frame a hook drops is invisible to the peer NIC,
// and every frame it passes arrives. Checked against the NIC's own receive
// counters, not the link's bookkeeping. The faulty case puts every other
// way a direction loses or adds a frame on the same link — seeded loss and
// duplication, a down window — and checks that the direction conserves
// frames: each one the sender's NIC sent was delivered, lost, dropped while
// down or dropped by the hook, and the peer's NIC received every delivery.
func TestHookDroppedFramesNeverReachPeer(t *testing.T) {
	const n, step = 60, sim.Millisecond
	for _, row := range []struct {
		name   string
		model  LinkModel
		faulty bool
	}{
		{"ideal", LinkModel{Latency: 20 * sim.Microsecond}, false},
		{"faulty", LinkModel{Latency: 20 * sim.Microsecond, Loss: 0.2, Duplicate: 0.2}, true},
	} {
		for _, seed := range []uint64{1, 2, 77} {
			for _, modulus := range []int{2, 3, 5} {
				in := buildPair(t, row.model, seed)
				if row.faulty {
					if err := in.FlapLink("a~b", sim.Time(20*step), sim.Time(30*step)); err != nil {
						t.Fatal(err)
					}
				}
				a, b := in.Machine("a"), in.Machine("b")
				dropped := 0
				in.Link("a~b").AddHook(func(ev *FrameEvent) Verdict {
					pkt, ok := ev.Frame.Payload.(*netstack.Packet)
					if ok && pkt.Proto == netstack.ProtoUDP && len(pkt.Payload) > 0 &&
						int(pkt.Payload[0])%modulus == 0 {
						dropped++
						return Drop
					}
					return Pass
				})
				got := 0
				b.Stack.UDP().Bind(9, nil, func(*netstack.Packet) { got++ })
				for i := 0; i < n; i++ {
					payload := []byte{byte(i), byte(seed)}
					a.Engine.At(sim.Time(sim.Duration(i)*step), func() {
						if err := a.Stack.UDP().Send(100, in.IP("b"), 9, payload); err != nil {
							t.Error(err)
						}
					})
				}
				in.Run(0)
				if dropped == 0 {
					t.Fatalf("%s seed %d mod %d: predicate never matched", row.name, seed, modulus)
				}
				ab, _ := in.Link("a~b").Stats()
				sent, _, _, _ := a.NICs()[0].Stats()
				_, recv, _, _ := b.NICs()[0].Stats()
				if int(ab.HookDropped) != dropped {
					t.Errorf("%s: link counted %d hook drops, hook made %d", row.name, ab.HookDropped, dropped)
				}
				if sent != n {
					t.Errorf("%s seed %d mod %d: sender NIC sent %d frames, want %d", row.name, seed, modulus, sent, n)
				}
				if fates := ab.Delivered - ab.Duplicated + ab.Lost + ab.Down + ab.HookDropped; sent != fates {
					t.Errorf("%s seed %d mod %d: sent %d, but delivered-duplicated+lost+down+hook = %d (%+v)",
						row.name, seed, modulus, sent, fates, ab)
				}
				if recv != ab.Delivered {
					t.Errorf("%s seed %d mod %d: peer NIC saw %d frames, link delivered %d",
						row.name, seed, modulus, recv, ab.Delivered)
				}
				if got != int(recv) {
					t.Errorf("%s seed %d mod %d: delivered %d datagrams, peer NIC saw %d frames",
						row.name, seed, modulus, got, recv)
				}
				if row.faulty {
					if ab.Lost == 0 || ab.Down == 0 || ab.Duplicated == 0 {
						t.Errorf("seed %d mod %d: a fault never fired (%+v)", seed, modulus, ab)
					}
				} else if int(recv) != n-dropped {
					t.Errorf("seed %d mod %d: peer NIC saw %d frames, want %d sent - %d dropped",
						seed, modulus, recv, n, dropped)
				}
			}
		}
	}
}

// TestHookAlterPreservesWireParity: altering a frame in a hook is
// wire-identical to the sender having sent the altered bytes — the digests
// of the hooked link and of every link after it (computed from encoded wire
// bytes post-hook) and the peer's view must match a run where the source
// sent the altered payload directly. On a three-link path the hook sits on
// the second link, so the first has already summed the payload it alters in
// place: the sum must not survive the hook, and the first link, which saw
// the bytes before the hook, must tell the two runs apart.
func TestHookAlterPreservesWireParity(t *testing.T) {
	const n = 30
	for _, row := range []struct {
		name         string
		build        func() *Internet
		hooked       string
		same, differ []string
	}{
		{"one link", func() *Internet {
			return buildPair(t, LinkModel{Latency: 20 * sim.Microsecond}, 9)
		}, "a~b", []string{"a~b"}, nil},
		{"three links", func() *Internet {
			edge := LinkModel{Latency: 20 * sim.Microsecond}
			in, err := NewBuilder(9).Machine("a", 0).Switch("s1").Switch("s2").Machine("b", 0).
				Link("a", "s1", edge).Link("s1", "s2", edge).Link("s2", "b", edge).
				Build()
			if err != nil {
				t.Fatal(err)
			}
			return in
		}, "s1~s2", []string{"s1~s2", "s2~b"}, []string{"a~s1"}},
	} {
		run := func(alterInHook bool) (map[string][2]uint64, []byte) {
			in := row.build()
			a, b := in.Machine("a"), in.Machine("b")
			if alterInHook {
				in.Link(row.hooked).AddHook(func(ev *FrameEvent) Verdict {
					if pkt, ok := ev.Frame.Payload.(*netstack.Packet); ok &&
						pkt.Proto == netstack.ProtoUDP && len(pkt.Payload) > 0 {
						pkt.Payload[0] ^= 0xAA
					}
					return Pass
				})
			}
			var seen []byte
			b.Stack.UDP().Bind(9, nil, func(pkt *netstack.Packet) {
				seen = append(seen, pkt.Payload...)
			})
			for i := 0; i < n; i++ {
				payload := []byte{byte(i), byte(i * 3)}
				if !alterInHook {
					payload[0] ^= 0xAA // sender applies the same mutation
				}
				if err := a.Stack.UDP().Send(100, in.IP("b"), 9, payload); err != nil {
					t.Fatal(err)
				}
				in.Run(0)
			}
			return in.LinkDigests(), seen
		}
		dHook, seenHook := run(true)
		dSrc, seenSrc := run(false)
		for _, name := range row.same {
			if dHook[name] != dSrc[name] {
				t.Errorf("%s: link %s's digest differs: hook-altered %#x vs source-altered %#x", row.name, name, dHook[name], dSrc[name])
			}
		}
		for _, name := range row.differ {
			if dHook[name] == dSrc[name] {
				t.Errorf("%s: link %s, before the hook, reads %#x in both runs", row.name, name, dHook[name])
			}
		}
		if !bytes.Equal(seenHook, seenSrc) {
			t.Errorf("%s: peer payloads differ between hook-altered and source-altered runs", row.name)
		}
	}
}

// TestHookDelay: ExtraDelay added by a hook pushes arrivals out in virtual
// time without touching any CPU clock.
func TestHookDelay(t *testing.T) {
	in := buildPair(t, LinkModel{}, 3)
	a, b := in.Machine("a"), in.Machine("b")
	const holdup = 7 * sim.Millisecond
	in.Link("a~b").AddHook(func(ev *FrameEvent) Verdict {
		ev.ExtraDelay += holdup
		return Pass
	})
	var arrival sim.Time
	b.Stack.UDP().Bind(9, nil, func(*netstack.Packet) { arrival = b.Clock.Now() })
	if err := a.Stack.UDP().Send(100, in.IP("b"), 9, []byte{1}); err != nil {
		t.Fatal(err)
	}
	in.Run(0)
	if arrival < sim.Time(holdup) {
		t.Errorf("arrival at %v, before the %v hook delay", arrival, holdup)
	}
}

// goldenScenario drives the fixed capture workload: a clean two-machine
// link, three UDP datagrams and a ping, seed 1000 — fully deterministic.
func goldenScenario(t *testing.T, w *bytes.Buffer) *Capture {
	t.Helper()
	in := buildPair(t, LinkModel{Latency: 50 * sim.Microsecond}, 1000)
	cap, err := in.CaptureLink("a~b", w)
	if err != nil {
		t.Fatal(err)
	}
	a, b := in.Machine("a"), in.Machine("b")
	b.Stack.UDP().Bind(9, nil, func(*netstack.Packet) {})
	for i := 0; i < 3; i++ {
		if err := a.Stack.UDP().Send(100, in.IP("b"), 9, []byte{byte(i), 0xBE, 0xEF}); err != nil {
			t.Fatal(err)
		}
		in.Run(0)
	}
	if err := a.Stack.Ping(in.IP("b"), 1, 8, nil); err != nil {
		t.Fatal(err)
	}
	in.Run(0)
	return cap
}

// TestPCAPGoldenFile: the capture of the fixed scenario must match the
// checked-in fixture byte for byte. Regenerate with -update after an
// intentional format or scenario change.
var updateGolden = os.Getenv("UPDATE_GOLDEN") != ""

func TestPCAPGoldenFile(t *testing.T) {
	var buf bytes.Buffer
	cap := goldenScenario(t, &buf)
	if cap.Err() != nil {
		t.Fatal(cap.Err())
	}
	// 3 datagrams + ping request + ping reply.
	if cap.Records() != 5 {
		t.Fatalf("captured %d records, want 5", cap.Records())
	}
	golden := filepath.Join("testdata", "golden.pcap")
	if updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing fixture (run with UPDATE_GOLDEN=1 to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("capture diverged from fixture: got %d bytes, fixture %d bytes", buf.Len(), len(want))
	}
}

// TestPCAPFormat validates the writer against the classic pcap layout:
// little-endian magic, version 2.4, snaplen, Ethernet linktype, and
// per-record headers whose lengths and microsecond timestamps are
// consistent with the frames written.
func TestPCAPFormat(t *testing.T) {
	var buf bytes.Buffer
	goldenScenario(t, &buf)
	b := buf.Bytes()
	if len(b) < pcapHdrLen {
		t.Fatalf("capture too short: %d bytes", len(b))
	}
	if magic := binary.LittleEndian.Uint32(b[0:4]); magic != pcapMagic {
		t.Fatalf("magic %#x, want %#x little-endian", magic, uint32(pcapMagic))
	}
	if maj := binary.LittleEndian.Uint16(b[4:6]); maj != 2 {
		t.Errorf("version major %d, want 2", maj)
	}
	if min := binary.LittleEndian.Uint16(b[6:8]); min != 4 {
		t.Errorf("version minor %d, want 4", min)
	}
	if sl := binary.LittleEndian.Uint32(b[16:20]); sl != pcapSnapLen {
		t.Errorf("snaplen %d, want %d", sl, pcapSnapLen)
	}
	if lt := binary.LittleEndian.Uint32(b[20:24]); lt != pcapEthernet {
		t.Errorf("linktype %d, want %d (Ethernet)", lt, pcapEthernet)
	}
	// Walk records: each must parse, carry a plausible IPv4-in-Ethernet
	// frame, and timestamps must not decrease (no reordering configured).
	off := pcapHdrLen
	var lastTS uint64
	records := 0
	for off < len(b) {
		if off+pcapRecHdrLen > len(b) {
			t.Fatalf("truncated record header at %d", off)
		}
		sec := binary.LittleEndian.Uint32(b[off : off+4])
		usec := binary.LittleEndian.Uint32(b[off+4 : off+8])
		incl := binary.LittleEndian.Uint32(b[off+8 : off+12])
		orig := binary.LittleEndian.Uint32(b[off+12 : off+16])
		if usec >= 1_000_000 {
			t.Errorf("record %d: usec %d out of range", records, usec)
		}
		if incl != orig {
			t.Errorf("record %d: incl %d != orig %d under snaplen", records, incl, orig)
		}
		ts := uint64(sec)*1_000_000 + uint64(usec)
		if ts < lastTS {
			t.Errorf("record %d: timestamp went backwards", records)
		}
		lastTS = ts
		frame := b[off+pcapRecHdrLen : off+pcapRecHdrLen+int(incl)]
		if pkt, err := netstack.ParsePacket(frame); err != nil {
			t.Errorf("record %d: frame does not parse: %v", records, err)
		} else if pkt.Src == 0 || pkt.Dst == 0 {
			t.Errorf("record %d: zero addresses", records)
		}
		off += pcapRecHdrLen + int(incl)
		records++
	}
	if records != 5 {
		t.Errorf("walked %d records, want 5", records)
	}
}
