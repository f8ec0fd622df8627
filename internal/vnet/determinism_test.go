package vnet

import (
	"fmt"
	"testing"

	"spin/internal/netstack"
	"spin/internal/sim"
)

// driveStar sends seeded cross-traffic over a star: every host fires UDP
// datagrams at its clockwise neighbor over lossy spokes, and a few hosts
// run TCP transfers — enough concurrent traffic that any nondeterminism in
// link models, switch forwarding or cluster stepping shows up in the
// digests.
func driveStar(in *Internet, n int) error {
	for i := 0; i < n; i++ {
		m := in.Machine(fmt.Sprintf("h%d", i))
		m.Stack.UDP().Bind(9, nil, func(*netstack.Packet) {})
	}
	for i := 0; i < n; i++ {
		src := in.Machine(fmt.Sprintf("h%d", i))
		dst := in.IP(fmt.Sprintf("h%d", (i+1)%n))
		for k := 0; k < 3; k++ {
			if err := src.Stack.UDP().Send(100, dst, 9, make([]byte, 64+i%7)); err != nil {
				return err
			}
		}
	}
	convs := []Conversation{
		{From: "h0", To: fmt.Sprintf("h%d", n/2), Bytes: 8 << 10},
		{From: fmt.Sprintf("h%d", n/3), To: fmt.Sprintf("h%d", 2*n/3), Bytes: 8 << 10},
	}
	results, err := RunConversations(in, convs, sim.Time(60*sim.Second))
	if err != nil {
		return err
	}
	for _, r := range results {
		if !r.Complete || r.Corrupt {
			return fmt.Errorf("transfer %s->%s failed: %+v", r.From, r.To, r)
		}
	}
	return nil
}

// TestStar200Determinism: a 200-machine seeded star replays byte-identically
// — every per-link digest and the folded fingerprint match across runs.
func TestStar200Determinism(t *testing.T) {
	if testing.Short() {
		t.Skip("200-machine topology in -short mode")
	}
	const n = 200
	lossy := LinkModel{Latency: 150 * sim.Microsecond, Loss: 0.02, Reorder: 0.05, ReorderDelay: 200 * sim.Microsecond}
	build := func() (*Internet, error) { return Star(n, lossy, 4242) }

	// Two full runs must agree link-by-link, not just in the fold.
	var first map[string][2]uint64
	var firstFP uint64
	for run := 0; run < 2; run++ {
		in, err := build()
		if err != nil {
			t.Fatal(err)
		}
		if err := driveStar(in, n); err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first, firstFP = in.LinkDigests(), in.Fingerprint()
			continue
		}
		second := in.LinkDigests()
		if len(second) != len(first) {
			t.Fatalf("link count changed across runs: %d vs %d", len(second), len(first))
		}
		for name, d := range second {
			if d != first[name] {
				t.Errorf("link %s digests diverged: %x vs %x", name, d, first[name])
			}
		}
		if fp := in.Fingerprint(); fp != firstFP {
			t.Errorf("fingerprint diverged: %#x vs %#x", fp, firstFP)
		}
	}
	if firstFP == 0 {
		t.Error("fingerprint is zero — no traffic folded in")
	}
}

// TestStar200DifferentSeedDiverges: changing only the seed must change the
// traffic (loss pattern, hence retransmissions, hence digests).
func TestStar200DifferentSeedDiverges(t *testing.T) {
	if testing.Short() {
		t.Skip("200-machine topology in -short mode")
	}
	const n = 200
	lossy := LinkModel{Latency: 150 * sim.Microsecond, Loss: 0.02, Reorder: 0.05, ReorderDelay: 200 * sim.Microsecond}
	fps := make([]uint64, 2)
	for i, seed := range []uint64{4242, 4243} {
		in, err := Star(n, lossy, seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := driveStar(in, n); err != nil {
			t.Fatal(err)
		}
		fps[i] = in.Fingerprint()
	}
	if fps[0] == fps[1] {
		t.Errorf("different seeds produced identical fingerprint %#x", fps[0])
	}
}

// TestDumbbell16Determinism: 16 machines through a shared lossy bottleneck,
// replayed via the CheckReplay harness.
func TestDumbbell16Determinism(t *testing.T) {
	bottleneck := LinkModel{
		Latency: 500 * sim.Microsecond, BandwidthBps: 50_000_000,
		Loss: 0.01, Reorder: 0.05, ReorderDelay: 300 * sim.Microsecond,
	}
	build := func() (*Internet, error) { return Dumbbell(8, 8, edge, bottleneck, 777) }
	drive := func(in *Internet) error {
		convs := make([]Conversation, 8)
		for i := range convs {
			convs[i] = Conversation{
				From: fmt.Sprintf("l%d", i), To: fmt.Sprintf("r%d", i),
				Bytes: 8 << 10,
			}
		}
		results, err := RunConversations(in, convs, sim.Time(60*sim.Second))
		if err != nil {
			return err
		}
		for _, r := range results {
			if !r.Complete || r.Corrupt {
				return fmt.Errorf("transfer %s->%s failed: %+v", r.From, r.To, r)
			}
		}
		return nil
	}
	fp, err := CheckReplay(3, build, drive)
	if err != nil {
		t.Fatal(err)
	}
	if fp == 0 {
		t.Error("zero fingerprint from a run with traffic")
	}
	// And a different seed diverges.
	in, err := Dumbbell(8, 8, edge, LinkModel{
		Latency: 500 * sim.Microsecond, BandwidthBps: 50_000_000,
		Loss: 0.01, Reorder: 0.05, ReorderDelay: 300 * sim.Microsecond,
	}, 778)
	if err != nil {
		t.Fatal(err)
	}
	if err := drive(in); err != nil {
		t.Fatal(err)
	}
	if in.Fingerprint() == fp {
		t.Error("seed 778 reproduced seed 777's fingerprint")
	}
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

// LinkDigests returns every link's per-direction frame-order digests, keyed
// by link name.
func (in *Internet) LinkDigests() map[string][2]uint64 {
	out := make(map[string][2]uint64, len(in.links))
	for name, l := range in.links {
		ab, ba := l.Digests()
		out[name] = [2]uint64{ab, ba}
	}
	return out
}
