package vnet

import (
	"encoding/binary"

	"spin/internal/netstack"
	"spin/internal/sal"
	"spin/internal/sim"
)

// LinkModel is the performance and fault model of one link. The zero value
// is an ideal wire: no latency, no bandwidth constraint beyond the NICs'
// own, no loss, no reordering, no duplication.
type LinkModel struct {
	// Latency is the one-way propagation delay.
	Latency sim.Duration
	// BandwidthBps, when non-zero, serializes frames at this rate on the
	// link itself — the bottleneck model for dumbbell experiments. NIC-side
	// serialization (the sender's wire rate) still applies first.
	BandwidthBps int64
	// Loss drops frames in flight with this probability, seeded and
	// per-direction, so a run replays exactly.
	Loss float64
	// Reorder delays a frame by ReorderDelay with this probability, letting
	// later frames overtake it.
	Reorder      float64
	ReorderDelay sim.Duration
	// Duplicate delivers a frame twice with this probability.
	Duplicate float64
}

// Verdict is a netem hook's decision about one frame.
type Verdict uint8

// Hook verdicts.
const (
	// Pass lets the frame continue (possibly altered, possibly delayed).
	Pass Verdict = iota
	// Drop discards the frame; the peer never sees it.
	Drop
)

// FrameEvent is what a netem hook observes: one frame entering a link
// direction, after NIC-side serialization and before the link's own fault
// models run. Hooks may mutate the frame (size, payload packet fields) and
// add delay; returning Drop discards it.
type FrameEvent struct {
	// Link and Dir identify where the frame is ("a~b", "h1->s0").
	Link, Dir string
	// Frame is the frame in flight, mutable in place.
	Frame *sal.NetFrame
	// Depart is when the frame finished serializing out of the sender.
	Depart sim.Time
	// ExtraDelay is added to the frame's arrival time; hooks accumulate
	// into it (netem-style delay injection).
	ExtraDelay sim.Duration
}

// Hook inspects, alters, delays or drops frames on a link direction. Hooks
// run in frame-transmit order on the sending machine's goroutine; they must
// not block.
type Hook func(ev *FrameEvent) Verdict

// LinkStats counts one direction's traffic.
type LinkStats struct {
	// Delivered frames reached the far endpoint (duplicates included).
	Delivered int64
	// Lost frames were dropped by the seeded loss model.
	Lost int64
	// Down frames were dropped because the link was administratively down.
	Down int64
	// HookDropped frames were dropped by a netem hook.
	HookDropped int64
	// Duplicated and Reordered count the fault models firing.
	Duplicated, Reordered int64
}

// endpoint is anything a link can deliver frames to: a host NIC or a switch
// port. Both schedule the arrival on their own machine's engine.
type endpoint interface {
	DeliverAt(t sim.Time, f sal.NetFrame)
}

// half is one direction of a link. It implements sal.Wire: the sending NIC
// (or switch port) hands it frames with serialization already applied, and
// the half owns everything to the far endpoint — bandwidth, loss, reorder,
// duplication, hooks, capture, digest.
type half struct {
	link *Link
	// dir is the direction the half carries frames in ("a->b"), built
	// once with the topology.
	dir    string
	to     endpoint
	rng    *sim.Rand
	freeAt sim.Time // link-bandwidth serialization

	stats  LinkStats
	digest uint64
}

// Link is a full-duplex modeled link between two nodes of an Internet. Both
// directions share the model but have independent PRNGs, counters and
// digests.
type Link struct {
	Name  string
	Model LinkModel

	ab, ba *half // a->b, b->a

	down  bool
	hooks []Hook

	// cap is set by the Internet (CaptureLink) before the simulation runs.
	cap *Capture
}

func newLink(name string, model LinkModel, seed uint64) *Link {
	l := &Link{Name: name, Model: model}
	l.ab = &half{link: l, rng: sim.NewRand(sim.Mix64(seed ^ sim.HashString(name)))}
	l.ba = &half{link: l, rng: sim.NewRand(sim.Mix64(seed ^ sim.HashString(name) ^ 0x9e37))}
	return l
}

// SetDown administratively downs (true) or restores (false) the link; while
// down every frame in either direction is dropped. Schedule flips from the
// Internet's coordinator engine (FlapLink) so they land at a deterministic
// virtual time.
func (l *Link) SetDown(down bool) { l.down = down }

// IsDown reports the administrative state.
func (l *Link) IsDown() bool { return l.down }

// AddHook appends a netem hook observing both directions, run in
// registration order; the first Drop wins.
func (l *Link) AddHook(h Hook) { l.hooks = append(l.hooks, h) }

// Stats returns both directions' counters (a->b, b->a — the a side is the
// first node named when the link was built).
func (l *Link) Stats() (ab, ba LinkStats) { return l.ab.stats, l.ba.stats }

// Digests returns the per-direction frame-order digests: a chained hash
// over (header sum, payload sum, arrival time) of every delivered frame,
// where a packet's header sum is netstack's HeaderSum of the fields its
// wire header carries and a foreign payload's is its size. Two runs of the
// same seeded topology produce byte-identical traffic exactly when these
// match on every link.
func (l *Link) Digests() (ab, ba uint64) { return l.ab.digest, l.ba.digest }

// hashBytes folds a byte slice into 64 bits with FNV-1a's xor-and-multiply
// over little-endian words. Four independent lanes take the words of each
// 32-byte block in turn, so four multiplies are in flight at once, and are
// folded in order into one as four more words; the rest of the slice goes a
// word, then a byte, at a time. Every lane starts from the length, so that a
// trailing zero counts, plus its index. Each step is a bijection of the value
// it updates, so two slices of one length that differ in one word always
// hash differently; the shift brings a word's high bytes, which the multiply
// alone only carries upward, back into the low half.
func hashBytes(b []byte) uint64 {
	const prime = 1099511628211
	h := 14695981039346656037 ^ uint64(len(b))
	if len(b) >= 32 {
		h0, h1, h2, h3 := h, h+1, h+2, h+3
		for ; len(b) >= 32; b = b[32:] {
			h0 = (h0 ^ binary.LittleEndian.Uint64(b)) * prime
			h1 = (h1 ^ binary.LittleEndian.Uint64(b[8:])) * prime
			h2 = (h2 ^ binary.LittleEndian.Uint64(b[16:])) * prime
			h3 = (h3 ^ binary.LittleEndian.Uint64(b[24:])) * prime
			h0 ^= h0 >> 32
			h1 ^= h1 >> 32
			h2 ^= h2 >> 32
			h3 ^= h3 >> 32
		}
		for _, lane := range [4]uint64{h0, h1, h2, h3} {
			h = (h ^ lane) * prime
			h ^= h >> 32
		}
	}
	for ; len(b) >= 8; b = b[8:] {
		h = (h ^ binary.LittleEndian.Uint64(b)) * prime
		h ^= h >> 32
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * prime
	}
	return h
}

// txTime returns the link-side serialization time for n bytes (zero when
// the link has no bandwidth constraint of its own).
func (m *LinkModel) txTime(n int) sim.Duration {
	if m.BandwidthBps <= 0 {
		return 0
	}
	return sim.Duration(int64(n) * 8 * int64(sim.Second) / m.BandwidthBps)
}

// Transmit carries one frame across this direction: administrative state,
// hooks, link-bandwidth serialization, seeded loss /
// reorder / duplication, then arrival at the far endpoint. Runs on the
// sending node's goroutine at its virtual "departed" time.
func (h *half) Transmit(f sal.NetFrame, departed sim.Time) {
	l := h.link
	if l.down {
		h.stats.Down++
		sal.ReleaseFrame(f)
		return
	}
	// Netem hooks: inspect / alter / delay / drop.
	var extra sim.Duration
	if len(l.hooks) > 0 {
		// Hooks mutate a copy, so that f escapes to the heap on a hooked
		// link only.
		hooked := f
		ev := FrameEvent{Link: l.Name, Dir: h.dir, Frame: &hooked, Depart: departed}
		for _, hook := range l.hooks {
			if hook(&ev) == Drop {
				h.stats.HookDropped++
				sal.ReleaseFrame(hooked)
				return
			}
		}
		f, extra = hooked, ev.ExtraDelay
		// A hook may have written the payload in place.
		if pkt, ok := f.Payload.(*netstack.Packet); ok {
			pkt.PayloadWritten()
		}
	}
	// Link-bandwidth serialization (bottleneck links).
	start := departed
	if h.freeAt > start {
		start = h.freeAt
	}
	tx := l.Model.txTime(f.Size)
	h.freeAt = start.Add(tx)
	arrival := h.freeAt.Add(l.Model.Latency + extra)
	// Seeded fault models, fixed draw order per frame: loss, reorder, dup.
	if l.Model.Loss > 0 && h.rng.Float64() < l.Model.Loss {
		h.stats.Lost++
		sal.ReleaseFrame(f)
		return
	}
	if l.Model.Reorder > 0 && h.rng.Float64() < l.Model.Reorder {
		h.stats.Reordered++
		arrival = arrival.Add(l.Model.ReorderDelay)
	}
	dup := l.Model.Duplicate > 0 && h.rng.Float64() < l.Model.Duplicate
	h.deliver(f, arrival)
	if dup {
		h.stats.Duplicated++
		h.deliver(cloneFrame(f), arrival)
	}
}

// deliver commits one frame arrival: digest, capture, then the far
// endpoint's interrupt (or switch forwarding step) at the arrival time.
func (h *half) deliver(f sal.NetFrame, arrival sim.Time) {
	if pkt, ok := f.Payload.(*netstack.Packet); ok {
		h.fold(pkt.HeaderSum(), pkt.PayloadSum(hashBytes), arrival)
	} else {
		h.fold(uint64(f.Size), 0, arrival)
	}
	h.stats.Delivered++
	if h.link.cap != nil {
		h.link.cap.record(arrival, f)
	}
	h.to.DeliverAt(arrival, f)
}

// fold chains one delivered frame into the direction's digest: its header
// sum, then its payload's sum and its arrival time.
func (h *half) fold(headerSum, payloadSum uint64, arrival sim.Time) {
	h.digest = sim.Mix64(sim.Mix64(h.digest^headerSum) ^ payloadSum ^ uint64(arrival))
}

// cloneFrame deep-copies a frame for duplicate delivery: the two arrivals
// have independent lifetimes, so a pooled packet must not be shared.
func cloneFrame(f sal.NetFrame) sal.NetFrame {
	if pkt, ok := f.Payload.(*netstack.Packet); ok {
		return sal.NetFrame{Size: f.Size, Payload: pkt.Clone()}
	}
	return f
}
