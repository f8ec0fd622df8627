package main

import (
	"fmt"

	"spin"
	"spin/internal/fs"
	"spin/internal/netstack"
	"spin/internal/sim"
	"spin/internal/trace"
	"spin/internal/vnet"
)

// scale picks the workload sizes: full is what the benchmark reports, tiny
// is the same code at sizes `go test ./...` can afford.
type scale int

const (
	scaleFull scale = iota
	scaleTiny
)

// pick returns full or tiny by scale.
func (s scale) pick(full, tiny int) int {
	if s == scaleTiny {
		return tiny
	}
	return full
}

// batchStats is what one fixed-work batch of a workload reports. Everything
// here is a count or virtual time — deterministic for a given seed on the
// deterministic workloads; the host clock is read around the batch by the
// measurement loop, never inside it.
type batchStats struct {
	// variant says which of the workload's variants the batch ran (0 on a
	// workload whose batches are all alike).
	variant int
	// ops attempted and ops failed or unverified. Failures stay in the
	// sample: they count into the failed-ops ratio, never vanish.
	ops, failed int
	// why says what went wrong with the first failed op.
	why string
	// events is how many simulator events the batch executed (0 when the
	// workload cannot see them: vnet.RunConversations and bench.All step
	// their own engines).
	events int64
	// virt is the virtual time the ops took: the sum of per-request
	// latencies for request workloads, elapsed cluster time otherwise.
	virt sim.Duration
	// lat is every request's virtual latency in µs (request workloads).
	lat []float64
	// payloadBits and retransmits describe verified TCP transfers.
	payloadBits float64
	retransmits int64
	// relErr is |measured−paper|/paper per timing cell (paper_eval).
	relErr []float64
	// fingerprint is the topology fingerprint of a batch that built its
	// own topology (0 otherwise).
	fingerprint uint64
}

// fail counts one failed op, keeping the first reason.
func (b *batchStats) fail(format string, args ...any) {
	if b.failed++; b.failed == 1 {
		b.why = fmt.Sprintf(format, args...)
	}
}

// virtKey folds the batch's deterministic outputs into one comparable
// string: two batches built from the same seed must agree on it.
func (b batchStats) virtKey() string {
	s := sorted(b.lat)
	return fmt.Sprintf("ops=%d failed=%d events=%d virt=%d p50=%v p99=%v bits=%v retx=%d relerr=%v fp=%#x",
		b.ops, b.failed, b.events, b.virt, percentileSorted(s, 50), percentileSorted(s, 99),
		b.payloadBits, b.retransmits, median(b.relErr), b.fingerprint)
}

// instance is one set-up workload: topology built, servers listening,
// caches warm.
type instance interface {
	// batch runs the workload's fixed unit of work and verifies every
	// output; err is for harness breakage, not for failed ops.
	batch() (batchStats, error)
	// fingerprint folds the simulated state so far into one value (0 when
	// the workload has no long-lived topology).
	fingerprint() uint64
	// setTracing switches kernel tracing on (fresh tracers) or off on every
	// machine the workload owns, and on every one it builds later.
	setTracing(on bool)
	// tracers returns the tracers of every traced machine so far.
	tracers() []*trace.Tracer
}

// workload is one benchmark workload: a name, the reason it exists, and a
// set-up function that builds it from a seed and warms it up.
type workload struct {
	name, why string
	// deterministic workloads replay byte-identically from the seed: their
	// fingerprints and virtual-clock results are compared across batches
	// and across repeated set-ups.
	deterministic bool
	// variants is how many kinds of batch the workload cycles through, each
	// from a seed of its own. Every phase of a run covers them
	// all, and a batch is held to the first batch of its own variant.
	variants int
	setup    func(seed uint64, sc scale) (instance, error)
}

// workloads lists every workload in reporting order. The names and reasons
// are mirrored in BENCHMARK.json; checkSpec holds the two in step.
var workloads = []workload{
	{"http_star_kernel", "resolve + dial + HTTP GET over a 3-machine star in the callback API: netstack, dispatch and fs do the work, sim almost none", true, 1, setupHTTPKernel},
	{"http_star_sockets", "the same request from unmodified net/http through the blocking socket adapters, so the Driver hand-off is on the path", false, 1, setupHTTPSockets},
	{"tcp_bulk_clean", "two bulk TCP flows over a loss-free dumbbell: per-segment TX/RX cost with no recovery", true, 1, setupBulkClean},
	{"tcp_bulk_lossy", "the same flows with 1% loss and 2% reorder on the bottleneck: RTO, go-back-N and discarded out-of-order data", true, lossyVariants, setupBulkLossy},
	{"fleet_fattree_http", "247 concurrent clients on a 256-host fat tree: per-request work held constant while engines go 5 to 275, so the simulator core dominates", true, 1, setupFleet},
	{"udp_small_xdp", "smallest UDP datagrams through a verified pass-all XDP program: the per-packet floor, where an added per-packet cost cannot hide", true, 1, setupUDP},
	{"paper_eval", "every paper experiment (Tables 1-7, Figs 5-6 and the rest): single-box dispatch, strand and vm paths plus accuracy against the paper", true, 1, setupPaper},
}

// lookupWorkload finds a workload by name.
func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// netInstance is the part every vnet-backed workload shares: the live
// topology and the kernel tracers of a traced run.
type netInstance struct {
	in     *vnet.Internet
	traced bool
	trs    []*trace.Tracer
}

// traceRing is the per-machine trace ring of a traced run. Only the
// histograms are read, so the ring stays small.
const traceRing = 256

// adopt makes in the instance's topology, tracing its machines if a traced
// run is in progress.
func (n *netInstance) adopt(in *vnet.Internet) {
	n.in = in
	if n.traced {
		n.traceMachines()
	}
}

func (n *netInstance) traceMachines() {
	for _, name := range n.in.Machines() {
		n.trs = append(n.trs, n.in.Machine(name).EnableTracing(traceRing))
	}
}

func (n *netInstance) setTracing(on bool) {
	n.traced = on
	n.trs = nil
	if n.in == nil {
		return
	}
	if on {
		n.traceMachines()
		return
	}
	for _, name := range n.in.Machines() {
		n.in.Machine(name).DisableTracing()
	}
}

func (n *netInstance) tracers() []*trace.Tracer { return n.trs }

func (n *netInstance) fingerprint() uint64 { return n.in.Fingerprint() }

// stepAll runs the cluster until it drains and returns the events executed.
func stepAll(c *sim.Cluster) int64 {
	var n int64
	for c.Step() {
		n++
	}
	return n
}

// settle drains the cluster and then brings every engine's clock up to the
// latest one, so the next request starts from an idle topology whose
// machines agree on the time. Without it the side that sat out a TIME_WAIT
// is half a second ahead, and a conservative simulation charges that skew
// to the next packet it receives. It returns the events the drain executed
// (the clock-setting no-ops are the harness's, and are not counted).
func settle(c *sim.Cluster) int64 {
	n := stepAll(c)
	now := clusterNow(c)
	for _, e := range c.Engines() {
		if e.Now() < now {
			e.At(now, func() {})
		}
	}
	stepAll(c)
	return n
}

// stepUntil runs the cluster until done reports true or it drains, and
// returns the events executed.
func stepUntil(c *sim.Cluster, done *bool) int64 {
	var n int64
	for !*done && c.Step() {
		n++
	}
	return n
}

// clusterNow is the latest clock of any engine: the virtual time a whole
// topology has reached.
func clusterNow(c *sim.Cluster) sim.Time {
	var now sim.Time
	for _, e := range c.Engines() {
		if t := e.Now(); t > now {
			now = t
		}
	}
	return now
}

// pageSize is the document every HTTP workload fetches: two full TCP
// segments' worth, so the response needs a second segment.
const pageSize = 2200

// pages makes n seeded documents of pageSize bytes, named /p0../p{n-1}.
func pages(rng *sim.Rand, n int) (paths []string, bodies [][]byte) {
	for i := 0; i < n; i++ {
		body := make([]byte, pageSize)
		for j := range body {
			body[j] = 'a' + byte(rng.Intn(26))
		}
		paths = append(paths, fmt.Sprintf("/p%d", i))
		bodies = append(bodies, body)
	}
	return paths, bodies
}

// serveHTTP stores the documents in m's file system and starts the
// in-kernel HTTP extension over the hybrid web cache, as the paper's web
// server does (§5.4). The cache is primed: every request is a hit.
func serveHTTP(m *spin.Machine, paths []string, bodies [][]byte) error {
	cache := fs.NewWebCache(m.FS, 1<<20, 64<<10)
	for i, p := range paths {
		if err := m.FS.Create(p, bodies[i]); err != nil {
			return fmt.Errorf("create %s on %s: %w", p, m.Name, err)
		}
		if _, ok := cache.Get(p); !ok {
			return fmt.Errorf("prime %s on %s", p, m.Name)
		}
	}
	_, err := netstack.NewHTTPServer(m.Stack, 80, netstack.InKernelDelivery, cache)
	return err
}
