package bench

import (
	"fmt"

	"spin"
	"spin/internal/dispatch"
	"spin/internal/netstack"
	"spin/internal/sal"
	"spin/internal/sim"
)

// RunDispatcherScaling reproduces the §5.5 experiment: UDP round-trip
// latency as guards and handlers accumulate on the packet-arrival event.
// The paper: 565µs baseline; ≈585µs with 50 additional false guards; ≈637µs
// when all 50 guards evaluate true.
func RunDispatcherScaling() (*Table, error) {
	measure := func(nExtra int, guardsTrue bool) (float64, error) {
		a, b, cl, err := spinPair(sal.LanceModel)
		if err != nil {
			return 0, err
		}
		for i := 0; i < nExtra; i++ {
			_, err := b.Dispatcher.Install(netstack.EvUDPArrived, func(_, _ any) any {
				return false // observe, don't claim
			}, dispatch.InstallOptions{Guard: func(any) bool { return guardsTrue }})
			if err != nil {
				return 0, err
			}
		}
		if err := b.Stack.UDP().Echo(echoPort, netstack.InKernelDelivery); err != nil {
			return 0, err
		}
		replies := 0
		if err := a.Stack.UDP().Bind(clientPort, netstack.InKernelDelivery, func(*netstack.Packet) {
			replies++
		}); err != nil {
			return 0, err
		}
		rtt, err := udpRTT(cl, a.Clock, func() error {
			return a.Stack.UDP().Send(clientPort, b.Stack.IP, echoPort, make([]byte, 16))
		}, &replies, 8)
		return micros(rtt), err
	}

	base, err := measure(0, false)
	if err != nil {
		return nil, err
	}
	falseGuards, err := measure(50, false)
	if err != nil {
		return nil, err
	}
	trueGuards, err := measure(50, true)
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:      "dispatcher",
		Title:   "Dispatcher scaling: UDP RTT with additional guards/handlers",
		Columns: []string{"RTT"},
		Unit:    "µs",
		Rows: []Row{
			{"baseline (no extra handlers)", []float64{565}, []float64{base}},
			{"+50 guards, all false", []float64{585}, []float64{falseGuards}},
			{"+50 guards, all true", []float64{637}, []float64{trueGuards}},
		},
		Notes: []string{"dispatch overhead is linear in installed guards and invoked handlers"},
	}, nil
}

// RunGC reproduces the §5.5 storage-management observation: disabling the
// collector does not change fast-path measurements, because SPIN and its
// extensions avoid allocation on fast paths; a heavy allocator, by
// contrast, triggers collections with real cost.
func RunGC() (*Table, error) {
	inKernelCall := func(collector bool) (float64, error) {
		m, err := newSPINMachine("gc", netstack.Addr(10, 0, 0, 1))
		if err != nil {
			return 0, err
		}
		m.Heap.CollectorEnabled = collector
		if err := m.Dispatcher.Define("Bench.Null", dispatch.DefineOptions{
			Primary: func(_, _ any) any { return nil },
		}); err != nil {
			return 0, err
		}
		const iters = 1000
		start := m.Clock.Now()
		for i := 0; i < iters; i++ {
			m.Dispatcher.Raise("Bench.Null", nil)
		}
		return micros(m.Clock.Now().Sub(start) / iters), nil
	}
	on, err := inKernelCall(true)
	if err != nil {
		return nil, err
	}
	off, err := inKernelCall(false)
	if err != nil {
		return nil, err
	}

	// Allocation-heavy client: collections fire and cost virtual time.
	allocHeavy := func(collector bool) (float64, int64, error) {
		m, err := newSPINMachine("gc2", netstack.Addr(10, 0, 0, 1))
		if err != nil {
			return 0, 0, err
		}
		m.Heap.CollectorEnabled = collector
		m.Heap.TriggerBytes = 256 << 10
		const allocs = 4096
		start := m.Clock.Now()
		for i := 0; i < allocs; i++ {
			m.Heap.Alloc(1024)
		}
		return micros(m.Clock.Now().Sub(start) / allocs), m.Heap.Collections(), nil
	}
	heavyOn, collections, err := allocHeavy(true)
	if err != nil {
		return nil, err
	}
	heavyOff, _, err := allocHeavy(false)
	if err != nil {
		return nil, err
	}

	return &Table{
		ID:      "gc",
		Title:   "Impact of automatic storage management",
		Columns: []string{"collector on", "collector off"},
		Unit:    "µs/op",
		Rows: []Row{
			{"protected in-kernel call", []float64{0.13, 0.13}, []float64{on, off}},
			{"allocation-heavy client (per alloc)", []float64{NA, NA}, []float64{heavyOn, heavyOff}},
		},
		Notes: []string{
			"fast paths avoid allocation, so the collector does not affect them (the paper's observation)",
			fmt.Sprintf("the allocation-heavy client triggered %d collection cycles with the collector on", collections),
		},
	}, nil
}

// RunFig5 renders the protocol graph of a fully configured SPIN machine —
// the textual analogue of Figure 5.
func RunFig5() (*Table, error) {
	m, err := newSPINMachine("spin", netstack.Addr(10, 0, 0, 1))
	if err != nil {
		return nil, err
	}
	m.AddNIC(sal.LanceModel)
	m.AddNIC(sal.ForeModel)
	if _, err := netstack.NewForwarder(m.Stack, netstack.ProtoUDP, 7000, netstack.Addr(10, 0, 0, 9)); err != nil {
		return nil, err
	}
	if _, err := netstack.NewHTTPServer(m.Stack, 80, nil, netstack.ContentMap{}); err != nil {
		return nil, err
	}
	am, err := netstack.NewActiveMessages(m.Stack)
	if err != nil {
		return nil, err
	}
	_ = netstack.NewRPC(am)
	if _, err := netstack.NewVideoClient(m.Stack, 6000); err != nil {
		return nil, err
	}
	vs, err := netstack.NewVideoServer(m.Stack, 6001, func(int) []byte { return nil })
	if err != nil {
		return nil, err
	}
	_ = vs
	graph := m.Stack.Graph()

	t := &Table{
		ID:      "fig5",
		Title:   "Protocol graph (events route packets to in-kernel handlers)",
		Columns: []string{},
		Unit:    "structure",
	}
	t.Notes = append(t.Notes, "rendered graph below")
	t.Notes = append(t.Notes, graph)
	return t, nil
}

// RunHTTP reproduces the §5.4 web-server comparison: client-side latency of
// an HTTP transaction for a cached document — SPIN's in-kernel server with
// its hybrid cache versus a user-level server on DEC OSF/1 over the
// system's caching file system.
func RunHTTP() (*Table, error) {
	spinCold, spinWarm, err := spinHTTPLatency()
	if err != nil {
		return nil, err
	}
	osfCold, osfWarm, err := osfHTTPLatency()
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:      "http",
		Title:   "Web server HTTP transaction latency (client side)",
		Columns: []string{"SPIN", "DEC OSF/1"},
		Unit:    "ms",
		Rows: []Row{
			{"cached document", []float64{5, 8}, []float64{spinWarm, osfWarm}},
			{"uncached document (disk)", []float64{NA, NA}, []float64{spinCold, osfCold}},
		},
		Notes: []string{"3 KB document over Ethernet; SPIN server runs in-kernel with the hybrid (LRU-small/no-cache-large) policy"},
	}, nil
}

func httpTransaction(cl *sim.Cluster, clock *sim.Clock, get func(done func())) (sim.Duration, error) {
	finished := false
	start := clock.Now()
	get(func() { finished = true })
	if !cl.RunUntil(func() bool { return finished }, sim.Time(120*sim.Second)) {
		return 0, fmt.Errorf("bench: HTTP transaction never completed")
	}
	return clock.Now().Sub(start), nil
}

func spinHTTPLatency() (coldMS, warmMS float64, err error) {
	a, b, cl, err := spinPair(sal.LanceModel)
	if err != nil {
		return 0, 0, err
	}
	doc := make([]byte, 3000)
	if err := b.FS.Create("/index.html", doc); err != nil {
		return 0, 0, err
	}
	content := newWebContent(b, 64*1024)
	if _, err := netstack.NewHTTPServer(b.Stack, 80, netstack.InKernelDelivery, content); err != nil {
		return 0, 0, err
	}
	get := func(done func()) {
		_ = netstack.HTTPGet(a.Stack, b.Stack.IP, 80, "/index.html", netstack.InKernelDelivery,
			func(string, []byte) { done() })
	}
	cold, err := httpTransaction(cl, a.Clock, get)
	if err != nil {
		return 0, 0, err
	}
	warm, err := httpTransaction(cl, a.Clock, get)
	if err != nil {
		return 0, 0, err
	}
	cl.Run(0) // the FIN exchange and TIME_WAIT, so every packet goes back
	return cold.Millis(), warm.Millis(), nil
}

func osfHTTPLatency() (coldMS, warmMS float64, err error) {
	// Two OSF hosts; the server is a user process: socket delivery per
	// segment plus the user-send path on responses, reading through the
	// system's caching file system (no double buffering, no policy
	// control).
	sysA, sysB := newOSFPairForHTTP()
	a, err := sysA.sys.NewHost("osf-client", netstack.Addr(10, 0, 0, 1), sal.LanceModel)
	if err != nil {
		return 0, 0, err
	}
	b, err := sysB.sys.NewHost("osf-server", netstack.Addr(10, 0, 0, 2), sal.LanceModel)
	if err != nil {
		return 0, 0, err
	}
	if err := sal.Connect(a.NIC, b.NIC); err != nil {
		return 0, 0, err
	}
	doc := make([]byte, 3000)
	if err := sysB.fs.Create("/index.html", doc); err != nil {
		return 0, 0, err
	}
	content := &osfContent{host: b, fs: sysB.fs}
	if _, err := netstack.NewHTTPServer(b.Stack, 80, sysB.sys.SocketDelivery(), content); err != nil {
		return 0, 0, err
	}
	cl := sim.NewCluster(sysA.sys.Engine, sysB.sys.Engine)
	get := func(done func()) {
		_ = netstack.HTTPGet(a.Stack, b.Stack.IP, 80, "/index.html", sysA.sys.SocketDelivery(),
			func(string, []byte) { done() })
	}
	cold, err := httpTransaction(cl, sysA.sys.Clock, get)
	if err != nil {
		return 0, 0, err
	}
	warm, err := httpTransaction(cl, sysA.sys.Clock, get)
	if err != nil {
		return 0, 0, err
	}
	cl.Run(0)
	return cold.Millis(), warm.Millis(), nil
}

// newWebContent adapts the SPIN machine's file system + hybrid web cache to
// the HTTP extension.
func newWebContent(m *spin.Machine, cacheBytes int) netstack.HTTPContent {
	return newHybridContent(m, cacheBytes)
}
