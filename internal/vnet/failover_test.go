package vnet

// Resilient service discovery end-to-end: N replicated HTTP backends
// behind a consistent-hash balancer while faultinject-style failures kill
// one backend (crash-only DestroyDomain) and partition another (FlapLink).
// The experiments assert the SLO (availability, bounded retries, bounded
// re-convergence) and that the whole failover story — health probes,
// breaker ejections, DNS withdrawal, retry budgets — replays
// byte-identically under a fixed seed.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"testing"

	"spin/internal/domain"
	"spin/internal/lb"
	"spin/internal/metrics"
	"spin/internal/netstack"
	"spin/internal/sim"
)

// failoverLab is a star topology: nBackends replicated spin-httpd machines
// b0..bN-1, a client running the balancer + resilient dialer, and the DNS
// authority, all around one switch.
type failoverLab struct {
	in      *Internet
	bal     *lb.Balancer
	rd      *lb.ResilientDialer
	httpc   *http.Client
	names   []string
	servers map[string]*netstack.HTTPServer
}

func failoverStar(seed uint64, nBackends int, cfg lb.Config, policy lb.RetryPolicy) (*failoverLab, error) {
	edge := LinkModel{Latency: 200 * sim.Microsecond}
	bld := NewBuilder(seed)
	names := make([]string, nBackends)
	for i := range names {
		names[i] = fmt.Sprintf("b%d", i)
		bld.Machine(names[i], 0)
	}
	bld.Machine("client", 0).Machine("ns", 0).Switch("s0")
	for _, n := range names {
		bld.Link(n, "s0", edge)
	}
	bld.Link("client", "s0", edge).Link("ns", "s0", edge)
	in, err := bld.Build()
	if err != nil {
		return nil, err
	}
	if err := in.EnableDNS("ns"); err != nil {
		return nil, err
	}
	servers := make(map[string]*netstack.HTTPServer, nBackends)
	for _, n := range names {
		srv, err := netstack.NewHTTPServerOwned("httpd-"+n, in.Machine(n).Stack, 80,
			netstack.InKernelDelivery, netstack.ContentMap{"/": []byte("ok " + n)})
		if err != nil {
			return nil, err
		}
		servers[n] = srv
		// Crash-only: DestroyDomain("httpd-bN") also withdraws bN's DNS name.
		if err := in.WithdrawOnDestroy(n, "httpd-"+n); err != nil {
			return nil, err
		}
	}
	bal, err := in.Balancer("client", cfg, names...)
	if err != nil {
		return nil, err
	}
	rd, err := in.ResilientDialer("client", bal, policy)
	if err != nil {
		return nil, err
	}
	return &failoverLab{
		in:  in,
		bal: bal,
		rd:  rd,
		httpc: &http.Client{Transport: &http.Transport{
			DialContext:       rd.DialContext,
			DisableKeepAlives: true,
		}},
		names:   names,
		servers: servers,
	}, nil
}

// sleep advances virtual time from the client's blocking goroutine — the
// pacing between requests.
func (lab *failoverLab) sleep(d sim.Duration) {
	fired := false
	drv := lab.in.Driver()
	eng := lab.in.Machine("client").Engine
	drv.Run(func() { eng.After(d, func() { fired = true }) })
	drv.WaitUntil(func() bool { return fired })
}

// get performs one HTTP transaction through the resilient dialer. All the
// blocking calls happen on the calling goroutine — the byte-identical
// replay contract — unlike http.Client, whose split read/write loops
// interleave with the simulation at wall-clock whim.
func (lab *failoverLab) get() (string, error) {
	conn, err := lab.rd.Dial("tcp", "app.spin.test:80")
	if err != nil {
		return "", err
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET / HTTP/1.1\r\nHost: app.spin.test\r\nConnection: close\r\n\r\n"); err != nil {
		return "", err
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", errors.New(resp.Status)
	}
	return string(body), nil
}

// drive issues requests sequentially (one blocking goroutine: the replay
// contract), paced apart in virtual time, and counts successes.
func (lab *failoverLab) drive(requests int, pace sim.Duration) (ok, failed int) {
	for i := 0; i < requests; i++ {
		if _, err := lab.get(); err == nil {
			ok++
		} else {
			failed++
		}
		lab.sleep(pace)
	}
	return ok, failed
}

// counts renders per-backend service counts — the determinism experiment's
// second fingerprint (identical seeds must route identically).
func (lab *failoverLab) counts() string {
	s := ""
	for _, n := range lab.names {
		s += fmt.Sprintf("%s:served=%d,ok=%d;", n, lab.servers[n].Requests, lab.bal.Successes(n))
	}
	return s
}

// shutdown stops periodic health probing (else the engine queue never
// empties) and drains the topology.
func (lab *failoverLab) shutdown() {
	lab.in.Driver().Run(lab.bal.StopHealth)
	lab.in.Driver().Drain()
}

// resolveSync is a blocking LookupA over the topology driver.
func resolveSync(in *Internet, r *netstack.Resolver, host string) ([]netstack.IPAddr, error) {
	var (
		addrs []netstack.IPAddr
		rerr  error
		done  bool
	)
	drv := in.Driver()
	drv.Run(func() {
		r.LookupA(host, func(a []netstack.IPAddr, err error) { addrs, rerr, done = a, err, true })
	})
	drv.WaitUntil(func() bool { return done })
	return addrs, rerr
}

// The capstone experiment (EXPERIMENTS.md "failover"): 5 replicated
// backends; the run kills one (crash-only DestroyDomain, DNS withdrawn)
// and partitions another for 800ms. SLO: availability >= 99%, retries
// bounded by the budget the traffic earned, the killed backend ejected
// within 1s of the kill, and the partitioned backend back in the ring
// after it heals.
func TestFailoverSLOExperiment(t *testing.T) {
	lab, err := failoverStar(21, 5, lb.Config{}, lb.RetryPolicy{
		MaxAttempts:    4,
		AttemptTimeout: 300 * sim.Millisecond,
		BaseBackoff:    10 * sim.Millisecond,
		MaxBackoff:     100 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	const (
		requests = 300
		pace     = 10 * sim.Millisecond
		flapAt   = sim.Time(500 * sim.Millisecond)
		flapHeal = sim.Time(1300 * sim.Millisecond)
		killAt   = sim.Time(1800 * sim.Millisecond)
	)
	if err := lab.in.FlapLink("b2~s0", flapAt, flapHeal); err != nil {
		t.Fatal(err)
	}
	var killReport domain.DestroyReport
	lab.in.At(killAt, func() {
		killReport = lab.in.Machine("b1").DestroyDomain(domain.Identity{Name: "httpd-b1"})
	})
	// Sample convergence shortly after the kill, before any later breaker
	// activity (the dead backend's half-open probes re-open it forever).
	var ejectAt sim.Time
	lab.in.At(killAt.Add(sim.Duration(sim.Second)), func() { ejectAt = lab.bal.LastEjectAt() })

	lab.in.Driver().Run(lab.bal.StartHealth)
	ok, failed := lab.drive(requests, pace)
	lab.shutdown()

	// SLO: availability.
	if avail := float64(ok) / requests; avail < 0.99 {
		t.Errorf("availability %.2f%% (ok=%d failed=%d), SLO is >= 99%%", avail*100, ok, failed)
	}
	// SLO: no retry storm — retries bounded by what the budget allows
	// (initial half bucket + per-request earnings).
	reqs, attempts, retries, failovers := lab.rd.Stats()
	if reqs != requests {
		t.Errorf("requests = %d, want %d", reqs, requests)
	}
	maxRetries := int64(5 + 0.1*requests) // BudgetCap/2 to start + BudgetRatio per request
	if retries > maxRetries {
		t.Errorf("retries = %d, exceeds earned budget %d", retries, maxRetries)
	}
	if attempts != reqs+retries {
		t.Errorf("attempts = %d, want requests+retries = %d", attempts, reqs+retries)
	}
	if failovers == 0 {
		t.Error("no failovers despite a kill and a partition")
	}
	// SLO: re-convergence — the kill ejects b1 from the ring within 1s.
	if ejectAt < killAt {
		t.Fatalf("no ejection after the kill (lastEject %v, kill %v)", ejectAt, killAt)
	}
	if conv := ejectAt.Sub(killAt); conv > sim.Duration(sim.Second) {
		t.Errorf("re-convergence took %v, want <= 1s", conv)
	}
	// The partitioned backend healed and rejoined the ring.
	if rejoin := lab.bal.LastRejoinAt(); rejoin <= flapHeal {
		t.Errorf("partitioned backend never rejoined after heal (lastRejoin %v)", rejoin)
	}
	// Crash-only teardown withdrew the DNS record...
	if killReport.Reclaimed["vnet.dns"] != 1 {
		t.Errorf("kill reclaimed %v, want vnet.dns:1", killReport.Reclaimed)
	}
	if killReport.Reclaimed["net.tcp"] == 0 {
		t.Errorf("kill reclaimed %v, want the listener gone too", killReport.Reclaimed)
	}
	// ...so the dead name now resolves to NXDOMAIN, not a stale address.
	if _, err := resolveSync(lab.in, lab.in.Machine("client").Resolver, "b1.spin.test"); !errors.Is(err, netstack.ErrNameNotFound) {
		t.Errorf("resolving the killed backend: err = %v, want ErrNameNotFound", err)
	}
	// The survivors all took traffic.
	for _, n := range []string{"b0", "b2", "b3", "b4"} {
		if lab.bal.Successes(n) == 0 {
			t.Errorf("backend %s served nothing", n)
		}
	}
	// The EXPERIMENTS.md "failover" table is read off this line.
	t.Logf("ok=%d failed=%d attempts=%d retries=%d failovers=%d reconverge=%v ejections=%d reclaimed=%v",
		ok, failed, attempts, retries, failovers, ejectAt.Sub(killAt), lab.bal.Ejections(), killReport.Reclaimed)
}

// Satellite: failover is deterministic. The same seed replays the whole
// kill-one-backend run byte-identically — topology fingerprint AND
// per-backend request counts — while a different seed diverges.
func TestFailoverDeterministic(t *testing.T) {
	const (
		requests = 120
		pace     = 10 * sim.Millisecond
		killAt   = sim.Time(400 * sim.Millisecond)
	)
	run := func(seed uint64) (fp uint64, counts string, err error) {
		var lab *failoverLab
		fp, err = CheckReplay(1,
			func() (*Internet, error) {
				var e error
				lab, e = failoverStar(seed, 5, lb.Config{}, lb.RetryPolicy{AttemptTimeout: 300 * sim.Millisecond})
				return lab.in, e
			},
			func(in *Internet) error {
				in.At(killAt, func() {
					in.Machine("b1").DestroyDomain(domain.Identity{Name: "httpd-b1"})
				})
				in.Driver().Run(lab.bal.StartHealth)
				ok, _ := lab.drive(requests, pace)
				lab.shutdown()
				if ok == 0 {
					return errors.New("no request succeeded")
				}
				return nil
			})
		return fp, lab.counts(), err
	}

	fp1, counts1, err := run(77)
	if err != nil {
		t.Fatal(err)
	}
	fp2, counts2, err := run(77)
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Errorf("same seed, different fingerprints: %#x vs %#x", fp1, fp2)
	}
	if counts1 != counts2 {
		t.Errorf("same seed, different per-backend counts:\n  %s\n  %s", counts1, counts2)
	}
	fp3, _, err := run(78)
	if err != nil {
		t.Fatal(err)
	}
	if fp3 == fp1 {
		t.Error("different seed, identical fingerprint — seed not reaching the failover path")
	}
}

// Satellite regression: withdrawing a name (RemoveName, or DestroyDomain
// through WithdrawOnDestroy) must flush it from every internet-owned
// resolver, so the next resolve consults the authority and sees NXDOMAIN —
// bounded by the negative TTL — instead of serving the stale A record for
// its remaining positive TTL (60s).
func TestRemoveNameBoundsStaleness(t *testing.T) {
	lab, err := failoverStar(5, 2, lb.Config{}, lb.RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	in := lab.in
	res := in.Machine("client").Resolver
	if _, err := resolveSync(in, res, "b1.spin.test"); err != nil {
		t.Fatalf("initial resolve: %v", err)
	}
	q0 := metrics.Value(in.Machine("ns").DNS, "dns_server_queries")

	removed := false
	in.Driver().Run(func() { removed = in.RemoveName("b1") })
	if !removed {
		t.Fatal("RemoveName did not find b1 in the zone")
	}
	// Immediately re-resolve: the positive cache entry had ~60s of TTL
	// left, but the flush forces an authoritative query -> NXDOMAIN.
	if _, err := resolveSync(in, res, "b1.spin.test"); !errors.Is(err, netstack.ErrNameNotFound) {
		t.Fatalf("re-resolve after withdrawal: err = %v, want ErrNameNotFound (not the stale A)", err)
	}
	q1 := metrics.Value(in.Machine("ns").DNS, "dns_server_queries")
	if q1 != q0+1 {
		t.Errorf("authority queries %v -> %v, want exactly one more (flushed entry re-fetched)", q0, q1)
	}
	// Within the negative TTL the NXDOMAIN is served from cache.
	if _, err := resolveSync(in, res, "b1.spin.test"); !errors.Is(err, netstack.ErrNameNotFound) {
		t.Fatalf("negative-cached resolve: err = %v", err)
	}
	if q2 := metrics.Value(in.Machine("ns").DNS, "dns_server_queries"); q2 != q1 {
		t.Errorf("authority queried again within the negative TTL (%v -> %v)", q1, q2)
	}
	// Re-pointing the name and waiting out the negative TTL restores it:
	// the stale window is bounded, in both directions, by the TTLs.
	if err := in.AddName("b1", "b0"); err != nil {
		t.Fatal(err)
	}
	lab.sleep(6 * sim.Second) // past the 5s default negative TTL
	addrs, err := resolveSync(in, res, "b1.spin.test")
	if err != nil {
		t.Fatalf("resolve after re-point + negative TTL: %v", err)
	}
	if len(addrs) != 1 || addrs[0] != in.IP("b0") {
		t.Errorf("re-pointed resolve = %v, want %v", addrs, in.IP("b0"))
	}
	lab.shutdown()
}

// Stock net/http still composes: an unmodified http.Client whose transport
// dials through the ResilientDialer fails over when a backend is killed
// mid-run, with passive outlier detection alone (no active probes, so the
// engine queue quiesces between requests the way net/http's split
// read/write goroutines require for replay).
func TestFailoverHTTPClientPassive(t *testing.T) {
	lab, err := failoverStar(33, 5, lb.Config{}, lb.RetryPolicy{AttemptTimeout: 300 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const killAt = sim.Time(100 * sim.Millisecond)
	lab.in.At(killAt, func() {
		lab.in.Machine("b2").DestroyDomain(domain.Identity{Name: "httpd-b2"})
	})
	ok := 0
	for i := 0; i < 40; i++ {
		resp, err := lab.httpc.Get("http://app.spin.test/")
		if err != nil {
			t.Errorf("request %d: %v", i, err)
			continue
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode == http.StatusOK && len(body) > 0 {
			ok++
		}
		lab.sleep(20 * sim.Millisecond)
	}
	lab.shutdown()
	if ok != 40 {
		t.Errorf("ok = %d/40; failover through net/http lost requests", ok)
	}
	// The dead backend was ejected by passive detection alone.
	if lab.bal.Ejections() == 0 {
		t.Error("no ejections — passive outlier detection never tripped")
	}
	if slices.Contains(lab.bal.Members(), "b2") {
		t.Error("killed backend still closed (in ring) at end of run")
	}
}

// The virtual time from a backend's crash-only kill to its ejection from
// the ring, driven purely by active health checks (no client traffic), is
// deterministic: it moves only when probe cadence, breaker thresholds or the
// per-packet cost model change, and then this constant changes in the same
// diff.
func TestFailoverReconvergeVirtualTime(t *testing.T) {
	const killAt = sim.Time(500 * sim.Millisecond)
	lab, err := failoverStar(9, 5, lb.Config{}, lb.RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	lab.in.At(0, lab.bal.StartHealth)
	lab.in.At(killAt, func() {
		lab.in.Machine("b1").DestroyDomain(domain.Identity{Name: "httpd-b1"})
	})
	if !lab.in.RunUntil(func() bool { return lab.bal.LastEjectAt() >= killAt }, sim.Time(10*sim.Second)) {
		t.Fatal("never re-converged")
	}
	if got, want := lab.bal.LastEjectAt().Sub(killAt), sim.Duration(649335342); got != want {
		t.Errorf("re-converged %d virtual ns after the kill, want exactly %d", got, want)
	}
}
