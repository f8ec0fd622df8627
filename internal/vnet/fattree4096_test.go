//go:build !race

package vnet

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"spin/internal/netstack"
	"spin/internal/sim"
)

// A 4,096-host fat tree is a configuration, not a subsystem: a host costs
// what it touches, so the whole tree, named, fits under a fixed heap
// ceiling, and one request crosses it from the last host to h1.
func TestFatTree4096(t *testing.T) {
	if testing.Short() {
		t.Skip("boots 4,096 machines")
	}
	const ceiling = 160 << 20
	start := time.Now()
	in, err := FatTree(2, 64, 64, LinkModel{Latency: 100 * sim.Microsecond}, LinkModel{Latency: 50 * sim.Microsecond}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.EnableDNS("h0"); err != nil {
		t.Fatal(err)
	}
	built := time.Since(start)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.Logf("%d hosts built and named in %v; %.1f MiB retained", len(in.Machines()), built, float64(ms.HeapAlloc)/(1<<20))
	if ms.HeapAlloc > ceiling {
		t.Errorf("idle tree retains %.1f MiB, ceiling %d", float64(ms.HeapAlloc)/(1<<20), ceiling>>20)
	}

	page := bytes.Repeat([]byte("spin "), 500)
	if _, err := netstack.NewHTTPServer(in.Machine("h1").Stack, 80, nil, netstack.ContentMap{"/": page}); err != nil {
		t.Fatal(err)
	}
	client := in.Machine(in.Machines()[len(in.Machines())-1])
	var status string
	var body []byte
	done := false
	client.Resolver.LookupA("h1."+DNSDomain, func(addrs []netstack.IPAddr, err error) {
		if err == nil && len(addrs) > 0 {
			err = netstack.HTTPGet(client.Stack, addrs[0], 80, "/", nil, func(s string, b []byte) {
				status, body, done = s, b, true
			})
		}
		if err != nil || len(addrs) == 0 {
			t.Errorf("resolve h1 from %s: %v %v", client.Name, addrs, err)
			done = true
		}
	})
	in.RunUntil(func() bool { return done }, sim.Time(10*sim.Second))
	if status != "HTTP/1.0 200 OK" || !bytes.Equal(body, page) {
		t.Fatalf("GET h1 from %s: status %q, %d of %d bytes", client.Name, status, len(body), len(page))
	}
}
