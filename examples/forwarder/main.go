// Forwarder: the paper's protocol-forwarding experiment (§5.3, Table 6).
//
// A middle SPIN machine installs a forwarding node into its protocol stack
// that redirects all data AND control packets for a port to a secondary
// host. Because it intercepts below the transport layer, a TCP connection
// through it is truly end-to-end between client and server — the middle
// host holds no transport state — unlike a user-level socket splice.
//
// Run with: go run ./examples/forwarder
package main

import (
	"bytes"
	"fmt"
	"log"

	"spin"
	"spin/internal/netstack"
	"spin/internal/sal"
	"spin/internal/sim"
)

func main() {
	client := boot("client", netstack.Addr(10, 0, 0, 1))
	mid := boot("mid", netstack.Addr(10, 0, 0, 2))
	server := boot("server", netstack.Addr(10, 0, 0, 3))

	// client <-> mid <-> server over Ethernet.
	cNIC := client.AddNIC(sal.LanceModel)
	m1 := mid.AddNIC(sal.LanceModel)
	m2 := mid.AddNIC(sal.LanceModel)
	sNIC := server.AddNIC(sal.LanceModel)
	must(sal.Connect(cNIC, m1))
	must(sal.Connect(m2, sNIC))
	mid.Stack.AddRoute(client.Stack.IP, m1)
	mid.Stack.AddRoute(server.Stack.IP, m2)

	// Install the in-kernel forwarding extension for TCP port 80 on mid:
	// traffic to mid:80 lands on the server; replies are masqueraded.
	fwd, err := netstack.NewForwarder(mid.Stack, netstack.ProtoTCP, 80, server.Stack.IP)
	must(err)
	rev, err := netstack.NewReverseForwarder(mid.Stack, netstack.ProtoTCP, 80, server.Stack.IP, client.Stack.IP)
	must(err)

	// The real server lives behind the forwarder.
	srv, err := netstack.NewHTTPServer(server.Stack, 80, netstack.InKernelDelivery,
		netstack.ContentMap{"/": []byte("served from 10.0.0.3 via the forwarder on 10.0.0.2")})
	must(err)

	// The client talks to MID's address; it never learns the server's.
	var body []byte
	done := false
	must(netstack.HTTPGet(client.Stack, mid.Stack.IP, 80, "/", netstack.InKernelDelivery,
		func(status string, b []byte) {
			body = bytes.Clone(b) // the body is lent until done returns
			done = true
		}))

	cluster := sim.NewCluster(client.Engine, mid.Engine, server.Engine)
	if !cluster.RunUntil(func() bool { return done }, 0) {
		log.Fatal("transaction never completed")
	}

	fmt.Printf("client asked %v for /, got: %q\n", mid.Stack.IP, body)
	fmt.Printf("packets forwarded: %d inbound, %d return\n", fwd.Forwarded, rev.Forwarded)
	fmt.Printf("server handled %d request(s)\n", srv.Requests)
	fmt.Printf("TCP state on the middle host: %d connections — end-to-end semantics preserved\n",
		mid.Stack.TCP().Conns())
}

func boot(name string, ip netstack.IPAddr) *spin.Machine {
	m, err := spin.NewMachine(name, spin.Config{IP: ip})
	must(err)
	return m
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
