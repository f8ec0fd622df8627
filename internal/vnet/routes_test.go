package vnet

import (
	"strings"
	"testing"

	"spin/internal/netstack"
	"spin/internal/sim"
)

// bruteRoutes recomputes, from the declared links alone, the link each node
// leaves through toward each machine: for every destination a BFS over node
// names with each node's neighbours in link-declaration order, a node
// leaving through the link it was first reached by. It also returns each
// node's links in declaration order.
func bruteRoutes(in *Internet) (via map[string]map[netstack.IPAddr]string, links map[string][]string) {
	type edge struct{ node, link string }
	adj := map[string][]edge{}
	links = map[string][]string{}
	for _, name := range in.Links() {
		a, b, _ := strings.Cut(in.Link(name).ab.dir, "->")
		adj[a] = append(adj[a], edge{b, name})
		adj[b] = append(adj[b], edge{a, name})
		links[a] = append(links[a], name)
		links[b] = append(links[b], name)
	}
	via = map[string]map[netstack.IPAddr]string{}
	for _, dst := range in.Machines() {
		ip := in.IP(dst)
		seen := map[string]bool{dst: true}
		for queue := []string{dst}; len(queue) > 0; queue = queue[1:] {
			for _, e := range adj[queue[0]] {
				if seen[e.node] {
					continue
				}
				seen[e.node] = true
				queue = append(queue, e.node)
				if via[e.node] == nil {
					via[e.node] = map[netstack.IPAddr]string{}
				}
				via[e.node][ip] = e.link
			}
		}
	}
	return via, links
}

// Every switch table is the brute-force BFS's, entry for entry, and a host
// holds a route exactly where the BFS leaves it through a link other than
// its first, whose NIC is its stack's default route.
func TestRoutesMatchBruteForceBFS(t *testing.T) {
	fast := LinkModel{Latency: 10 * sim.Microsecond}
	dualHomed := func() (*Internet, error) {
		return NewBuilder(5).Switch("s0").Switch("s1").
			Machine("a", 0).Machine("b", 0).Machine("r", 0).Machine("c", 0).
			Link("a", "s0", fast).Link("b", "s0", fast).
			Link("r", "s0", fast).Link("r", "s1", fast).Link("c", "s1", fast).
			Build()
	}
	for name, build := range map[string]func() (*Internet, error){
		"star":       func() (*Internet, error) { return Star(9, fast, 1) },
		"dumbbell":   func() (*Internet, error) { return Dumbbell(3, 4, fast, fast, 2) },
		"fattree":    func() (*Internet, error) { return FatTree(3, 4, 3, fast, fast, 3) },
		"dual-homed": dualHomed,
	} {
		in, err := build()
		if err != nil {
			t.Fatal(err)
		}
		via, links := bruteRoutes(in)
		for _, sname := range in.Switches() {
			sw := in.Switch(sname)
			if len(sw.routes) != len(via[sname]) {
				t.Errorf("%s: switch %s has %d routes, BFS %d", name, sname, len(sw.routes), len(via[sname]))
			}
			for ip, link := range via[sname] {
				if p := sw.routes[ip]; p == nil || p.out.(*half).link.Name != link {
					t.Errorf("%s: switch %s routes %v wrong: BFS leaves by %s", name, sname, ip, link)
				}
			}
		}
		multi := 0
		for _, host := range in.Machines() {
			want := 0
			for _, link := range via[host] {
				if link != links[host][0] {
					want++
				}
			}
			if got := in.Machine(host).Stack.Routes(); got != want {
				t.Errorf("%s: host %s holds %d routes, want %d", name, host, got, want)
			}
			multi += want
		}
		if name == "dual-homed" && multi != 1 {
			t.Errorf("dual-homed: %d host routes, want r's one route to c", multi)
		}
	}
}
