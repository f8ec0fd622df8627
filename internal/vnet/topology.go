package vnet

import (
	"fmt"

	"spin"
	"spin/internal/netstack"
	"spin/internal/sal"
	"spin/internal/sim"
)

// VirtualEtherModel is the default NIC for topology hosts: a fast virtual
// Ethernet whose card adds no fixed latency (delay lives on the links) and
// whose driver costs are small, so large topologies spend their virtual
// time in the links and protocols under test, not the NIC model.
var VirtualEtherModel = sal.NICModel{
	Name:           "Virtual Ethernet",
	WireRate:       1_000_000_000,
	FrameOverhead:  24,
	DMASetup:       1 * sim.Microsecond,
	FixedLatency:   0,
	DriverSendCost: 2 * sim.Microsecond,
	DriverRecvCost: 3 * sim.Microsecond,
}

const (
	nodeMachine = iota + 1
	nodeSwitch
)

type machineSpec struct {
	name string
	ip   netstack.IPAddr
	cfg  spin.Config
}

type linkSpec struct {
	name, a, b string
	model      LinkModel
}

// Builder is the topology DSL. Calls chain; errors latch and surface at
// Build:
//
//	inet, err := vnet.NewBuilder(seed).
//		Machine("a", 0).Machine("b", 0).Switch("s0").
//		Link("a", "s0", edge).Link("b", "s0", edge).
//		Build()
type Builder struct {
	seed     uint64
	nicModel sal.NICModel
	err      error

	nodes    map[string]int
	machines []machineSpec
	switches []string
	links    []linkSpec
}

// NewBuilder starts a topology. seed drives every link's fault models.
func NewBuilder(seed uint64) *Builder {
	return &Builder{
		seed:     seed,
		nicModel: VirtualEtherModel,
		nodes:    make(map[string]int),
	}
}

func (b *Builder) fail(format string, args ...any) *Builder {
	if b.err == nil {
		b.err = fmt.Errorf("vnet: "+format, args...)
	}
	return b
}

// NICModel overrides the NIC model topology hosts get (default
// VirtualEtherModel).
func (b *Builder) NICModel(m sal.NICModel) *Builder {
	b.nicModel = m
	return b
}

// Machine declares a host. ip 0 auto-assigns 10.x.y.1 by declaration order.
func (b *Builder) Machine(name string, ip netstack.IPAddr) *Builder {
	return b.MachineCfg(name, spin.Config{IP: ip})
}

// MachineCfg declares a host with a full machine configuration (CPUs,
// memory, profile). cfg.IP 0 auto-assigns.
func (b *Builder) MachineCfg(name string, cfg spin.Config) *Builder {
	if b.nodes[name] != 0 {
		return b.fail("duplicate node %q", name)
	}
	b.nodes[name] = nodeMachine
	b.machines = append(b.machines, machineSpec{name: name, ip: cfg.IP, cfg: cfg})
	return b
}

// Switch declares a store-and-forward switch node.
func (b *Builder) Switch(name string) *Builder {
	if b.nodes[name] != 0 {
		return b.fail("duplicate node %q", name)
	}
	b.nodes[name] = nodeSwitch
	b.switches = append(b.switches, name)
	return b
}

// Link joins two declared nodes with a modeled link named "a~b".
func (b *Builder) Link(a, bn string, m LinkModel) *Builder {
	return b.LinkNamed(a+"~"+bn, a, bn, m)
}

// LinkNamed joins two declared nodes under an explicit link name (needed
// for parallel links between the same pair).
func (b *Builder) LinkNamed(name, a, bn string, m LinkModel) *Builder {
	if b.nodes[a] == 0 || b.nodes[bn] == 0 {
		return b.fail("link %q: unknown node", name)
	}
	if a == bn {
		return b.fail("link %q: self loop", name)
	}
	for _, l := range b.links {
		if l.name == name {
			return b.fail("duplicate link %q (use LinkNamed)", name)
		}
	}
	b.links = append(b.links, linkSpec{name: name, a: a, b: bn, model: m})
	return b
}

// attachment is one node's end of one link: the NIC (machine side) or port
// (switch side) facing the link, plus the outbound half.
type attachment struct {
	neighbor string
	nic      *sal.NIC
	port     *Port
	out      *half
}

// Build constructs the Internet: boots machines, wires links, computes BFS
// shortest-path routes for every machine address, and registers every
// engine with one conservative cluster.
func (b *Builder) Build() (*Internet, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.machines) == 0 {
		return nil, fmt.Errorf("vnet: topology has no machines")
	}
	in := &Internet{
		cluster:  sim.NewCluster(),
		coord:    sim.NewEngine(),
		seed:     b.seed,
		machines: make(map[string]*spin.Machine, len(b.machines)),
		switches: make(map[string]*Switch, len(b.switches)),
		links:    make(map[string]*Link, len(b.links)),
	}
	for i, ms := range b.machines {
		cfg := ms.cfg
		if cfg.IP == 0 {
			n := i + 1
			cfg.IP = netstack.Addr(10, byte(n>>8), byte(n), 1)
		}
		m, err := spin.NewMachine(ms.name, cfg)
		if err != nil {
			return nil, fmt.Errorf("vnet: boot %q: %w", ms.name, err)
		}
		in.machines[ms.name] = m
		in.machineOrder = append(in.machineOrder, ms.name)
	}
	for _, name := range b.switches {
		in.switches[name] = newSwitch(name)
		in.switchOrder = append(in.switchOrder, name)
	}

	// Wire links: each end gets a NIC (machine) or port (switch); each
	// direction's half transmits to the far end's endpoint.
	adj := make(map[string][]*attachment, len(b.nodes))
	endAt := func(node, far string, out *half) (*attachment, endpoint) {
		at := &attachment{neighbor: far, out: out}
		if m := in.machines[node]; m != nil {
			at.nic = m.AddNIC(b.nicModel)
			at.nic.AttachWire(out)
			adj[node] = append(adj[node], at)
			return at, at.nic
		}
		sw := in.switches[node]
		at.port = sw.addPort(far)
		at.port.out = out
		adj[node] = append(adj[node], at)
		return at, at.port
	}
	for _, ls := range b.links {
		l := newLink(ls.name, ls.model, b.seed)
		l.ab.dir = ls.a + "->" + ls.b
		l.ba.dir = ls.b + "->" + ls.a
		_, epA := endAt(ls.a, ls.b, l.ab)
		_, epB := endAt(ls.b, ls.a, l.ba)
		l.ab.to = epB
		l.ba.to = epA
		in.links[ls.name] = l
		in.linkOrder = append(in.linkOrder, ls.name)
	}

	b.computeRoutes(in, adj)

	for _, name := range in.machineOrder {
		in.cluster.Add(in.machines[name].Engine)
	}
	for _, name := range in.switchOrder {
		in.cluster.Add(in.switches[name].Engine())
	}
	in.cluster.Add(in.coord)
	return in, nil
}

// computeRoutes runs one BFS per destination machine over the node graph
// and programs, at every other node, the attachment its shortest path
// leaves through: host stacks get AddRoute, switches get route-table
// entries. Declaration order makes tie-breaks deterministic. A host's routes
// are collected and installed together, one table publish per machine.
func (b *Builder) computeRoutes(in *Internet, adj map[string][]*attachment) {
	hostRoutes := make(map[string]map[netstack.IPAddr]*sal.NIC, len(in.machines))
	for _, name := range in.machineOrder {
		hostRoutes[name] = make(map[netstack.IPAddr]*sal.NIC, len(in.machines)-1)
	}
	for _, dstName := range in.machineOrder {
		dstIP := in.machines[dstName].Stack.IP
		// BFS from the destination; the edge by which a node is first
		// discovered is the first hop of its shortest path back.
		visited := map[string]bool{dstName: true}
		queue := []string{dstName}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, at := range adj[u] {
				v := at.neighbor
				if visited[v] {
					continue
				}
				visited[v] = true
				queue = append(queue, v)
				// v reaches dst via its own side of this edge: the
				// attachment on v whose outbound half is the reverse
				// direction of at.out's link.
				back := reverseAttachment(adj[v], at)
				if back == nil {
					continue
				}
				if routes := hostRoutes[v]; routes != nil {
					routes[dstIP] = back.nic
				} else if sw := in.switches[v]; sw != nil {
					sw.routes[dstIP] = back.port
				}
			}
		}
	}
	for _, name := range in.machineOrder {
		in.machines[name].Stack.AddRoutes(hostRoutes[name])
	}
}

// reverseAttachment finds, among v's attachments, the end of the same link
// as at (the halves of one link point at each other's link).
func reverseAttachment(atts []*attachment, at *attachment) *attachment {
	for _, cand := range atts {
		if cand.out.link == at.out.link {
			return cand
		}
	}
	return nil
}

// Star builds n hosts ("h0".."h{n-1}") around one switch ("s0"), every
// spoke carrying the same link model.
func Star(n int, spoke LinkModel, seed uint64) (*Internet, error) {
	b := NewBuilder(seed).Switch("s0")
	for i := 0; i < n; i++ {
		h := fmt.Sprintf("h%d", i)
		b.Machine(h, 0).Link(h, "s0", spoke)
	}
	return b.Build()
}

// Dumbbell builds the classic bottleneck topology: left hosts ("l0"..)
// on switch "sl", right hosts ("r0"..) on switch "sr", and one shared
// "bottleneck" link between the switches.
func Dumbbell(left, right int, edge, bottleneck LinkModel, seed uint64) (*Internet, error) {
	b := NewBuilder(seed).Switch("sl").Switch("sr").
		LinkNamed("bottleneck", "sl", "sr", bottleneck)
	for i := 0; i < left; i++ {
		h := fmt.Sprintf("l%d", i)
		b.Machine(h, 0).Link(h, "sl", edge)
	}
	for i := 0; i < right; i++ {
		h := fmt.Sprintf("r%d", i)
		b.Machine(h, 0).Link(h, "sr", edge)
	}
	return b.Build()
}

// FatTree builds a two-level multi-rooted tree: cores core switches
// ("c0"..), edges edge switches ("e0"..) each uplinked to every core, and
// hostsPerEdge hosts ("h0".."..") per edge switch. Cross-edge traffic
// transits one core (BFS picks the first-declared one, deterministically).
func FatTree(cores, edges, hostsPerEdge int, up, down LinkModel, seed uint64) (*Internet, error) {
	b := NewBuilder(seed)
	for c := 0; c < cores; c++ {
		b.Switch(fmt.Sprintf("c%d", c))
	}
	for e := 0; e < edges; e++ {
		es := fmt.Sprintf("e%d", e)
		b.Switch(es)
		for c := 0; c < cores; c++ {
			b.Link(es, fmt.Sprintf("c%d", c), up)
		}
		for h := 0; h < hostsPerEdge; h++ {
			hn := fmt.Sprintf("h%d", e*hostsPerEdge+h)
			b.Machine(hn, 0).Link(hn, es, down)
		}
	}
	return b.Build()
}
