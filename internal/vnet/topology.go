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
	seed uint64
	err  error

	nodes    map[string]int
	machines []machineSpec
	switches []string
	links    []linkSpec
}

// NewBuilder starts a topology. seed drives every link's fault models.
func NewBuilder(seed uint64) *Builder {
	return &Builder{
		seed:  seed,
		nodes: make(map[string]int),
	}
}

func (b *Builder) fail(format string, args ...any) *Builder {
	if b.err == nil {
		b.err = fmt.Errorf("vnet: "+format, args...)
	}
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
// (switch side) facing the link, the node at the far end, and the far end's
// own attachment.
type attachment struct {
	nic  *sal.NIC
	port *Port
	peer int
	back *attachment
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
	// Nodes are numbered machines first, then switches, each in
	// declaration order.
	index := make(map[string]int, len(b.nodes))
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
		index[ms.name] = i
	}
	for _, name := range b.switches {
		in.switches[name] = newSwitch(name)
		in.switchOrder = append(in.switchOrder, name)
		index[name] = len(index)
	}

	// Wire links: each end gets a NIC (machine) or port (switch); each
	// direction's half transmits to the far end's endpoint.
	adj := make([][]*attachment, len(index))
	endAt := func(node, far string, out *half) (*attachment, endpoint) {
		at := &attachment{peer: index[far]}
		adj[index[node]] = append(adj[index[node]], at)
		if m := in.machines[node]; m != nil {
			at.nic = m.AddNIC(VirtualEtherModel)
			at.nic.AttachWire(out)
			return at, at.nic
		}
		at.port = in.switches[node].addPort()
		at.port.out = out
		return at, at.port
	}
	for _, ls := range b.links {
		l := newLink(ls.name, ls.model, b.seed)
		l.ab.origin = ls.name + " " + ls.a + "->" + ls.b
		l.ba.origin = ls.name + " " + ls.b + "->" + ls.a
		atA, epA := endAt(ls.a, ls.b, l.ab)
		atB, epB := endAt(ls.b, ls.a, l.ba)
		atA.back, atB.back = atB, atA
		l.ab.to = epB
		l.ba.to = epA
		in.links[ls.name] = l
		in.linkOrder = append(in.linkOrder, ls.name)
	}

	computeRoutes(in, adj)

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
// leaves through: switches get route-table entries, and a host gets a route
// only where that attachment is not its first NIC, which is its stack's
// default route, so a single-NIC host holds no route table. Declaration
// order makes tie-breaks deterministic. A host's routes are collected and
// installed together, one table publish per machine.
func computeRoutes(in *Internet, adj [][]*attachment) {
	hostRoutes := make([]map[netstack.IPAddr]*sal.NIC, len(in.machineOrder))
	// seen[v] is one more than the last destination whose BFS reached v.
	seen := make([]int, len(adj))
	queue := make([]int, 0, len(adj))
	for dst, dstName := range in.machineOrder {
		dstIP := in.machines[dstName].Stack.IP
		seen[dst] = dst + 1
		queue = append(queue[:0], dst)
		// The edge by which a node is first discovered is the first hop of
		// its shortest path back, and its own end of that edge is where
		// the path leaves it.
		for i := 0; i < len(queue); i++ {
			for _, at := range adj[queue[i]] {
				v := at.peer
				if seen[v] == dst+1 {
					continue
				}
				seen[v] = dst + 1
				queue = append(queue, v)
				switch back := at.back; {
				case back.port != nil:
					back.port.sw.routes[dstIP] = back.port
				case back != adj[v][0]:
					if hostRoutes[v] == nil {
						hostRoutes[v] = make(map[netstack.IPAddr]*sal.NIC)
					}
					hostRoutes[v][dstIP] = back.nic
				}
			}
		}
	}
	for i, routes := range hostRoutes {
		if routes != nil {
			in.machines[in.machineOrder[i]].Stack.AddRoutes(routes)
		}
	}
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
