package vnet

import (
	"fmt"

	"spin/internal/netstack"
	"spin/internal/sim"
)

// Named-service topologies: one machine becomes the topology's DNS
// authority (every host gets "<name>.spin.test" plus any aliases), every
// other machine gets a stub resolver pointing at it, and the whole cluster
// can be driven by blocking stdlib-style code — net/http included —
// through a shared netstack.Driver.

// DNSDomain is the suffix every topology machine is named under.
const DNSDomain = "spin.test"

// defaultDNSTTL is how long resolvers may cache topology names.
const defaultDNSTTL = 60 * sim.Second

// EnableDNS makes machine `server` the topology's authoritative DNS
// server: its zone maps "<name>.spin.test" to every machine's address, and
// every machine (the server included) gets a resolver pointed at it,
// seeded from the topology seed so lookups replay byte-identically.
// Call before the simulation runs; AddName adds service aliases after.
func (in *Internet) EnableDNS(server string) error {
	if in.dnsServer != "" {
		return fmt.Errorf("vnet: DNS already served by %q", in.dnsServer)
	}
	srv := in.machines[server]
	if srv == nil {
		return fmt.Errorf("vnet: EnableDNS: unknown machine %q", server)
	}
	zone := netstack.NewZone()
	for _, name := range in.machineOrder {
		if err := zone.AddA(name+"."+DNSDomain, defaultDNSTTL, in.machines[name].Stack.IP); err != nil {
			return err
		}
	}
	if err := srv.ServeDNS(zone); err != nil {
		return err
	}
	for _, name := range in.machineOrder {
		m := in.machines[name]
		in.resolvers = append(in.resolvers, m.UseResolver(netstack.ResolverConfig{
			Servers: []netstack.IPAddr{srv.Stack.IP},
			Seed:    in.seed ^ sim.HashString(name),
		}))
	}
	in.dnsServer = server
	return nil
}

// AddName points alias (bare names get the spin.test suffix) at a machine
// in the topology zone — the service-discovery hook: "web.spin.test" can
// front whichever machine currently serves the content.
func (in *Internet) AddName(alias, machine string) error {
	if in.dnsServer == "" {
		return fmt.Errorf("vnet: AddName before EnableDNS")
	}
	m := in.machines[machine]
	if m == nil {
		return fmt.Errorf("vnet: AddName: unknown machine %q", machine)
	}
	return in.machines[in.dnsServer].Zone.AddA(qualify(alias), defaultDNSTTL, m.Stack.IP)
}

// RemoveName withdraws a name from the topology zone (failover: re-point
// it with AddName) and flushes it from every internet-owned resolver, so
// the next resolve consults the authority and caches the NXDOMAIN for the
// negative TTL — the stale window is the negative TTL, not the withdrawn
// record's remaining positive TTL. It reports whether the zone held the
// name. Call from simulation context (a coordinator At callback or under
// the topology driver), like the resolvers themselves.
func (in *Internet) RemoveName(alias string) bool {
	if in.dnsServer == "" {
		return false
	}
	name := qualify(alias)
	removed := in.machines[in.dnsServer].Zone.Remove(name)
	for _, r := range in.resolvers {
		r.Flush(name)
	}
	return removed
}

// qualify appends the topology domain to bare one-label names.
func qualify(alias string) string {
	for i := 0; i < len(alias); i++ {
		if alias[i] == '.' {
			return alias
		}
	}
	return alias + "." + DNSDomain
}

// Driver returns the topology's blocking-adapter driver, created on first
// use over the cluster. Once any blocking socket code runs, advance the
// simulation only through the driver (blocking calls, Run, Drain) — not
// via Internet.Run — so engine access stays serialized.
func (in *Internet) Driver() *netstack.Driver {
	if in.driver == nil {
		in.driver = netstack.NewDriver(in.cluster)
	}
	return in.driver
}

// Sockets returns a machine's stdlib-compatible socket layer over the
// shared topology driver.
func (in *Internet) Sockets(machine string) (*netstack.Sockets, error) {
	m := in.machines[machine]
	if m == nil {
		return nil, fmt.Errorf("vnet: Sockets: unknown machine %q", machine)
	}
	return netstack.NewSockets(in.Driver(), m.Stack, m.Resolver), nil
}

// Dialer returns a machine's name-resolving dialer; its DialContext drops
// into http.Transport so unmodified net/http runs over the topology.
func (in *Internet) Dialer(machine string) (*netstack.Dialer, error) {
	s, err := in.Sockets(machine)
	if err != nil {
		return nil, err
	}
	return s.Dialer(), nil
}
