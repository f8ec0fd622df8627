package vnet

import (
	"fmt"

	"spin/internal/domain"
	"spin/internal/lb"
	"spin/internal/sim"
)

// Load-balancing glue: build an internal/lb Balancer / ResilientDialer on
// a topology machine over named backend machines, and wire backend death
// (DestroyDomain) to DNS withdrawal so the whole failover story — records
// withdrawn, negative TTLs bounding staleness, ring re-convergence —
// happens through the same naming plumbing real traffic uses.

// Balancer builds a load balancer on machine over the named backends
// (topology machine names; each is dialed as "<name>.spin.test"). The
// balancer's seed, when cfg.Seed is zero, derives from the topology seed
// so routing replays — and diverges — with it. EnableDNS must have run
// (the balancer resolves backends by name).
func (in *Internet) Balancer(machine string, cfg lb.Config, backends ...string) (*lb.Balancer, error) {
	s, err := in.Sockets(machine)
	if err != nil {
		return nil, err
	}
	if s.Resolver() == nil {
		return nil, fmt.Errorf("vnet: Balancer: machine %q has no resolver (EnableDNS first)", machine)
	}
	if cfg.Seed == 0 {
		cfg.Seed = in.seed ^ sim.HashString(machine) ^ 0xba1a
	}
	bal := lb.NewBalancer(s.Stack(), s.Resolver(), cfg)
	for _, b := range backends {
		if in.machines[b] == nil {
			return nil, fmt.Errorf("vnet: Balancer: unknown backend machine %q", b)
		}
		bal.AddBackend(b, qualify(b))
	}
	return bal, nil
}

// ResilientDialer wraps machine's socket layer with bal-driven backend
// selection and failover; its DialContext drops into http.Transport.
func (in *Internet) ResilientDialer(machine string, bal *lb.Balancer, policy lb.RetryPolicy) (*lb.ResilientDialer, error) {
	s, err := in.Sockets(machine)
	if err != nil {
		return nil, err
	}
	return lb.NewResilientDialer(s, bal, policy, in.seed^sim.HashString(machine)), nil
}

// WithdrawOnDestroy arms the DNS half of crash-only backend teardown: a
// reclaimer on machine's nameserver that, when owner's domain is
// destroyed, withdraws the given names (default: the machine's own name)
// from the topology zone and flushes them from every internet-owned
// resolver. Combined with the "net.tcp" reclaimer that drops the
// listener, DestroyDomain then kills the backend completely: new dials
// are refused, and new resolves see NXDOMAIN within the negative TTL.
func (in *Internet) WithdrawOnDestroy(machine, owner string, aliases ...string) error {
	m := in.machines[machine]
	if m == nil {
		return fmt.Errorf("vnet: WithdrawOnDestroy: unknown machine %q", machine)
	}
	if len(aliases) == 0 {
		aliases = []string{machine}
	}
	names := append([]string(nil), aliases...)
	m.Namespace.AddReclaimer("vnet.dns", func(o domain.Identity) int {
		if o.Name != owner {
			return 0
		}
		n := 0
		for _, a := range names {
			if in.RemoveName(a) {
				n++
			}
		}
		return n
	})
	return nil
}
