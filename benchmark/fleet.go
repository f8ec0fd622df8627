package main

import (
	"fmt"

	"spin"
	"spin/internal/sim"
	"spin/internal/vnet"
)

// fleet is the many-machine workload: a fat tree whose first host is the
// DNS authority, the next fleetServers hosts serve HTTP, and every other
// host is a client. A round is every client fetching one page at once.
type fleet struct {
	netInstance
	seed    uint64
	rounds  int
	servers []string
	clients []*spin.Machine
	paths   []string
	bodies  [][]byte
}

const fleetServers = 8

func setupFleet(seed uint64, sc scale) (instance, error) {
	up := vnet.LinkModel{Latency: 100 * sim.Microsecond}
	down := vnet.LinkModel{Latency: 50 * sim.Microsecond}
	in, err := vnet.FatTree(2, sc.pick(16, 2), sc.pick(16, 8), up, down, seed)
	if err != nil {
		return nil, err
	}
	if err := in.EnableDNS("h0"); err != nil {
		return nil, err
	}
	f := &fleet{seed: seed, rounds: sc.pick(5, 2)}
	f.adopt(in)
	f.paths, f.bodies = pages(sim.NewRand(seed), 1)
	for i, name := range in.Machines()[1:] {
		m := in.Machine(name)
		if i >= fleetServers {
			f.clients = append(f.clients, m)
			continue
		}
		f.servers = append(f.servers, name+"."+vnet.DNSDomain)
		if err := serveHTTP(m, f.paths, f.bodies); err != nil {
			return nil, err
		}
	}
	if st, err := f.run(1); err != nil || st.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d failed, err %v", st.failed, err)
	}
	return f, nil
}

func (f *fleet) batch() (batchStats, error) { return f.run(f.rounds) }

func (f *fleet) run(rounds int) (batchStats, error) {
	n := len(f.clients)
	st := batchStats{ops: rounds * n, lat: make([]float64, 0, rounds*n)}
	rng := sim.NewRand(f.seed ^ 0x9e3779b97f4a7c15)
	cluster := f.in.Cluster()
	start := make([]sim.Time, n)
	end := make([]sim.Time, n)
	ok := make([]bool, n)
	done := make([]bool, n)
	for r := 0; r < rounds; r++ {
		for i, c := range f.clients {
			ok[i], done[i] = false, false
			start[i] = c.Clock.Now()
			kernelGet(c, f.servers[rng.Intn(len(f.servers))], f.paths[0], f.bodies[0], &end[i], &ok[i], &done[i])
		}
		// Every transfer and its teardown: the round ends when the whole
		// topology is idle again.
		st.events += settle(cluster)
		for i := range f.clients {
			if !done[i] || !ok[i] {
				st.fail("round %d, client %s: done=%v, body verified=%v", r, f.clients[i].Name, done[i], ok[i])
				end[i] = start[i]
			}
			lat := end[i].Sub(start[i])
			st.virt += lat
			st.lat = append(st.lat, lat.Micros())
		}
	}
	return st, nil
}
