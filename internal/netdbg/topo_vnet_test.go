// External test package: the debugger driven over a vnet topology, the way
// a client of both packages would.
package netdbg_test

import (
	"strings"
	"testing"

	"spin/internal/netdbg"
	"spin/internal/sim"
	"spin/internal/vnet"
)

// TestTopoOverVirtualInternet attaches the debugger to one machine of a
// routed topology and asks it, over that same topology, what the topology
// looks like — the "topo" command backed by vnet's Describe.
func TestTopoOverVirtualInternet(t *testing.T) {
	edge := vnet.LinkModel{Latency: 50 * sim.Microsecond}
	in, err := vnet.NewBuilder(31).
		Machine("target", 0).Machine("workstation", 0).Switch("s0").
		Link("target", "s0", edge).Link("workstation", "s0", edge).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	target := in.Machine("target")
	if _, err := netdbg.New(target.Stack, netdbg.DefaultPort, netdbg.Target{
		Dispatcher: target.Dispatcher,
		Topo:       in.Describe,
	}); err != nil {
		t.Fatal(err)
	}
	query := func(cmd string) string {
		var reply string
		done := false
		if err := netdbg.Query(in.Machine("workstation").Stack, in.IP("target"), netdbg.DefaultPort, cmd,
			func(s string) { reply = s; done = true }); err != nil {
			t.Fatal(err)
		}
		if !in.RunUntil(func() bool { return done }, sim.Time(10*sim.Second)) {
			t.Fatalf("query %q never answered", cmd)
		}
		return reply
	}
	topo := query("topo")
	for _, want := range []string{"target", "workstation", "switch  s0", "target~s0"} {
		if !strings.Contains(topo, want) {
			t.Errorf("topo reply missing %q:\n%s", want, topo)
		}
	}
	if !strings.Contains(query("help"), "topo") {
		t.Error("help does not list topo")
	}
}
