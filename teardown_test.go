package spin

// Crash-only domain teardown: DestroyDomain must reclaim a principal's
// whole kernel footprint — nameserver exports, event handlers, network
// endpoints — in one call, without the departing
// code's cooperation, and stay safe against live traffic racing the
// teardown.

import (
	"errors"
	"fmt"
	"testing"

	"spin/internal/dispatch"
	"spin/internal/domain"
	"spin/internal/netstack"
	"spin/internal/safe"
)

func TestDestroyDomainReclaimsFootprint(t *testing.T) {
	m, err := NewMachine("teardown", Config{})
	if err != nil {
		t.Fatal(err)
	}
	ext := domain.Identity{Name: "chaos-ext"}

	// The extension's footprint: two exported interfaces...
	iface, err := domain.CreateFromModule("ChaosIface", func(o *safe.ObjectFile) {
		o.Export("Chaos.Ping", func() int { return 1 })
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ChaosService", "ChaosService2"} {
		if err := m.Namespace.ExportOwned(name, iface, nil, ext); err != nil {
			t.Fatal(err)
		}
	}
	// ...handlers on two events...
	for _, ev := range []string{"Teardown.A", "Teardown.B"} {
		if err := m.Dispatcher.Define(ev, dispatch.DefineOptions{
			Primary: func(_, _ any) any { return "primary" },
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Dispatcher.Install(ev, func(_, _ any) any { return "ext" },
			dispatch.InstallOptions{Installer: ext}); err != nil {
			t.Fatal(err)
		}
	}
	// ...and two network endpoints.
	if err := m.Stack.UDP().BindOwned(ext.Name, 7777, netstack.InKernelDelivery,
		func(*netstack.Packet) {}); err != nil {
		t.Fatal(err)
	}
	if err := m.Stack.TCP().ListenOwned(ext.Name, 8888, nil,
		func(*netstack.Conn) {}); err != nil {
		t.Fatal(err)
	}

	report := m.DestroyDomain(ext)

	if len(report.Unexported) != 2 {
		t.Errorf("unexported = %v, want the 2 owned names", report.Unexported)
	}
	want := map[string]int{"dispatch": 2, "net.udp": 1, "net.tcp": 1}
	for sub, n := range want {
		if report.Reclaimed[sub] != n {
			t.Errorf("reclaimed[%s] = %d, want %d (full report: %+v)", sub, report.Reclaimed[sub], n, report)
		}
	}
	if got, wantTotal := report.Total(), 2+2+1+1; got != wantTotal {
		t.Errorf("report.Total() = %d, want %d", got, wantTotal)
	}

	// Every trace of the principal is gone...
	if _, err := m.Namespace.Import("ChaosService", domain.Identity{Name: "app"}); !errors.Is(err, domain.ErrNotExported) {
		t.Errorf("Import after destroy = %v, want ErrNotExported", err)
	}
	for _, ev := range []string{"Teardown.A", "Teardown.B"} {
		if n := m.Dispatcher.HandlerCount(ev); n != 1 {
			t.Errorf("%s has %d handlers after destroy, want 1 (primary)", ev, n)
		}
		if got := m.Dispatcher.Raise(ev, nil); got != "primary" {
			t.Errorf("%s raise after destroy = %v", ev, got)
		}
	}

	// ...and the freed resources are immediately reusable by a successor.
	if err := m.Stack.UDP().Bind(7777, netstack.InKernelDelivery, func(*netstack.Packet) {}); err != nil {
		t.Errorf("port 7777 not rebindable after destroy: %v", err)
	}
	if err := m.Stack.TCP().Listen(8888, nil, func(*netstack.Conn) {}); err != nil {
		t.Errorf("port 8888 not relistenable after destroy: %v", err)
	}
	if err := m.Namespace.Export("ChaosService", iface, nil); err != nil {
		t.Errorf("name not re-exportable after destroy: %v", err)
	}
}

// TestDestroyRacesDispatchTraffic tears a domain down while, on
// the machine's owner, its events are raised, handlers reinstalled and its
// interfaces re-exported and linked against, all interleaved round by
// round. After every destroy only primaries are left and the interface is
// gone; a final destroy leaves only primaries.
func TestDestroyRacesDispatchTraffic(t *testing.T) {
	m, err := NewMachine("teardown-interleave", Config{})
	if err != nil {
		t.Fatal(err)
	}
	ext := domain.Identity{Name: "racy-ext"}
	const events = 4
	for i := 0; i < events; i++ {
		if err := m.Dispatcher.Define(fmt.Sprintf("Race.%d", i), dispatch.DefineOptions{
			Primary: func(_, _ any) any { return "primary" },
		}); err != nil {
			t.Fatal(err)
		}
	}
	iface, err := domain.CreateFromModule("RacyIface", func(o *safe.ObjectFile) {
		o.Export("Racy.Ping", func() int { return 1 })
	})
	if err != nil {
		t.Fatal(err)
	}
	onlyPrimaries := func(when string) {
		for i := 0; i < events; i++ {
			ev := fmt.Sprintf("Race.%d", i)
			if n := m.Dispatcher.HandlerCount(ev); n != 1 {
				t.Fatalf("%s: %s has %d handlers, want 1", when, ev, n)
			}
			if got := m.Dispatcher.Raise(ev, nil); got != "primary" {
				t.Fatalf("%s: %s raise = %v", when, ev, got)
			}
		}
		if _, err := m.Namespace.Import("RacyService", domain.Identity{Name: "app"}); !errors.Is(err, domain.ErrNotExported) {
			t.Fatalf("%s: RacyService still importable: %v", when, err)
		}
	}

	const rounds = 200
	for i := 0; i < rounds; i++ {
		// Installer: adds a handler owned by the doomed principal.
		if _, err := m.Dispatcher.Install(fmt.Sprintf("Race.%d", i%events),
			func(_, _ any) any { return "ext" }, dispatch.InstallOptions{Installer: ext}); err != nil {
			t.Fatal(err)
		}
		// Raiser: live traffic through the events being torn down.
		m.Dispatcher.Raise(fmt.Sprintf("Race.%d", (2*i)%events), nil)
		// Exporter/linker: churns the nameserver with the same owner.
		_ = m.Namespace.ExportOwned("RacyService", iface, nil, ext)
		var ping func() int
		client, err := domain.CreateFromModule("RacyClient", func(o *safe.ObjectFile) {
			o.Import("Racy.Ping", &ping)
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Namespace.LinkAgainst("RacyService", domain.Identity{Name: "app"}, client); err != nil || ping() != 1 {
			t.Fatalf("round %d: link against RacyService: %v", i, err)
		}
		m.Dispatcher.Raise(fmt.Sprintf("Race.%d", (2*i+1)%events), nil)
		// Destroyer: crash-only teardown every fourth round.
		if i%4 == 3 {
			m.DestroyDomain(ext)
			onlyPrimaries(fmt.Sprintf("after round %d", i))
		}
	}

	// One final teardown must leave only the primaries.
	m.DestroyDomain(ext)
	onlyPrimaries("after final destroy")
}
