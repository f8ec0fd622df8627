package domain

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"spin/internal/safe"
)

func consoleExporter(t *testing.T) *T {
	t.Helper()
	d, err := CreateFromModule("Console", func(o *safe.ObjectFile) {
		o.Export("Console.Write", func(msg string) int { return len(msg) })
		o.Export("Console.Beep", func() {})
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCreateRejectsUnsafe(t *testing.T) {
	obj := safe.NewObjectFile("rogue").Export("R.F", func() {}).Sign(safe.Unsigned)
	if _, err := Create(obj); !errors.Is(err, ErrNotSafe) {
		t.Fatalf("err = %v, want ErrNotSafe", err)
	}
}

func TestCreateAcceptsAsserted(t *testing.T) {
	obj := safe.NewObjectFile("vendor_driver").
		Export("Driver.Send", func([]byte) {}).
		Sign(safe.KernelAssertion)
	d, err := Create(obj)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.ExportedNames()) != 1 {
		t.Errorf("exports = %v", d.ExportedNames())
	}
}

func TestResolvePatchesImports(t *testing.T) {
	console := consoleExporter(t)
	var write func(string) int
	client, err := CreateFromModule("Gatekeeper", func(o *safe.ObjectFile) {
		o.Import("Console.Write", &write)
	})
	if err != nil {
		t.Fatal(err)
	}
	if client.FullyResolved() {
		t.Fatal("client should have unresolved imports")
	}
	if err := Resolve(console, client); err != nil {
		t.Fatal(err)
	}
	if !client.FullyResolved() {
		t.Fatalf("unresolved after link: %v", client.Unresolved())
	}
	if write("Intruder Alert") != 14 {
		t.Error("linked call broken")
	}
}

func TestResolveDoesNotExportExtraSymbols(t *testing.T) {
	console := consoleExporter(t)
	var write func(string) int
	client, _ := CreateFromModule("Client", func(o *safe.ObjectFile) {
		o.Import("Console.Write", &write)
		o.Export("Client.Run", func() {})
	})
	if err := Resolve(console, client); err != nil {
		t.Fatal(err)
	}
	// Resolution must not add Console's symbols to client's exports.
	if _, ok := client.LookupExport("Console.Write"); ok {
		t.Error("Resolve leaked source export into target")
	}
}

func TestResolveTypeConflict(t *testing.T) {
	console := consoleExporter(t)
	var badWrite func(int) string // wrong signature
	client, _ := CreateFromModule("Evil", func(o *safe.ObjectFile) {
		o.Import("Console.Write", &badWrite)
	})
	err := Resolve(console, client)
	if err == nil {
		t.Fatal("type-conflicting link accepted")
	}
	var tc *safe.TypeConflictError
	if !errors.As(err, &tc) {
		t.Fatalf("err type %T", err)
	}
	if client.FullyResolved() {
		t.Error("conflicting import marked resolved")
	}
	if badWrite != nil {
		t.Error("conflicting slot was patched")
	}
}

func TestResolveLeavesForeignImportsUnresolved(t *testing.T) {
	console := consoleExporter(t)
	var write func(string) int
	var read func() string
	client, _ := CreateFromModule("C", func(o *safe.ObjectFile) {
		o.Import("Console.Write", &write)
		o.Import("Keyboard.Read", &read)
	})
	if err := Resolve(console, client); err != nil {
		t.Fatal(err)
	}
	un := client.Unresolved()
	if len(un) != 1 || un[0] != "Keyboard.Read" {
		t.Errorf("Unresolved = %v", un)
	}
}

func TestCrossLink(t *testing.T) {
	var aCallsB func() string
	var bCallsA func() string
	a, _ := CreateFromModule("A", func(o *safe.ObjectFile) {
		o.Export("A.Hello", func() string { return "A" })
		o.Import("B.Hello", &aCallsB)
	})
	b, _ := CreateFromModule("B", func(o *safe.ObjectFile) {
		o.Export("B.Hello", func() string { return "B" })
		o.Import("A.Hello", &bCallsA)
	})
	if err := CrossLink(a, b); err != nil {
		t.Fatal(err)
	}
	if aCallsB() != "B" || bCallsA() != "A" {
		t.Error("cross-link broken")
	}
}

func TestCombineAggregatesExports(t *testing.T) {
	console := consoleExporter(t)
	disk, _ := CreateFromModule("Disk", func(o *safe.ObjectFile) {
		o.Export("Disk.Read", func(block int) []byte { return nil })
	})
	pub := Combine("SpinPublic", console, disk)
	var write func(string) int
	var read func(int) []byte
	client, _ := CreateFromModule("App", func(o *safe.ObjectFile) {
		o.Import("Console.Write", &write)
		o.Import("Disk.Read", &read)
	})
	if err := Resolve(pub, client); err != nil {
		t.Fatal(err)
	}
	if !client.FullyResolved() {
		t.Fatalf("unresolved: %v", client.Unresolved())
	}
	if got := len(pub.ExportedNames()); got != 3 {
		t.Errorf("aggregate exports %d names, want 3", got)
	}
}

func TestCombineSkipsNil(t *testing.T) {
	console := consoleExporter(t)
	pub := Combine("P", nil, console, nil)
	if len(pub.ExportedNames()) != 2 {
		t.Errorf("exports = %v", pub.ExportedNames())
	}
}

func TestCombineCarriesUnresolved(t *testing.T) {
	var write func(string) int
	client, _ := CreateFromModule("C", func(o *safe.ObjectFile) {
		o.Import("Console.Write", &write)
	})
	agg := Combine("Agg", client)
	console := consoleExporter(t)
	if err := Resolve(console, agg); err != nil {
		t.Fatal(err)
	}
	if write("hi") != 2 {
		t.Error("resolving aggregate did not patch child slot")
	}
}

func TestSelfResolve(t *testing.T) {
	var f func() int
	d, _ := CreateFromModule("Self", func(o *safe.ObjectFile) {
		o.Export("Self.F", func() int { return 9 })
		o.Import("Self.F", &f)
	})
	if err := Resolve(d, d); err != nil {
		t.Fatal(err)
	}
	if f() != 9 {
		t.Error("self-resolution broken")
	}
}

func TestNameserverExportImport(t *testing.T) {
	ns := NewNameserver()
	console := consoleExporter(t)
	if err := ns.Export("ConsoleService", console, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ns.Import("ConsoleService", Identity{Name: "app"})
	if err != nil {
		t.Fatal(err)
	}
	if got != console {
		t.Error("imported wrong domain")
	}
}

func TestNameserverDuplicateExport(t *testing.T) {
	ns := NewNameserver()
	console := consoleExporter(t)
	if err := ns.Export("X", console, nil); err != nil {
		t.Fatal(err)
	}
	if err := ns.Export("X", console, nil); err == nil {
		t.Error("duplicate export accepted")
	}
	ns.Unexport("X")
	if err := ns.Export("X", console, nil); err != nil {
		t.Errorf("re-export after Unexport failed: %v", err)
	}
}

func TestNameserverAuthorization(t *testing.T) {
	ns := NewNameserver()
	console := consoleExporter(t)
	err := ns.Export("ConsoleService", console, TrustedOnly)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Import("ConsoleService", Identity{Name: "app"}); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("untrusted import err = %v, want ErrUnauthorized", err)
	}
	if _, err := ns.Import("ConsoleService", Identity{Name: "core", Trusted: true}); err != nil {
		t.Errorf("trusted import failed: %v", err)
	}
}

func TestNameserverNotExported(t *testing.T) {
	ns := NewNameserver()
	if _, err := ns.Import("Nope", Identity{}); !errors.Is(err, ErrNotExported) {
		t.Errorf("err = %v, want ErrNotExported", err)
	}
}

func TestNameserverLinkAgainst(t *testing.T) {
	ns := NewNameserver()
	console := consoleExporter(t)
	_ = ns.Export("ConsoleService", console, nil)
	var write func(string) int
	client, _ := CreateFromModule("C", func(o *safe.ObjectFile) {
		o.Import("Console.Write", &write)
	})
	if err := ns.LinkAgainst("ConsoleService", Identity{Name: "c"}, client); err != nil {
		t.Fatal(err)
	}
	if write("abc") != 3 {
		t.Error("LinkAgainst did not patch")
	}
}

func TestNameserverNames(t *testing.T) {
	ns := NewNameserver()
	console := consoleExporter(t)
	_ = ns.Export("B", console, nil)
	_ = ns.Export("A", console, nil)
	names := ns.Names()
	if len(names) != 2 || names[0] != "A" || names[1] != "B" {
		t.Errorf("Names = %v", names)
	}
}

// Property: linking N clients against one exporter resolves all of them and
// every client observes the same shared implementation (data symbols are
// shared at memory speed).
func TestManyClientsShareImplementation(t *testing.T) {
	if err := quick.Check(func(nClients uint8) bool {
		n := int(nClients%16) + 1
		counter := 0
		exp, err := CreateFromModule("Svc", func(o *safe.ObjectFile) {
			o.Export("Svc.Bump", func() int { counter++; return counter })
		})
		if err != nil {
			return false
		}
		slots := make([]func() int, n)
		for i := 0; i < n; i++ {
			c, err := CreateFromModule(fmt.Sprintf("c%d", i), func(o *safe.ObjectFile) {
				o.Import("Svc.Bump", &slots[i])
			})
			if err != nil || Resolve(exp, c) != nil {
				return false
			}
		}
		for i := 0; i < n; i++ {
			if slots[i]() != i+1 {
				return false
			}
		}
		return counter == n
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Interleaved linking: many clients resolved one after another against one
// exporter, by the machine's owner, each checked between resolves: a
// resolve links its own client and no other.
func TestConcurrentResolve(t *testing.T) {
	counter := 0
	exp, err := CreateFromModule("Svc", func(o *safe.ObjectFile) {
		o.Export("Svc.Bump", func() { counter++ })
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	slots := make([]func(), n)
	clients := make([]*T, n)
	for i := 0; i < n; i++ {
		c, err := CreateFromModule(fmt.Sprintf("c%d", i), func(o *safe.ObjectFile) {
			o.Import("Svc.Bump", &slots[i])
		})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	for i := 0; i < n; i++ {
		if err := Resolve(exp, clients[i]); err != nil {
			t.Errorf("resolve %d: %v", i, err)
		}
		for j := range clients {
			if got, want := clients[j].FullyResolved(), j <= i; got != want {
				t.Fatalf("after resolving %d: client %d resolved = %v", i, j, got)
			}
		}
	}
	for i := 0; i < n; i++ {
		if !clients[i].FullyResolved() {
			t.Fatalf("client %d unresolved", i)
		}
		slots[i]()
	}
	if counter != n {
		t.Errorf("counter = %d", counter)
	}
}

// Interleaved nameserver export/import: eight exporters' calls alternate on
// the machine's owner, and every name is visible as soon as it is exported.
func TestConcurrentNameserver(t *testing.T) {
	ns := NewNameserver()
	console := consoleExporter(t)
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("svc-%d", i)
		if err := ns.Export(name, console, nil); err != nil {
			t.Errorf("export %s: %v", name, err)
		}
		if got := len(ns.Names()); got != i+1 {
			t.Errorf("after export %d: %d names", i, got)
		}
		for j := 0; j <= i; j++ {
			if _, err := ns.Import(fmt.Sprintf("svc-%d", j), Identity{Name: "x"}); err != nil {
				t.Errorf("import svc-%d: %v", j, err)
			}
		}
	}
	if len(ns.Names()) != 8 {
		t.Errorf("names = %v", ns.Names())
	}
}
