package spin

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"spin/internal/domain"
	"spin/internal/netstack"
	"spin/internal/safe"
	"spin/internal/sal"
	"spin/internal/sim"
)

func bootMachine(t *testing.T) *Machine {
	t.Helper()
	m, err := NewMachine("test", Config{IP: netstack.Addr(10, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBoot(t *testing.T) {
	m := bootMachine(t)
	if m.VM == nil || m.Sched == nil || m.Stack == nil || m.FS == nil {
		t.Fatal("core services missing after boot")
	}
	if m.Clock.Now() != 0 {
		t.Errorf("boot consumed virtual time: %v", m.Clock.Now())
	}
	names := m.Namespace.Names()
	want := []string{"ConsoleService", "DiskService", "VMService"}
	if len(names) != len(want) {
		t.Fatalf("namespace = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("namespace = %v", names)
		}
	}
}

func TestLoadExtensionLinksAgainstPublic(t *testing.T) {
	m := bootMachine(t)
	var write func(string)
	obj := safe.NewObjectFile("Logger").
		Import("Console.Write", &write).
		Export("Logger.Log", func(msg string) { write("[log] " + msg) }).
		Sign(safe.Compiler)
	d, err := m.LoadExtension(obj)
	if err != nil {
		t.Fatal(err)
	}
	if !d.FullyResolved() {
		t.Fatalf("unresolved: %v", d.Unresolved())
	}
	logFn, _ := d.LookupExport("Logger.Log")
	logFn.Value.Interface().(func(string))("hello")
	if got := m.Console.Output(); got != "[log] hello" {
		t.Errorf("console = %q", got)
	}
	if m.Extensions() != 1 {
		t.Errorf("Extensions = %d", m.Extensions())
	}
}

func TestLoadExtensionRejectsUnsafe(t *testing.T) {
	m := bootMachine(t)
	obj := safe.NewObjectFile("rogue").Sign(safe.Unsigned)
	if _, err := m.LoadExtension(obj); !errors.Is(err, domain.ErrNotSafe) {
		t.Errorf("err = %v", err)
	}
	if m.Extensions() != 0 {
		t.Error("rejected extension counted")
	}
}

func TestLoadExtensionTypeConflict(t *testing.T) {
	m := bootMachine(t)
	var wrong func(int)
	obj := safe.NewObjectFile("bad").Import("Console.Write", &wrong).Sign(safe.Compiler)
	var tc *safe.TypeConflictError
	if _, err := m.LoadExtension(obj); !errors.As(err, &tc) {
		t.Errorf("err = %v, want type conflict", err)
	}
}

func TestSyscallDispatch(t *testing.T) {
	m := bootMachine(t)
	_, err := m.RegisterSyscall("getpid", domain.Identity{Name: "unix"}, func(any) any { return 42 })
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.RegisterSyscall("gettime", domain.Identity{Name: "unix"}, func(any) any {
		return m.Clock.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Syscall("getpid", nil); got != 42 {
		t.Errorf("getpid = %v", got)
	}
	// Guarded demux: the right handler answers.
	if got := m.Syscall("gettime", nil); got == 42 {
		t.Error("syscall demux broken")
	}
	// Unknown syscall returns nil.
	if got := m.Syscall("nope", nil); got != nil {
		t.Errorf("unknown syscall = %v", got)
	}
}

func TestSyscallCost(t *testing.T) {
	m := bootMachine(t)
	_, _ = m.RegisterSyscall("null", domain.Identity{Name: "x"}, func(any) any { return nil })
	start := m.Clock.Now()
	m.Syscall("null", nil)
	cost := m.Clock.Now().Sub(start)
	// Paper: ~4µs for SPIN (plus dispatch).
	if cost.Micros() < 3 || cost.Micros() > 8 {
		t.Errorf("syscall cost = %v, want ≈4-5µs", cost)
	}
}

func TestNameserverAuthorization(t *testing.T) {
	m := bootMachine(t)
	// VMService is gated to trusted principals.
	if _, err := m.Namespace.Import("VMService", domain.Identity{Name: "app"}); !errors.Is(err, domain.ErrUnauthorized) {
		t.Errorf("untrusted VMService import: %v", err)
	}
	if _, err := m.Namespace.Import("VMService", domain.Identity{Name: "core", Trusted: true}); err != nil {
		t.Errorf("trusted import failed: %v", err)
	}
	// Console is open.
	if _, err := m.Namespace.Import("ConsoleService", domain.Identity{Name: "app"}); err != nil {
		t.Errorf("console import failed: %v", err)
	}
}

func TestAddNICAndStack(t *testing.T) {
	a := bootMachine(t)
	b, _ := NewMachine("peer", Config{IP: netstack.Addr(10, 0, 0, 2)})
	na := a.AddNIC(sal.LanceModel)
	nb := b.AddNIC(sal.LanceModel)
	if err := sal.Connect(na, nb); err != nil {
		t.Fatal(err)
	}
	var rtt float64
	_ = a.Stack.Ping(b.Stack.IP, 1, 16, func(d sim.Duration) { rtt = d.Micros() })
	sim.NewCluster(a.Engine, b.Engine).Run(0)
	if rtt == 0 {
		t.Fatal("ping never returned")
	}
}

func TestGraphContainsCoreEvents(t *testing.T) {
	m := bootMachine(t)
	g := m.Stack.Graph()
	for _, ev := range []string{"IP.PacketArrived", "ICMP.PktArrived"} {
		if !strings.Contains(g, ev) {
			t.Errorf("graph missing %s", ev)
		}
	}
}

func TestLoadVendorDriver(t *testing.T) {
	// The paper links vendor C drivers whose safety the kernel asserts
	// rather than verifies (§3.1). They load like any extension; only
	// unsigned objects are refused.
	m := bootMachine(t)
	driver := safe.NewObjectFile("lance_c_driver").
		Export("Lance.Send", func([]byte) {}).
		Sign(safe.KernelAssertion)
	d, err := m.LoadExtension(driver)
	if err != nil {
		t.Fatalf("kernel-asserted driver refused: %v", err)
	}
	if len(d.ExportedNames()) != 1 {
		t.Errorf("exports = %v", d.ExportedNames())
	}
	if obj := d.Objects()[0]; obj.Signer != safe.KernelAssertion {
		t.Errorf("signer = %v", obj.Signer)
	}
}

// A fleet boots one machine per host, so what a machine allocates before it
// does anything is paid hundreds of times, and what it keeps is most of an
// idle fleet's heap. Physical memory costs what has been touched, so nothing
// here grows with the memory size; the stack's own share is pinned by
// netstack's TestIdleStackFootprint. Measured on linux/amd64 (go1.24): a
// machine allocates 11 488 bytes in 117 objects and retains 9 168 bytes
// after a collection; each budget is that plus at most 15 %.
func TestIdleMachineFootprint(t *testing.T) {
	const (
		machines        = 64
		allocatedBudget = 13_200
		objectsBudget   = 130
		retainedBudget  = 10_240
	)
	ms := make([]*Machine, machines)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range ms {
		m, err := NewMachine("idle", Config{IP: netstack.Addr(10, 0, 1, byte(i))})
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = m
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ms)
	allocated := (after.TotalAlloc - before.TotalAlloc) / machines
	objects := (after.Mallocs - before.Mallocs) / machines
	retained := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / machines
	t.Logf("NewMachine allocates %d bytes in %d objects and retains %d bytes", allocated, objects, retained)
	if allocated > allocatedBudget {
		t.Errorf("NewMachine allocates %d bytes, budget %d", allocated, allocatedBudget)
	}
	if objects > objectsBudget {
		t.Errorf("NewMachine makes %d allocations, budget %d", objects, objectsBudget)
	}
	if retained > retainedBudget {
		t.Errorf("a booted machine retains %d bytes, budget %d", retained, retainedBudget)
	}
}
