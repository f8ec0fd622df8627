// Package spin is a Go reproduction of the SPIN operating system
// (Bershad et al., SOSP '95): an extensible kernel in which applications
// safely extend the system's interface and implementation by dynamically
// linking type-checked extensions into the kernel, where they interact with
// core services through events dispatched at procedure-call cost.
//
// A Machine is one booted SPIN kernel on simulated Alpha-like hardware: the
// extension infrastructure (protection domains, in-kernel linker,
// nameserver, dispatcher, capabilities), the core services (extensible
// virtual memory, strand scheduling), devices (console, disk, network
// interfaces), a network protocol stack with in-kernel extension endpoints,
// and a file system. Time is virtual: every operation charges calibrated
// primitive costs against the machine's clock, so experiments reproduce the
// paper's measurements structurally.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduction of every table and figure in the paper's evaluation.
package spin

import (
	"fmt"

	"spin/internal/bcode"
	"spin/internal/dispatch"
	"spin/internal/domain"
	"spin/internal/faultinject"
	"spin/internal/fs"
	"spin/internal/metrics"
	"spin/internal/netstack"
	"spin/internal/safe"
	"spin/internal/sal"
	"spin/internal/sim"
	"spin/internal/strand"
	"spin/internal/trace"
	"spin/internal/unixsrv"
	"spin/internal/vm"
)

// SyscallEvent is the event the trap handler raises for user-level system
// calls; SPIN extensions define application-specific system calls by
// installing guarded handlers on it.
const SyscallEvent = "Trap.SystemCall"

// Syscall is the argument carried by SyscallEvent.
type Syscall struct {
	Name string
	Arg  any
}

// Machine is one booted SPIN kernel instance.
type Machine struct {
	Name string

	Engine  *sim.Engine
	Clock   *sim.Clock
	Profile *sim.Profile

	// Extension infrastructure.
	Dispatcher *dispatch.Dispatcher
	Namespace  *domain.Nameserver
	Heap       *sim.Heap

	// Hardware.
	IC      *sal.InterruptController
	MMU     *sal.MMU
	Phys    *sal.PhysMem
	Console *sal.Console
	Disk    *sal.Disk

	// Core services.
	VM      *vm.System
	Sched   *strand.Scheduler
	Threads *strand.ThreadPkg

	// Networking and storage.
	Stack *netstack.Stack
	FS    *fs.FileSystem

	// Network naming: the machine's authoritative zone + DNS server (set
	// by ServeDNS) and its stub resolver (set by UseResolver).
	Zone     *netstack.Zone
	DNS      *netstack.DNSServer
	Resolver *netstack.Resolver

	nics      []*sal.NIC
	nextVec   sal.InterruptVector
	public    *domain.T
	extCount  int
	syscallEv *dispatch.Event // SyscallEvent's handle
}

// Config tunes machine construction.
type Config struct {
	// IP is the machine's network address.
	IP netstack.IPAddr
	// CPUs is the number of virtual processors the strand scheduler
	// multiplexes (default 1). CPU 0 is the boot CPU, sharing the
	// machine's engine; each extra CPU gets its own engine and clock, and
	// idle CPUs steal queued strands from their siblings.
	CPUs int
}

// NewMachine boots a SPIN kernel on the paper's hardware: 64 MB of
// physical memory, a 256-block buffer cache and sim.SPINProfile's costs.
func NewMachine(name string, cfg Config) (*Machine, error) {
	prof := &sim.SPINProfile
	eng := sim.NewEngine()
	m := &Machine{
		Name:    name,
		Engine:  eng,
		Clock:   eng.Clock,
		Profile: prof,
		nextVec: sal.VecNIC0,
	}
	m.Dispatcher = dispatch.New(eng, prof)
	m.Namespace = domain.NewNameserver()
	m.Heap = sim.NewHeap(m.Clock, prof)
	m.IC = sal.NewInterruptController(eng, prof)
	m.MMU = sal.NewMMU(m.Clock, prof)
	m.Phys = sal.NewPhysMem(64 << 20)
	m.Console = &sal.Console{}
	m.Disk = sal.NewDisk(m.Clock)

	var err error
	m.VM, err = vm.New(eng, prof, m.Dispatcher, m.MMU, m.Phys)
	if err != nil {
		return nil, fmt.Errorf("spin: boot vm: %w", err)
	}
	engines := []*sim.Engine{eng}
	for i := 1; i < cfg.CPUs; i++ {
		engines = append(engines, sim.NewEngine())
	}
	m.Sched, err = strand.NewMultiScheduler(prof, m.Dispatcher, engines...)
	if err != nil {
		return nil, fmt.Errorf("spin: boot scheduler: %w", err)
	}
	m.Threads = strand.NewThreadPkg(m.Sched)
	m.Stack, err = netstack.NewStack(name, cfg.IP, eng, prof, m.Dispatcher)
	if err != nil {
		return nil, fmt.Errorf("spin: boot netstack: %w", err)
	}
	m.FS = fs.New(m.Disk, m.Clock, 256)

	// Fault containment boots armed: a handler that exhausts the default
	// fault/overrun budgets is quarantined off its event.
	m.Dispatcher.SetQuarantinePolicy(dispatch.DefaultQuarantinePolicy)

	// Crash-only teardown: each subsystem registers a reclaimer so
	// DestroyDomain recovers a departing principal's whole footprint —
	// event handlers and network endpoints.
	m.Namespace.AddReclaimer("dispatch", func(owner domain.Identity) int {
		return m.Dispatcher.RemoveOwner(owner)
	})
	m.Namespace.AddReclaimer("net.udp", func(owner domain.Identity) int {
		return m.Stack.UDP().UnbindOwner(owner.Name)
	})
	m.Namespace.AddReclaimer("net.tcp", func(owner domain.Identity) int {
		return m.Stack.TCP().UnlistenOwner(owner.Name)
	})

	// The system call trap event: the kernel's trap handler raises
	// Trap.SystemCall, dispatched to handlers installed by extensions.
	if err := m.Dispatcher.Define(SyscallEvent, dispatch.DefineOptions{}); err != nil {
		return nil, err
	}
	m.syscallEv = m.Dispatcher.Event(SyscallEvent)

	if err := m.exportPublicInterfaces(); err != nil {
		return nil, err
	}
	return m, nil
}

// exportPublicInterfaces builds the SpinPublic aggregate domain: the
// system's public interfaces combined into a single domain available to
// extensions (paper §3.1).
func (m *Machine) exportPublicInterfaces() error {
	console, err := domain.CreateFromModule("Console", func(o *safe.ObjectFile) {
		o.Export("Console.Write", m.Console.Write)
		o.Export("Console.GetChar", m.Console.GetChar)
	})
	if err != nil {
		return err
	}
	vmDom, err := domain.CreateFromModule("VMService", func(o *safe.ObjectFile) {
		o.Export("PhysAddr.Allocate", m.VM.PhysSvc.Allocate)
		o.Export("PhysAddr.Deallocate", m.VM.PhysSvc.Deallocate)
		o.Export("PhysAddr.Reclaim", m.VM.PhysSvc.Reclaim)
		o.Export("VirtAddr.Allocate", m.VM.VirtSvc.Allocate)
		o.Export("VirtAddr.Deallocate", m.VM.VirtSvc.Deallocate)
		o.Export("Translation.Create", m.VM.TransSvc.Create)
		o.Export("Translation.Destroy", m.VM.TransSvc.Destroy)
		o.Export("Translation.AddMapping", m.VM.TransSvc.AddMapping)
		o.Export("Translation.RemoveMapping", m.VM.TransSvc.RemoveMapping)
		o.Export("Translation.ExamineMapping", m.VM.TransSvc.ExamineMapping)
	})
	if err != nil {
		return err
	}
	diskDom, err := domain.CreateFromModule("DiskService", func(o *safe.ObjectFile) {
		o.Export("Disk.ReadBlock", m.Disk.ReadBlock)
		o.Export("Disk.WriteBlock", m.Disk.WriteBlock)
	})
	if err != nil {
		return err
	}
	m.public = domain.Combine("SpinPublic", console, vmDom, diskDom)
	if err := m.Namespace.Export("ConsoleService", console, nil); err != nil {
		return err
	}
	if err := m.Namespace.Export("VMService", vmDom, domain.TrustedOnly); err != nil {
		return err
	}
	if err := m.Namespace.Export("DiskService", diskDom, domain.TrustedOnly); err != nil {
		return err
	}
	return nil
}

// LoadExtension dynamically links a safe object file into the kernel: it
// verifies the object, creates a protection domain for it, and resolves its
// imports against the system's public interfaces. The returned domain can
// be further cross-linked against other extensions.
func (m *Machine) LoadExtension(obj *safe.ObjectFile) (*domain.T, error) {
	d, err := domain.Create(obj)
	if err != nil {
		return nil, err
	}
	// In-kernel dynamic linking: resolution patches text and data
	// symbols so subsequent cross-domain calls run at procedure-call
	// speed.
	m.Clock.Advance(sim.Duration(len(obj.Imports())+len(obj.Exports())) * 10 * sim.Microsecond)
	if err := domain.Resolve(m.public, d); err != nil {
		return nil, err
	}
	m.extCount++
	return d, nil
}

// Extensions reports how many extensions have been loaded.
func (m *Machine) Extensions() int { return m.extCount }

// LoadFilter admits wire-encoded verified bytecode as a packet filter at
// the kernel's IP layer: the bytes are decoded, verified against the
// packet context ABI, packaged as a safe object file (the verifier signing
// in the compiler's stead), and installed as a dispatcher guard whose
// matching packets are dropped. This is the untrusted-user path — code
// arrives as bytes, no Go in sight — so rejections carry the verifier's
// typed error naming the offending instruction.
func (m *Machine) LoadFilter(name string, code []byte) (*netstack.PacketFilter, error) {
	obj, err := safe.ExportProgram(name, code, netstack.PacketSpec)
	if err != nil {
		return nil, err
	}
	sym, _ := obj.LookupExport("program")
	prog := sym.Value.Interface().(*bcode.Program)
	f, err := netstack.NewProgramFilter(m.Stack, name, prog, netstack.Drop)
	if err != nil {
		return nil, err
	}
	m.extCount++
	return f, nil
}

// Metrics emits every counter the machine's subsystems keep: the
// dispatcher's (with the tracer's and injector's while they are set), the
// stack's and its programs', the scheduler's and its steal policy's, the
// MMU's and physical memory's, and the DNS server's and resolver's when the
// machine has them. The MMU, physical memory and the resolver keep plain
// fields, so a read that must not race their writers runs on the
// simulation goroutine.
func (m *Machine) Metrics(emit metrics.Emit) {
	m.Dispatcher.Metrics(emit)
	m.Stack.Metrics(emit)
	m.Sched.Metrics(emit)
	m.MMU.Metrics(emit)
	m.Phys.Metrics(emit)
	if m.DNS != nil {
		m.DNS.Metrics(emit)
	}
	if m.Resolver != nil {
		m.Resolver.Metrics(emit)
	}
}

// DNSAuthorityName is the nameserver entry a ServeDNS zone is exported
// under.
const DNSAuthorityName = "DNSAuthority"

// ServeDNS makes the machine an authoritative DNS server for zone,
// following the paper's naming discipline (§4): the zone's lookup
// interface is exported as a domain through the in-kernel nameserver, and
// the UDP server answers from the interface it imports back — the network
// nameserver is an extension found by name, not a special case. The zone
// stays live: AddA/Remove after boot change subsequent answers.
func (m *Machine) ServeDNS(zone *netstack.Zone) error {
	if m.DNS != nil {
		return fmt.Errorf("spin: %s: DNS server already serving", m.Name)
	}
	if zone == nil {
		zone = netstack.NewZone()
	}
	dom, err := domain.CreateFromModule(DNSAuthorityName, func(o *safe.ObjectFile) {
		o.Export("DNS.LookupA", zone.LookupA)
	})
	if err != nil {
		return err
	}
	if err := m.Namespace.Export(DNSAuthorityName, dom, nil); err != nil {
		return err
	}
	sym, ok := dom.LookupExport("DNS.LookupA")
	if !ok {
		return fmt.Errorf("spin: %s: DNS.LookupA not exported", m.Name)
	}
	lookup, ok := sym.Value.Interface().(func(string) ([]netstack.IPAddr, sim.Duration, bool))
	if !ok {
		return fmt.Errorf("spin: %s: DNS.LookupA has wrong type %T", m.Name, sym.Value.Interface())
	}
	srv, err := netstack.NewDNSServer(DNSAuthorityName, m.Stack, lookup)
	if err != nil {
		m.Namespace.Unexport(DNSAuthorityName)
		return err
	}
	m.Zone, m.DNS = zone, srv
	return nil
}

// UseResolver configures the machine's stub resolver (cfg.Servers is the
// essential field); it replaces any previous resolver.
func (m *Machine) UseResolver(cfg netstack.ResolverConfig) *netstack.Resolver {
	m.Resolver = netstack.NewResolver(m.Stack, cfg)
	return m.Resolver
}

// AddNIC attaches a network interface of the given model and plumbs it into
// the protocol stack. A machine may carry several NICs of the same model
// (a router with one interface per attached link).
func (m *Machine) AddNIC(model sal.NICModel) *sal.NIC {
	nic := sal.NewNIC(model, m.Engine, m.IC, m.nextVec)
	m.nextVec++
	m.nics = append(m.nics, nic)
	m.Stack.Attach(nic)
	return nic
}

// NICs returns the machine's network interfaces in AddNIC order (the slice
// is shared; callers must not mutate it).
func (m *Machine) NICs() []*sal.NIC { return m.nics }

// Syscall models a user-level application invoking a kernel service: the
// trap handler raises the Trap.SystemCall event, which is dispatched to a
// handler installed by an extension. It returns the handler result.
func (m *Machine) Syscall(name string, arg any) any {
	m.Clock.Advance(m.Profile.Trap)
	m.Clock.Advance(m.Profile.SyscallOverhead)
	res := m.Dispatcher.RaiseEvent(m.syscallEv, &Syscall{Name: name, Arg: arg})
	m.Clock.Advance(m.Profile.Trap)
	return res
}

// RegisterSyscall installs an application-specific system call: a guarded
// handler on the trap event (how SPIN extensions "define application-
// specific system calls", §5.2).
func (m *Machine) RegisterSyscall(name string, ident domain.Identity, h func(arg any) any) (dispatch.HandlerRef, error) {
	return m.Dispatcher.Install(SyscallEvent, func(arg, _ any) any {
		return h(arg.(*Syscall).Arg)
	}, dispatch.InstallOptions{
		Installer: ident,
		Guard: func(arg any) bool {
			sc, ok := arg.(*Syscall)
			return ok && sc.Name == name
		},
	})
}

// EnableTracing switches on kernel-wide event tracing and latency
// profiling: every dispatch is recorded in a ring of ringSize
// records (trace.DefaultRingSize if <= 0) and fed into per-event,
// per-handler and per-subsystem latency histograms. The returned tracer's
// Dump renders the ring (spin-dbg's trace command, spin-httpd's
// /debug/trace) and the histograms join the machine's Metrics. Enabling is one
// pointer store; until then the machine pays one predictable nil check per
// raise. Like all of the machine's state, the tracer is the owner's: call
// this, and read the tracer, on the goroutine that steps the engine.
func (m *Machine) EnableTracing(ringSize int) *trace.Tracer {
	t := trace.New(ringSize)
	m.Dispatcher.SetTracer(t)
	return t
}

// DisableTracing switches tracing off (one pointer store). Records
// already buffered remain readable through the tracer EnableTracing
// returned.
func (m *Machine) DisableTracing() { m.Dispatcher.SetTracer(nil) }

// EnableFaultInjection arms the kernel's deterministic fault-injection
// harness: every injection site (dispatcher invocation, netstack RX /
// reassembly / TCP delivery, VM pager, strand entry, verified-filter
// actions at "bcode.run") consults the returned injector, whose decisions
// replay exactly from seed. Arm rules on the injector to make faults
// happen; until then each site costs one predictable nil check.
func (m *Machine) EnableFaultInjection(seed uint64) *faultinject.Injector {
	in := faultinject.New(seed, m.Clock)
	m.Dispatcher.SetInjector(in)
	return in
}

// DestroyDomain is crash-only extension teardown (the recovery action
// quarantine escalates to): in one call the named principal's interface
// exports are withdrawn from the nameserver, its event handlers are
// uninstalled from the dispatcher, and its network endpoints are released —
// without the departing code's cooperation. Importers that already linked
// keep their direct procedure pointers; the freed names are immediately
// re-exportable by a replacement extension. The report itemizes what was
// reclaimed.
func (m *Machine) DestroyDomain(ident domain.Identity) domain.DestroyReport {
	return m.Namespace.Destroy(ident)
}

// Run drains the machine's event queue (single-machine experiments).
func (m *Machine) Run() { m.Engine.Run(0) }

// NewUnixServer boots the UNIX operating system server (paper §1.2) on this
// machine: its processes get COW-forked address spaces from the VM
// extension, kernel threads from the strand package, and file/console I/O
// from the machine's devices.
func (m *Machine) NewUnixServer() *unixsrv.Server {
	return unixsrv.New(m.VM, m.FS, m.Sched, m.Threads, m.Console)
}
