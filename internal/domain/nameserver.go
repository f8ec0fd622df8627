package domain

import (
	"errors"
	"fmt"
	"sort"
)

// Identity names a principal performing an import — an extension, an
// application, or the kernel itself. It is what an exporter's authorizer
// sees (paper §3.1: "An exporter can register an authorization procedure
// with the nameserver that will be called with the identity of the importer
// whenever the interface is imported").
type Identity struct {
	// Name is the principal's name, e.g. "unix-server" or "video-client".
	Name string
	// Trusted marks principals the kernel trusts (core services).
	Trusted bool
}

// Authorizer decides whether importer may import an interface. A nil
// Authorizer admits everyone.
type Authorizer func(importer Identity) error

// ErrUnauthorized is returned (wrapped) when an authorizer denies an import.
var ErrUnauthorized = errors.New("domain: import unauthorized")

// ErrNotExported is returned when no interface is registered under a name.
var ErrNotExported = errors.New("domain: interface not exported")

type binding struct {
	dom   *T
	auth  Authorizer
	owner string
}

// reclaimer is one subsystem's teardown hook (see AddReclaimer).
type reclaimer struct {
	name string
	fn   func(owner Identity) int
}

// Nameserver is the in-kernel registry through which modules export
// interface domains under global names (e.g. Console.InterfaceName =
// "ConsoleService") and importers locate them. The importer, exporter and
// authorizer interact through direct procedure calls, so the fine-grained
// control has low cost.
//
// The nameserver is also the anchor for crash-only domain teardown: each
// binding records the owning principal, subsystems register reclaimers for
// the resources a principal can hold outside the nameserver (event handlers,
// capabilities, network endpoints), and Destroy withdraws a principal's
// whole footprint in one call.
//
// A nameserver belongs to one machine and is used only by whoever steps
// that machine's engine (or, at boot, builds it), so it takes no lock.
type Nameserver struct {
	bindings   map[string]binding
	reclaimers []reclaimer
}

// NewNameserver returns an empty nameserver.
func NewNameserver() *Nameserver {
	return &Nameserver{bindings: make(map[string]binding)}
}

// Export registers dom under name with an optional authorizer, owned by the
// domain itself (owner = dom.Name()). Re-export of an existing name fails:
// interface names version services, so replacing one is an explicit Unexport
// followed by Export.
func (ns *Nameserver) Export(name string, dom *T, auth Authorizer) error {
	if dom == nil {
		return errors.New("domain: Export of nil domain")
	}
	return ns.ExportOwned(name, dom, auth, Identity{Name: dom.Name()})
}

// ExportOwned is Export with an explicit owning principal — the identity a
// later Destroy must present to withdraw the binding. Extensions that export
// several interfaces under one identity use this so a single Destroy finds
// them all.
func (ns *Nameserver) ExportOwned(name string, dom *T, auth Authorizer, owner Identity) error {
	if dom == nil {
		return errors.New("domain: Export of nil domain")
	}
	if _, exists := ns.bindings[name]; exists {
		return fmt.Errorf("domain: interface %q already exported", name)
	}
	ns.bindings[name] = binding{dom: dom, auth: auth, owner: owner.Name}
	return nil
}

// Unexport removes the binding for name, if any.
func (ns *Nameserver) Unexport(name string) {
	delete(ns.bindings, name)
}

// Import returns the domain exported under name after consulting the
// exporter's authorizer with the importer's identity.
func (ns *Nameserver) Import(name string, importer Identity) (*T, error) {
	b, ok := ns.bindings[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotExported, name)
	}
	if b.auth != nil {
		if err := b.auth(importer); err != nil {
			return nil, fmt.Errorf("%w: %q for %q: %v", ErrUnauthorized, name, importer.Name, err)
		}
	}
	return b.dom, nil
}

// LinkAgainst imports the named interface and resolves target's undefined
// symbols against it — the common import-and-link idiom.
func (ns *Nameserver) LinkAgainst(name string, importer Identity, target *T) error {
	src, err := ns.Import(name, importer)
	if err != nil {
		return err
	}
	return Resolve(src, target)
}

// AddReclaimer registers a teardown hook under a diagnostic name (by
// convention the subsystem's trace origin: "dispatch", "net.udp",
// "net.tcp"). Destroy calls every reclaimer with the departing
// principal's identity; the hook withdraws whatever resources that principal
// holds in its subsystem and returns how many it reclaimed. Registration
// order is preserved — teardown runs hooks in the order subsystems booted.
func (ns *Nameserver) AddReclaimer(name string, fn func(owner Identity) int) {
	if fn == nil {
		return
	}
	ns.reclaimers = append(ns.reclaimers, reclaimer{name: name, fn: fn})
}

// DestroyReport accounts for one crash-only teardown: which bindings the
// nameserver withdrew and what each subsystem reclaimer recovered.
type DestroyReport struct {
	// Owner is the destroyed principal.
	Owner Identity
	// Unexported lists the interface names withdrawn, sorted.
	Unexported []string
	// Reclaimed maps reclaimer name -> resources reclaimed (only reclaimers
	// that recovered something appear).
	Reclaimed map[string]int
}

// Total reports the total number of resources reclaimed, bindings included.
func (r DestroyReport) Total() int {
	n := len(r.Unexported)
	for _, v := range r.Reclaimed {
		n += v
	}
	return n
}

// Destroy is crash-only domain teardown (the paper's §4.3 failure model
// applied deliberately): it withdraws every binding exported under owner's
// identity and runs every registered reclaimer so the principal's event
// handlers, capabilities and endpoints are recovered in one call, without
// the departing code's cooperation. Importers that already linked against
// the destroyed interfaces keep their direct procedure pointers — teardown
// revokes the ability to acquire, not memory safety of what was acquired —
// and the freed names are immediately re-exportable by a replacement.
func (ns *Nameserver) Destroy(owner Identity) DestroyReport {
	rep := DestroyReport{Owner: owner, Reclaimed: make(map[string]int)}
	for name, b := range ns.bindings {
		if b.owner == owner.Name {
			delete(ns.bindings, name)
			rep.Unexported = append(rep.Unexported, name)
		}
	}
	sort.Strings(rep.Unexported)
	for _, h := range ns.reclaimers {
		if n := h.fn(owner); n > 0 {
			rep.Reclaimed[h.name] += n
		}
	}
	return rep
}

// OwnerOf reports the owning principal of an exported name, if bound.
func (ns *Nameserver) OwnerOf(name string) (string, bool) {
	b, ok := ns.bindings[name]
	return b.owner, ok
}

// Names lists all exported interface names, sorted.
func (ns *Nameserver) Names() []string {
	out := make([]string, 0, len(ns.bindings))
	for n := range ns.bindings {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TrustedOnly is an Authorizer admitting only trusted principals; it is the
// guard core services place on hardware-facing interfaces.
func TrustedOnly(importer Identity) error {
	if !importer.Trusted {
		return fmt.Errorf("principal %q is not trusted", importer.Name)
	}
	return nil
}
