// Package vm implements SPIN's extensible memory management (paper §4.1,
// Figure 3): three decomposed services — physical storage (PhysAddr),
// naming (VirtAddr), and translation (Translation) — each exported through a
// fine-grained interface, plus the MMU-exception events through which
// extensions implement higher-level abstractions (demand paging,
// copy-on-write address spaces, Mach-style tasks).
//
// The decomposition is the paper's point: because invoking each service
// costs a procedure call, it is feasible to expose "allocate a single
// virtual page, a physical page, and create a mapping between the two" as
// separate operations and let applications compose them.
package vm

import (
	"errors"
	"fmt"

	"spin/internal/dispatch"
	"spin/internal/sal"
	"spin/internal/sim"
)

// Event names raised by the translation and physical-address services.
const (
	EvPageNotPresent  = "Translation.PageNotPresent"
	EvBadAddress      = "Translation.BadAddress"
	EvProtectionFault = "Translation.ProtectionFault"
	EvReclaim         = "PhysAddr.Reclaim"
)

// System bundles the three memory services over one machine's hardware.
type System struct {
	Engine  *sim.Engine
	Clock   *sim.Clock
	Profile *sim.Profile
	Disp    *dispatch.Dispatcher
	MMU     *sal.MMU
	Phys    *sal.PhysMem

	PhysSvc  *PhysAddrService
	VirtSvc  *VirtAddrService
	TransSvc *TranslationService

	// The four events, resolved once: a fault or a reclaim raises by handle.
	evBadAddress, evPageNotPresent, evProtection, evReclaim *dispatch.Event
}

// New wires a memory system over the given hardware and dispatcher, defining
// the four VM events.
func New(engine *sim.Engine, profile *sim.Profile, disp *dispatch.Dispatcher,
	mmu *sal.MMU, phys *sal.PhysMem) (*System, error) {

	s := &System{
		Engine:  engine,
		Clock:   engine.Clock,
		Profile: profile,
		Disp:    disp,
		MMU:     mmu,
		Phys:    phys,
	}
	s.PhysSvc = newPhysAddrService(s)
	s.VirtSvc = newVirtAddrService(s)
	s.TransSvc = newTranslationService(s)

	// Fault events return a bool: true when a handler resolved the fault
	// and the access should be retried. AnyResolved combines handlers.
	anyResolved := func(results []any) any {
		for _, r := range results {
			if b, ok := r.(bool); ok && b {
				return true
			}
		}
		return false
	}
	for _, name := range []string{EvPageNotPresent, EvBadAddress, EvProtectionFault} {
		if err := disp.Define(name, dispatch.DefineOptions{Combiner: anyResolved}); err != nil {
			return nil, err
		}
	}
	// Reclaim handlers may volunteer an alternative page; the first
	// non-nil alternative wins.
	firstAlternative := func(results []any) any {
		for _, r := range results {
			if p, ok := r.(*PhysAddr); ok && p != nil {
				return p
			}
		}
		return nil
	}
	if err := disp.Define(EvReclaim, dispatch.DefineOptions{Combiner: firstAlternative}); err != nil {
		return nil, err
	}
	s.evBadAddress, s.evPageNotPresent = disp.Event(EvBadAddress), disp.Event(EvPageNotPresent)
	s.evProtection, s.evReclaim = disp.Event(EvProtectionFault), disp.Event(EvReclaim)
	return s, nil
}

// Access simulates one user-mode memory access at va in ctx with the given
// access mode. On a fault, it charges the trap and delivery path, raises the
// corresponding Translation event, and — if some handler resolved the fault
// — charges the resume path and retries. It returns the final fault (nil on
// success) and the handler-entry latency of the *first* fault, which is what
// the Table 4 "Trap" benchmark measures.
func (s *System) Access(ctx *Context, va uint64, mode sal.Prot) (faultOut *sal.Fault, trapLatency sim.Duration) {
	const maxRetries = 4
	vpn := va >> sal.PageShift
	for attempt := 0; attempt < maxRetries; attempt++ {
		frame, fault := s.MMU.Translate(ctx.id, vpn, mode)
		if fault == nil {
			_ = s.Phys.Touch(frame, mode&sal.ProtWrite != 0)
			return nil, trapLatency
		}
		// Hardware trap into the kernel, then fault delivery to the
		// handling extension.
		start := s.Clock.Now()
		s.Clock.Advance(s.Profile.Trap)
		s.Clock.Advance(s.Profile.ExceptionDeliver)
		if attempt == 0 {
			trapLatency = s.Clock.Now().Sub(start)
		}
		var ev *dispatch.Event
		switch fault.Kind {
		case sal.FaultBadAddress:
			ev = s.evBadAddress
		case sal.FaultPageNotPresent:
			ev = s.evPageNotPresent
		case sal.FaultProtection:
			ev = s.evProtection
		default:
			return fault, trapLatency
		}
		resolved, _ := s.Disp.RaiseEvent(ev, fault).(bool)
		if !resolved {
			return fault, trapLatency
		}
		// Resume the faulting context and retry the access.
		s.Clock.Advance(s.Profile.ExceptionResume)
		s.Clock.Advance(s.Profile.Trap)
	}
	return &sal.Fault{Context: ctx.id, VPN: vpn, Access: mode, Kind: sal.FaultProtection}, trapLatency
}

// GuardContext returns a dispatch guard matching faults in ctx — the
// per-instance dispatch idiom: one event name, per-context handlers.
func GuardContext(ctx *Context) dispatch.Guard {
	id := ctx.id
	return func(arg any) bool {
		f, ok := arg.(*sal.Fault)
		return ok && f.Context == id
	}
}

// Errors shared by the services.
var (
	ErrNoMemory      = errors.New("vm: out of physical memory")
	ErrBadCapability = errors.New("vm: invalid or stale capability")
	ErrNoSpace       = errors.New("vm: virtual address space exhausted")
	ErrBadAttrib     = errors.New("vm: allocation attribute out of range")
)

func badCap(what string) error { return fmt.Errorf("%w: %s", ErrBadCapability, what) }
