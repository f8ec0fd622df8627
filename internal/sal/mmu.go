// Package sal is the reproduction's analogue of SPIN's sal component: a
// low-level interface to simulated hardware — MMU and TLB, physical memory
// with per-frame state bits, interrupt delivery, console, disk, and network
// interfaces (Lance Ethernet, FORE ATM, Digital T3) — offering functionality
// such as "install a page table entry", "get a character from the console",
// and "read block 22 from SCSI unit 0".
//
// In the paper, sal is built from DEC OSF/1 kernel sources so that SPIN can
// track vendor hardware; here it is built on the sim package's virtual
// clock, so that VM, scheduling and networking experiments exercise the same
// structural paths the paper measured.
package sal

import (
	"fmt"

	"spin/internal/metrics"
	"spin/internal/sim"
)

// PageSize is the Alpha page size: 8 KB.
const PageSize = 8192

// PageShift is log2(PageSize).
const PageShift = 13

// Prot is a page protection bit mask.
type Prot uint8

// Protection bits.
const (
	ProtNone Prot = 0
	ProtRead Prot = 1 << iota
	ProtWrite
	ProtExec
)

func (p Prot) String() string {
	if p == ProtNone {
		return "---"
	}
	b := []byte("---")
	if p&ProtRead != 0 {
		b[0] = 'r'
	}
	if p&ProtWrite != 0 {
		b[1] = 'w'
	}
	if p&ProtExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// FaultKind classifies an MMU exception, mirroring the Translation
// interface's events (paper Figure 3).
type FaultKind int

// Fault kinds.
const (
	FaultNone FaultKind = iota
	// FaultBadAddress: access to an unallocated virtual address.
	FaultBadAddress
	// FaultPageNotPresent: allocated but unmapped virtual page.
	FaultPageNotPresent
	// FaultProtection: mapped page, insufficient protection.
	FaultProtection
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultBadAddress:
		return "bad-address"
	case FaultPageNotPresent:
		return "page-not-present"
	case FaultProtection:
		return "protection-fault"
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// Fault describes one MMU exception.
type Fault struct {
	Context uint64
	VPN     uint64 // virtual page number
	Access  Prot   // the attempted access
	Kind    FaultKind
}

// PTE is a page table entry.
type PTE struct {
	Frame uint64
	Prot  Prot
	Valid bool
}

// pageTable is one addressing context's page table: VPN -> PTE. Contexts
// also record which VPNs are *allocated* (known to the VM system) so the MMU
// can distinguish bad-address faults from page-not-present faults.
type pageTable struct {
	id        uint64
	entries   map[uint64]PTE
	allocated map[uint64]bool
}

// tlbEntry caches one translation.
type tlbEntry struct {
	ctx, vpn uint64
	pte      PTE
}

// TLBSize is the number of entries in the (fully associative, FIFO) TLB,
// sized like the Alpha 21064's 32-entry DTB.
const TLBSize = 32

// MMU simulates the memory management unit: per-context page tables, a
// unified TLB, and fault classification. All state-changing operations
// charge profile costs against the clock.
type MMU struct {
	clock   *sim.Clock
	profile *sim.Profile

	contexts map[uint64]*pageTable
	nextCtx  uint64

	tlb      []tlbEntry
	tlbHits  int64
	tlbMiss  int64
	faultCnt int64
}

// NewMMU returns an MMU charging against clock with profile costs.
func NewMMU(clock *sim.Clock, profile *sim.Profile) *MMU {
	return &MMU{
		clock:    clock,
		profile:  profile,
		contexts: make(map[uint64]*pageTable),
		nextCtx:  1,
	}
}

// CreateContext allocates a fresh addressing context and returns its id.
func (m *MMU) CreateContext() uint64 {
	m.clock.Advance(m.profile.PageTableOp)
	id := m.nextCtx
	m.nextCtx++
	m.contexts[id] = &pageTable{
		id:        id,
		entries:   make(map[uint64]PTE),
		allocated: make(map[uint64]bool),
	}
	return id
}

// DestroyContext removes a context and flushes its TLB entries.
func (m *MMU) DestroyContext(ctx uint64) error {
	if _, ok := m.contexts[ctx]; !ok {
		return fmt.Errorf("sal: no context %d", ctx)
	}
	m.clock.Advance(m.profile.PageTableOp)
	delete(m.contexts, ctx)
	m.flushContext(ctx)
	return nil
}

// MarkAllocated records that VPN is an allocated (VM-known) virtual page in
// ctx; accesses to it fault as page-not-present rather than bad-address.
func (m *MMU) MarkAllocated(ctx, vpn uint64, allocated bool) error {
	pt, ok := m.contexts[ctx]
	if !ok {
		return fmt.Errorf("sal: no context %d", ctx)
	}
	if allocated {
		pt.allocated[vpn] = true
	} else {
		delete(pt.allocated, vpn)
	}
	return nil
}

// Install writes a PTE ("install a page table entry") and invalidates any
// stale TLB entry for (ctx, vpn).
func (m *MMU) Install(ctx, vpn uint64, pte PTE) error {
	pt, ok := m.contexts[ctx]
	if !ok {
		return fmt.Errorf("sal: no context %d", ctx)
	}
	m.clock.Advance(m.profile.PageTableOp)
	pte.Valid = true
	pt.entries[vpn] = pte
	pt.allocated[vpn] = true
	m.invalidate(ctx, vpn)
	return nil
}

// Remove deletes the mapping for (ctx, vpn).
func (m *MMU) Remove(ctx, vpn uint64) error {
	pt, ok := m.contexts[ctx]
	if !ok {
		return fmt.Errorf("sal: no context %d", ctx)
	}
	m.clock.Advance(m.profile.PageTableOp)
	delete(pt.entries, vpn)
	m.invalidate(ctx, vpn)
	return nil
}

// Protect changes the protection on an existing mapping.
func (m *MMU) Protect(ctx, vpn uint64, prot Prot) error {
	pt, ok := m.contexts[ctx]
	if !ok {
		return fmt.Errorf("sal: no context %d", ctx)
	}
	pte, ok := pt.entries[vpn]
	if !ok {
		return fmt.Errorf("sal: context %d has no mapping for vpn %d", ctx, vpn)
	}
	m.clock.Advance(m.profile.PageTableOp)
	pte.Prot = prot
	pt.entries[vpn] = pte
	m.invalidate(ctx, vpn)
	return nil
}

// Examine returns the PTE for (ctx, vpn) without charging translation costs
// (a kernel-privileged inspection).
func (m *MMU) Examine(ctx, vpn uint64) (PTE, bool) {
	pt, ok := m.contexts[ctx]
	if !ok {
		return PTE{}, false
	}
	pte, ok := pt.entries[vpn]
	return pte, ok
}

// Translate performs one access: TLB lookup, page-table walk on miss, fault
// classification. On success it returns the frame number.
func (m *MMU) Translate(ctx, vpn uint64, access Prot) (uint64, *Fault) {
	// TLB lookup: free in virtual time (happens within a cycle).
	for i := range m.tlb {
		e := &m.tlb[i]
		if e.ctx == ctx && e.vpn == vpn {
			if e.pte.Prot&access != access {
				m.faultCnt++
				return 0, &Fault{Context: ctx, VPN: vpn, Access: access, Kind: FaultProtection}
			}
			m.tlbHits++
			return e.pte.Frame, nil
		}
	}
	m.tlbMiss++
	pt, ok := m.contexts[ctx]
	if !ok {
		m.faultCnt++
		return 0, &Fault{Context: ctx, VPN: vpn, Access: access, Kind: FaultBadAddress}
	}
	// Page-table walk: a few memory references.
	m.clock.Advance(4 * m.profile.CopyPerWord)
	pte, mapped := pt.entries[vpn]
	if !mapped {
		kind := FaultBadAddress
		if pt.allocated[vpn] {
			kind = FaultPageNotPresent
		}
		m.faultCnt++
		return 0, &Fault{Context: ctx, VPN: vpn, Access: access, Kind: kind}
	}
	if pte.Prot&access != access {
		m.faultCnt++
		return 0, &Fault{Context: ctx, VPN: vpn, Access: access, Kind: FaultProtection}
	}
	// Refill TLB, FIFO eviction.
	if len(m.tlb) >= TLBSize {
		m.tlb = m.tlb[1:]
	}
	m.tlb = append(m.tlb, tlbEntry{ctx: ctx, vpn: vpn, pte: pte})
	return pte.Frame, nil
}

// invalidate drops the TLB entry for (ctx, vpn) if cached.
func (m *MMU) invalidate(ctx, vpn uint64) {
	for i := range m.tlb {
		if m.tlb[i].ctx == ctx && m.tlb[i].vpn == vpn {
			m.tlb = append(m.tlb[:i], m.tlb[i+1:]...)
			return
		}
	}
}

// flushContext drops all TLB entries belonging to ctx.
func (m *MMU) flushContext(ctx uint64) {
	out := m.tlb[:0]
	for _, e := range m.tlb {
		if e.ctx != ctx {
			out = append(out, e)
		}
	}
	m.tlb = out
}

// Metrics emits the TLB's hits and misses and the faults classified. They
// are plain fields, so it runs on the simulation goroutine, like every MMU
// method.
func (m *MMU) Metrics(emit metrics.Emit) {
	emit("sal_tlb_hits", float64(m.tlbHits))
	emit("sal_tlb_misses", float64(m.tlbMiss))
	emit("sal_mmu_faults", float64(m.faultCnt))
}
