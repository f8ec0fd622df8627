package vm

import (
	"fmt"

	"spin/internal/dispatch"
	"spin/internal/domain"
	"spin/internal/faultinject"
	"spin/internal/sal"
)

// Pager is a demand-paging extension with a disk backing store — the
// canonical composition §4.1 names ("Implementors of higher level memory
// management abstractions can use these events to define services, such as
// demand paging"). It bounds a region's resident set: page faults bring
// pages in (from swap if previously evicted), and crossing the resident
// limit evicts a victim to swap, chosen by a second-chance (clock)
// policy over the hardware referenced bits.
type Pager struct {
	sys    *System
	disk   *sal.Disk
	ctx    *Context
	region *VirtAddr
	prot   sal.Prot
	ident  domain.Identity

	// MaxResident bounds the region's resident pages.
	MaxResident int

	// resident maps page index -> backing physical capability.
	resident map[int]*PhysAddr
	// swapSlot maps page index -> disk block holding its contents.
	swapSlot map[int]int64
	// clockHand iterates page indices for second-chance eviction.
	clockOrder []int
	clockHand  int
	nextBlock  int64

	// Faults, SwapIns and Evictions expose behaviour.
	Faults    int
	SwapIns   int
	Evictions int
}

// NewPager arms demand paging with backing store over region in ctx,
// keeping at most maxResident pages resident. swapBase is the first disk
// block of the region's swap area.
func NewPager(sys *System, disk *sal.Disk, ctx *Context, region *VirtAddr,
	prot sal.Prot, maxResident int, swapBase int64, installer domain.Identity) (*Pager, error) {
	if maxResident < 1 {
		return nil, fmt.Errorf("vm: pager needs maxResident >= 1")
	}
	pg := &Pager{
		sys:         sys,
		disk:        disk,
		ctx:         ctx,
		region:      region,
		prot:        prot,
		ident:       installer,
		MaxResident: maxResident,
		resident:    make(map[int]*PhysAddr),
		swapSlot:    make(map[int]int64),
		nextBlock:   swapBase,
	}
	if err := sys.TransSvc.MarkAllocated(ctx, region); err != nil {
		return nil, err
	}
	lo, hi := region.VPN(0), region.VPN(region.Pages()-1)
	_, err := sys.Disp.Install(EvPageNotPresent, func(arg, _ any) any {
		f := arg.(*sal.Fault)
		return pg.fault(int(f.VPN - lo))
	}, dispatch.InstallOptions{
		Installer: installer,
		Guard: func(arg any) bool {
			f, ok := arg.(*sal.Fault)
			return ok && f.Context == ctx.id && f.VPN >= lo && f.VPN <= hi
		},
	})
	if err != nil {
		return nil, err
	}
	return pg, nil
}

// fault brings one page in, evicting first if the resident set is full.
// Each fault is one sample in the "vm.pager.fault" latency series when
// tracing is enabled — the disk transfer and mapping costs it covers are
// what the paper's Table 4 measures.
func (pg *Pager) fault(page int) bool {
	// Injection site "vm.pager.fault": error/drop fails the page-in (the
	// faulting access is denied, as on backing-store failure); a panic rule
	// exercises the dispatcher's handler containment.
	if f := pg.sys.Disp.InjectorInstalled().Fire("vm.pager.fault"); f.Kind == faultinject.KindError || f.Kind == faultinject.KindDrop {
		return false
	}
	if tr := pg.sys.Disp.Tracer(); tr != nil {
		start := pg.sys.Clock.Now()
		defer func() {
			tr.Observe("vm.pager.fault", pg.sys.Clock.Now().Sub(start))
		}()
	}
	pg.Faults++
	if len(pg.resident) >= pg.MaxResident {
		if !pg.evictOne() {
			return false
		}
	}
	p, err := pg.sys.PhysSvc.Allocate(sal.PageSize, AnyAttrib)
	if err != nil {
		return false
	}
	// Swap-in if this page was evicted before; zero-fill otherwise.
	if slot, ok := pg.swapSlot[page]; ok {
		_ = pg.disk.ReadBlock(slot)
		pg.SwapIns++
	}
	if err := pg.sys.TransSvc.MapPage(pg.ctx, pg.region, page, p, 0, pg.prot); err != nil {
		_ = pg.sys.PhysSvc.Deallocate(p)
		return false
	}
	pg.resident[page] = p
	pg.clockOrder = append(pg.clockOrder, page)
	return true
}

// evictOne writes a victim to swap and unmaps it, using second-chance over
// the hardware referenced bits.
func (pg *Pager) evictOne() bool {
	for sweep := 0; sweep < 2*len(pg.clockOrder)+1; sweep++ {
		if len(pg.clockOrder) == 0 {
			return false
		}
		pg.clockHand %= len(pg.clockOrder)
		page := pg.clockOrder[pg.clockHand]
		p, ok := pg.resident[page]
		if !ok {
			pg.clockOrder = append(pg.clockOrder[:pg.clockHand], pg.clockOrder[pg.clockHand+1:]...)
			continue
		}
		if fr, err := pg.sys.Phys.Frame(p.frames[0]); err == nil && fr.Referenced {
			// Second chance: clear and advance.
			_ = pg.sys.Phys.ClearReferenced(p.frames[0])
			pg.clockHand++
			continue
		}
		return pg.evict(page, p)
	}
	// Everything referenced twice around: take the hand's page.
	page := pg.clockOrder[pg.clockHand%len(pg.clockOrder)]
	return pg.evict(page, pg.resident[page])
}

func (pg *Pager) evict(page int, p *PhysAddr) bool {
	slot, ok := pg.swapSlot[page]
	if !ok {
		slot = pg.nextBlock
		pg.nextBlock++
		pg.swapSlot[page] = slot
	}
	pg.disk.WriteBlock(slot, nil) // page-out: the transfer cost is the point
	if err := pg.sys.TransSvc.UnmapPage(pg.ctx, pg.region, page); err != nil {
		return false
	}
	if err := pg.sys.PhysSvc.Deallocate(p); err != nil {
		return false
	}
	delete(pg.resident, page)
	for i, v := range pg.clockOrder {
		if v == page {
			pg.clockOrder = append(pg.clockOrder[:i], pg.clockOrder[i+1:]...)
			break
		}
	}
	pg.Evictions++
	return true
}

// Resident reports the resident page count.
func (pg *Pager) Resident() int { return len(pg.resident) }

// IsResident reports whether page index i is mapped.
func (pg *Pager) IsResident(i int) bool {
	_, ok := pg.resident[i]
	return ok
}
