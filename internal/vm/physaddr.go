package vm

import (
	"spin/internal/sal"
	"spin/internal/sim"
)

// Attrib expresses machine-specific allocation preferences (paper: "an
// optional series of attributes that reflect preferences for machine
// specific parameters such as color or contiguity").
type Attrib struct {
	// Color requests frames of one cache color; -1 means any.
	Color int
	// Contiguous requests physically contiguous frames.
	Contiguous bool
}

// AnyAttrib is the default: any color, no contiguity.
var AnyAttrib = Attrib{Color: -1}

// PhysAddr is a capability for physical memory (PhysAddr.T). A physical
// page "is not, for most purposes, a nameable entity"; clients hold this
// capability, not frame numbers. Frames are reachable only by the
// translation service.
type PhysAddr struct {
	frames []uint64
	owner  *PhysAddrService
	dead   bool
}

// Pages reports the number of frames backing the capability.
func (p *PhysAddr) Pages() int { return len(p.frames) }

// Size reports the backing size in bytes.
func (p *PhysAddr) Size() int64 { return int64(len(p.frames)) * sal.PageSize }

// PhysAddrService controls the use and allocation of physical pages.
type PhysAddrService struct {
	sys      *System
	free     map[int][]uint64 // per-color free lists
	liveCaps map[*PhysAddr]bool
	total    int
	inUse    int
}

func newPhysAddrService(sys *System) *PhysAddrService {
	svc := &PhysAddrService{
		sys:      sys,
		free:     make(map[int][]uint64),
		liveCaps: make(map[*PhysAddr]bool),
		total:    sys.Phys.NumFrames(),
	}
	// Seed free lists; low frames are reserved for the kernel image
	// (first 2 MB), as on real hardware. Colours go round the frames, so
	// each list is cut from one slab with room for its share and no more:
	// one allocation a machine, not one per list growth, and a list that
	// does outgrow its share moves out by itself.
	reserved := (2 << 20) / sal.PageSize
	share := max(svc.total-reserved, 0)/sal.NumColors + 1
	slab := make([]uint64, share*sal.NumColors)
	for f := reserved; f < svc.total; f++ {
		fr, _ := sys.Phys.Frame(uint64(f))
		list, ok := svc.free[fr.Color]
		if !ok {
			list = slab[fr.Color*share:][:0:share]
		}
		svc.free[fr.Color] = append(list, uint64(f))
	}
	return svc
}

// Allocate grants a capability for size bytes (rounded up to whole pages) of
// physical memory satisfying attrib. Raising Allocate costs a procedure
// call plus per-frame bookkeeping.
func (svc *PhysAddrService) Allocate(size int64, attrib Attrib) (*PhysAddr, error) {
	svc.sys.Clock.Advance(svc.sys.Profile.CrossDomainCall)
	pages := int((size + sal.PageSize - 1) / sal.PageSize)
	if pages == 0 {
		pages = 1
	}
	frames, err := svc.take(pages, attrib)
	if err != nil {
		return nil, err
	}
	svc.sys.Clock.Advance(sim.Duration(pages) * 200)
	for _, f := range frames {
		fr, _ := svc.sys.Phys.Frame(f)
		fr.InUse = true
		fr.Dirty = false
		fr.Referenced = false
	}
	cap := &PhysAddr{frames: frames, owner: svc}
	svc.liveCaps[cap] = true
	svc.inUse += pages
	return cap, nil
}

func (svc *PhysAddrService) take(pages int, attrib Attrib) ([]uint64, error) {
	if attrib.Contiguous {
		return svc.takeContiguous(pages)
	}
	frames := make([]uint64, 0, pages)
	if attrib.Color >= 0 {
		list := svc.free[attrib.Color]
		if len(list) < pages {
			return nil, ErrNoMemory
		}
		frames = append(frames, list[:pages]...)
		svc.free[attrib.Color] = list[pages:]
		return frames, nil
	}
	for color := 0; color < sal.NumColors && len(frames) < pages; color++ {
		list := svc.free[color]
		for len(list) > 0 && len(frames) < pages {
			frames = append(frames, list[0])
			list = list[1:]
		}
		svc.free[color] = list
	}
	if len(frames) < pages {
		svc.putBack(frames)
		return nil, ErrNoMemory
	}
	return frames, nil
}

// takeContiguous scans free frames for a physically contiguous run.
func (svc *PhysAddrService) takeContiguous(pages int) ([]uint64, error) {
	avail := make(map[uint64]bool)
	for _, list := range svc.free {
		for _, f := range list {
			avail[f] = true
		}
	}
	for start := range avail {
		run := true
		for i := 1; i < pages; i++ {
			if !avail[start+uint64(i)] {
				run = false
				break
			}
		}
		if !run {
			continue
		}
		frames := make([]uint64, pages)
		for i := range frames {
			frames[i] = start + uint64(i)
		}
		svc.removeFromFree(frames)
		return frames, nil
	}
	return nil, ErrNoMemory
}

func (svc *PhysAddrService) removeFromFree(frames []uint64) {
	victim := make(map[uint64]bool, len(frames))
	for _, f := range frames {
		victim[f] = true
	}
	for color, list := range svc.free {
		out := list[:0]
		for _, f := range list {
			if !victim[f] {
				out = append(out, f)
			}
		}
		svc.free[color] = out
	}
}

func (svc *PhysAddrService) putBack(frames []uint64) {
	for _, f := range frames {
		fr, _ := svc.sys.Phys.Frame(f)
		fr.InUse = false
		svc.free[fr.Color] = append(svc.free[fr.Color], f)
	}
}

// Deallocate returns the capability's memory. The translation service first
// invalidates any mappings to it, so a client cannot keep a usable mapping
// to memory it no longer owns.
func (svc *PhysAddrService) Deallocate(p *PhysAddr) error {
	svc.sys.Clock.Advance(svc.sys.Profile.CrossDomainCall)
	if p == nil || p.dead || !svc.liveCaps[p] {
		return badCap("PhysAddr.T")
	}
	svc.sys.TransSvc.invalidateFrames(p.frames)
	svc.putBack(p.frames)
	svc.inUse -= len(p.frames)
	delete(svc.liveCaps, p)
	p.dead = true
	return nil
}

// Reclaim asks to reclaim the candidate page. Handlers of the
// PhysAddr.Reclaim event may nominate an alternative, which is reclaimed
// instead; any mappings to the reclaimed memory are invalidated. It returns
// the capability actually reclaimed.
func (svc *PhysAddrService) Reclaim(candidate *PhysAddr) (*PhysAddr, error) {
	if candidate == nil || candidate.dead || !svc.liveCaps[candidate] {
		return nil, badCap("PhysAddr.T")
	}
	victim := candidate
	if alt, ok := svc.sys.Disp.Raise(EvReclaim, candidate).(*PhysAddr); ok && alt != nil {
		if !alt.dead && svc.liveCaps[alt] {
			victim = alt
		}
	}
	if err := svc.Deallocate(victim); err != nil {
		return nil, err
	}
	return victim, nil
}

// IsDirty reports whether any frame backing p has been written through a
// mapping — the Table 4 "Dirty" query, a facility the comparison systems do
// not export.
func (svc *PhysAddrService) IsDirty(p *PhysAddr) (bool, error) {
	svc.sys.Clock.Advance(svc.sys.Profile.CrossDomainCall)
	svc.sys.Clock.Advance(svc.sys.Profile.VMQueryCost)
	if p == nil || p.dead {
		return false, badCap("PhysAddr.T")
	}
	for _, f := range p.frames {
		fr, err := svc.sys.Phys.Frame(f)
		if err != nil {
			return false, err
		}
		if fr.Dirty {
			return true, nil
		}
	}
	return false, nil
}

// FreePages reports the number of free frames.
func (svc *PhysAddrService) FreePages() int {
	n := 0
	for _, list := range svc.free {
		n += len(list)
	}
	return n
}

// InUsePages reports the number of allocated frames.
func (svc *PhysAddrService) InUsePages() int { return svc.inUse }
