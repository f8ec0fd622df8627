package vm

import (
	"fmt"
	"slices"

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
//
// It writes nothing down per frame. A color's free frames, in the order
// they are handed out, are those its cursor has yet to reach, lowest first,
// then those given back, oldest first. A frame is free exactly when it is
// not InUse.
type PhysAddrService struct {
	sys      *System
	liveCaps map[*PhysAddr]bool
	total    int
	inUse    int
	// next is each color's cursor: no frame of the color at or beyond it
	// has been handed out, except those in ahead.
	next [sal.NumColors]uint64
	// returned is each color's queue of frames given back.
	returned [sal.NumColors][]uint64
	// ahead holds the frames contiguous runs took from beyond their color's
	// cursor; the cursor skips them when it gets there. Nil until then.
	ahead map[uint64]struct{}
}

// reservedFrames are the kernel image (first 2 MB), never handed out, as on
// real hardware.
const reservedFrames = (2 << 20) / sal.PageSize

func newPhysAddrService(sys *System) *PhysAddrService {
	svc := &PhysAddrService{
		sys:      sys,
		liveCaps: make(map[*PhysAddr]bool),
		total:    sys.Phys.NumFrames(),
	}
	for c := range svc.next {
		svc.next[c] = reservedFrames + uint64(c-reservedFrames%sal.NumColors+sal.NumColors)%sal.NumColors
	}
	return svc
}

// Allocate grants a capability for size bytes (rounded up to whole pages) of
// physical memory satisfying attrib. Raising Allocate costs a procedure
// call plus per-frame bookkeeping.
func (svc *PhysAddrService) Allocate(size int64, attrib Attrib) (*PhysAddr, error) {
	svc.sys.Clock.Advance(svc.sys.Profile.CrossDomainCall)
	if attrib.Color < -1 || attrib.Color >= sal.NumColors {
		return nil, fmt.Errorf("%w: color %d outside [-1, %d)", ErrBadAttrib, attrib.Color, sal.NumColors)
	}
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
		_ = svc.sys.Phys.Claim(f)
	}
	cap := &PhysAddr{frames: frames, owner: svc}
	svc.liveCaps[cap] = true
	svc.inUse += pages
	return cap, nil
}

// take picks pages free frames: the lowest contiguous run, or color by
// color from the lowest color (just the one asked for, if any).
func (svc *PhysAddrService) take(pages int, attrib Attrib) ([]uint64, error) {
	if attrib.Contiguous {
		return svc.takeContiguous(pages)
	}
	lo, hi, free := 0, sal.NumColors, svc.FreePages()
	if attrib.Color >= 0 {
		lo, hi, free = attrib.Color, attrib.Color+1, svc.freeOf(attrib.Color)
	}
	if free < pages {
		return nil, ErrNoMemory
	}
	frames := make([]uint64, 0, pages)
	for c := lo; c < hi; c++ {
		for len(frames) < pages {
			f, ok := svc.takeColor(c)
			if !ok {
				break
			}
			frames = append(frames, f)
		}
	}
	return frames, nil
}

// takeColor hands out color c's next free frame.
func (svc *PhysAddrService) takeColor(c int) (uint64, bool) {
	for f := svc.next[c]; f < uint64(svc.total); f = svc.next[c] {
		svc.next[c] = f + sal.NumColors
		if _, skip := svc.ahead[f]; !skip {
			return f, true
		}
		delete(svc.ahead, f)
	}
	if q := svc.returned[c]; len(q) > 0 {
		svc.returned[c] = q[1:]
		return q[0], true
	}
	return 0, false
}

// freeOf counts color c's free frames. Every frame in ahead lies beyond its
// color's cursor and is either in use or queued as returned, so it is
// counted once too often.
func (svc *PhysAddrService) freeOf(c int) int {
	n := len(svc.returned[c])
	if f := svc.next[c]; f < uint64(svc.total) {
		n += int((uint64(svc.total)-1-f)/sal.NumColors) + 1
	}
	for f := range svc.ahead {
		if f%sal.NumColors == uint64(c) {
			n--
		}
	}
	return n
}

// takeContiguous takes the lowest run of pages free frames.
func (svc *PhysAddrService) takeContiguous(pages int) ([]uint64, error) {
	run := 0
	for f := uint64(reservedFrames); f < uint64(svc.total); f++ {
		if fr, _ := svc.sys.Phys.Frame(f); fr.InUse {
			run = 0
			continue
		}
		if run++; run < pages {
			continue
		}
		frames := make([]uint64, pages)
		for i := range frames {
			frames[i] = f + 1 - uint64(pages-i)
			svc.unqueue(frames[i])
		}
		return frames, nil
	}
	return nil, ErrNoMemory
}

// unqueue takes free frame f out of its color's order: out of the returned
// queue, or, if the cursor has yet to reach it, by having the cursor skip it.
func (svc *PhysAddrService) unqueue(f uint64) {
	c := f % sal.NumColors
	if _, skipped := svc.ahead[f]; !skipped && f >= svc.next[c] {
		if svc.ahead == nil {
			svc.ahead = make(map[uint64]struct{})
		}
		svc.ahead[f] = struct{}{}
		return
	}
	q := svc.returned[c]
	i := slices.Index(q, f)
	svc.returned[c] = slices.Delete(q, i, i+1)
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
	for _, f := range p.frames {
		_ = svc.sys.Phys.Release(f)
		svc.returned[f%sal.NumColors] = append(svc.returned[f%sal.NumColors], f)
	}
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
	if alt, ok := svc.sys.Disp.RaiseEvent(svc.sys.evReclaim, candidate).(*PhysAddr); ok && alt != nil {
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
	return max(svc.total-reservedFrames, 0) - svc.inUse
}

// InUsePages reports the number of allocated frames.
func (svc *PhysAddrService) InUsePages() int { return svc.inUse }
