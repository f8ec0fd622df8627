package vm

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"spin/internal/dispatch"
	"spin/internal/sal"
	"spin/internal/sim"
)

// listAllocator is the frame allocator the color cursors replaced, kept as
// the oracle: one free list per color, every free frame written down at
// boot, taken from the front and given back at the tail. Only its
// contiguous search differs from the original, which took whichever run
// map iteration reached first; this one takes the lowest.
type listAllocator struct {
	free map[int][]uint64
}

func newListAllocator(total int) *listAllocator {
	la := &listAllocator{free: make(map[int][]uint64)}
	for f := reservedFrames; f < total; f++ {
		la.free[f%sal.NumColors] = append(la.free[f%sal.NumColors], uint64(f))
	}
	return la
}

func (la *listAllocator) take(pages int, attrib Attrib) ([]uint64, error) {
	if attrib.Contiguous {
		return la.takeContiguous(pages)
	}
	frames := make([]uint64, 0, pages)
	if attrib.Color >= 0 {
		list := la.free[attrib.Color]
		if len(list) < pages {
			return nil, ErrNoMemory
		}
		frames = append(frames, list[:pages]...)
		la.free[attrib.Color] = list[pages:]
		return frames, nil
	}
	for color := 0; color < sal.NumColors && len(frames) < pages; color++ {
		list := la.free[color]
		for len(list) > 0 && len(frames) < pages {
			frames = append(frames, list[0])
			list = list[1:]
		}
		la.free[color] = list
	}
	if len(frames) < pages {
		la.putBack(frames)
		return nil, ErrNoMemory
	}
	return frames, nil
}

func (la *listAllocator) takeContiguous(pages int) ([]uint64, error) {
	avail := make(map[uint64]bool)
	for _, list := range la.free {
		for _, f := range list {
			avail[f] = true
		}
	}
	starts := make([]uint64, 0, len(avail))
	for f := range avail {
		starts = append(starts, f)
	}
	slices.Sort(starts)
	for _, start := range starts {
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
		la.removeFromFree(frames)
		return frames, nil
	}
	return nil, ErrNoMemory
}

func (la *listAllocator) removeFromFree(frames []uint64) {
	victim := make(map[uint64]bool, len(frames))
	for _, f := range frames {
		victim[f] = true
	}
	for color, list := range la.free {
		out := list[:0]
		for _, f := range list {
			if !victim[f] {
				out = append(out, f)
			}
		}
		la.free[color] = out
	}
}

func (la *listAllocator) putBack(frames []uint64) {
	for _, f := range frames {
		c := int(f % sal.NumColors)
		la.free[c] = append(la.free[c], f)
	}
}

func (la *listAllocator) freePages() int {
	n := 0
	for _, list := range la.free {
		n += len(list)
	}
	return n
}

// runAllocatorOracle drives the allocator and the free-list oracle through
// one seeded sequence of allocations (any color, one color, contiguous) and
// releases (Deallocate, Reclaim) of 1-130 pages, enough to exhaust memory
// over and over, and returns every frame slice handed out, in order.
func runAllocatorOracle(t *testing.T, seed uint64) [][]uint64 {
	t.Helper()
	eng := sim.NewEngine()
	disp := dispatch.New(eng, &sim.SPINProfile)
	sys, err := New(eng, &sim.SPINProfile, disp, sal.NewMMU(eng.Clock, &sim.SPINProfile), sal.NewPhysMem(16<<20))
	if err != nil {
		t.Fatal(err)
	}
	ref := newListAllocator(sys.Phys.NumFrames())
	rng := sim.NewRand(seed)
	frames := sys.PhysSvc.FreePages()
	var trace [][]uint64
	var live []*PhysAddr
	failed := 0
	for step := 0; step < 1200; step++ {
		if rng.Intn(10) < 4 && len(live) > 0 {
			i := rng.Intn(len(live))
			p := live[i]
			live = slices.Delete(live, i, i+1)
			ref.putBack(p.frames)
			release := sys.PhysSvc.Deallocate
			if rng.Intn(2) == 0 {
				release = func(p *PhysAddr) error { _, err := sys.PhysSvc.Reclaim(p); return err }
			}
			if err := release(p); err != nil {
				t.Fatalf("seed %d step %d: release: %v", seed, step, err)
			}
		} else {
			pages := 1 + rng.Intn(130)
			attrib := AnyAttrib
			switch rng.Intn(4) {
			case 0:
				attrib.Color = rng.Intn(sal.NumColors)
			case 1:
				attrib.Contiguous = true
			}
			want, werr := ref.take(pages, attrib)
			p, err := sys.PhysSvc.Allocate(int64(pages)*sal.PageSize, attrib)
			switch {
			case !errors.Is(err, werr):
				t.Fatalf("seed %d step %d: %d pages %+v: err %v, free lists say %v", seed, step, pages, attrib, err, werr)
			case err != nil:
				failed++
			case !slices.Equal(p.frames, want):
				t.Fatalf("seed %d step %d: %d pages %+v:\n got %v\nwant %v", seed, step, pages, attrib, p.frames, want)
			default:
				live = append(live, p)
				trace = append(trace, p.frames)
			}
		}
		free := sys.PhysSvc.FreePages()
		if free+sys.PhysSvc.InUsePages() != frames || free != ref.freePages() {
			t.Fatalf("seed %d step %d: free %d + in use %d, want %d free of %d",
				seed, step, free, sys.PhysSvc.InUsePages(), ref.freePages(), frames)
		}
	}
	if failed == 0 {
		t.Fatalf("seed %d: memory was never exhausted", seed)
	}
	return trace
}

// The color cursors hand out exactly what the free lists did, request for
// request, through exhaustion and the failed request that follows it; a
// contiguous request gets the lowest free run, the same one every run.
func TestPhysAllocatorMatchesFreeLists(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		first := runAllocatorOracle(t, seed)
		if again := runAllocatorOracle(t, seed); fmt.Sprint(again) != fmt.Sprint(first) {
			t.Fatalf("seed %d: a second run handed out different frames", seed)
		}
	}
}

func TestPhysAllocatorRejectsBadColor(t *testing.T) {
	sys := newVM(t)
	free := sys.PhysSvc.FreePages()
	for _, c := range []int{-2, sal.NumColors, 1 << 20} {
		if _, err := sys.PhysSvc.Allocate(sal.PageSize, Attrib{Color: c}); !errors.Is(err, ErrBadAttrib) {
			t.Errorf("color %d: err = %v, want ErrBadAttrib", c, err)
		}
	}
	if sys.PhysSvc.FreePages() != free {
		t.Errorf("rejected requests took frames: %d -> %d free", free, sys.PhysSvc.FreePages())
	}
}
