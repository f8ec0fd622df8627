package sal

import (
	"fmt"

	"spin/internal/metrics"
)

// Frame is a snapshot of the hardware-visible state of one physical page
// frame. Changes go through PhysMem's methods, never through a Frame.
type Frame struct {
	// Dirty is set when the frame is written through a mapping. The SPIN
	// "Dirty" benchmark (Table 4) queries this — a facility neither DEC
	// OSF/1 nor Mach exported.
	Dirty bool
	// Referenced is set on any access.
	Referenced bool
	// InUse marks frames handed out by the physical allocator.
	InUse bool
	// Color is the frame's cache color (frame number modulo the number
	// of page-sized cache bins), used by allocation attributes.
	Color int
}

// NumColors is the number of page colors implied by the machine's 512 KB
// direct-mapped external cache and 8 KB pages.
const NumColors = 64

// The bits of a frame's state.
const (
	frameDirty uint8 = 1 << iota
	frameReferenced
	frameInUse
)

// PhysMem is the machine's physical page-frame array. It keeps no record
// of a frame nothing has written to: a frame's color is its number modulo
// NumColors, and the state bytes of all frames are made by the first write
// to any of them.
type PhysMem struct {
	frames int
	state  []uint8
}

// NewPhysMem returns physical memory of size bytes (rounded down to whole
// frames). The paper's machines had 64 MB.
func NewPhysMem(size int64) *PhysMem {
	return &PhysMem{frames: int(size / PageSize)}
}

// NumFrames reports the total number of frames.
func (pm *PhysMem) NumFrames() int { return pm.frames }

// Frame returns frame f's state.
func (pm *PhysMem) Frame(f uint64) (Frame, error) {
	if f >= uint64(pm.frames) {
		return Frame{}, fmt.Errorf("sal: frame %d out of range (%d frames)", f, pm.frames)
	}
	var bits uint8
	if pm.state != nil {
		bits = pm.state[f]
	}
	return Frame{
		Dirty:      bits&frameDirty != 0,
		Referenced: bits&frameReferenced != 0,
		InUse:      bits&frameInUse != 0,
		Color:      int(f % NumColors),
	}, nil
}

// update sets, then clears, bits of frame f's state.
func (pm *PhysMem) update(f uint64, set, clear uint8) error {
	if _, err := pm.Frame(f); err != nil {
		return err
	}
	if pm.state == nil {
		if set == 0 {
			return nil // every bit is already clear
		}
		pm.state = make([]uint8, pm.frames)
	}
	pm.state[f] = pm.state[f]&^clear | set
	return nil
}

// Touch records an access to frame f; write marks it dirty.
func (pm *PhysMem) Touch(f uint64, write bool) error {
	set := frameReferenced
	if write {
		set |= frameDirty
	}
	return pm.update(f, set, 0)
}

// ClearReferenced clears frame f's referenced bit, as a second-chance
// (clock) pager does when its hand passes.
func (pm *PhysMem) ClearReferenced(f uint64) error { return pm.update(f, 0, frameReferenced) }

// Claim marks frame f handed out by the physical allocator, clean and
// unreferenced.
func (pm *PhysMem) Claim(f uint64) error {
	return pm.update(f, frameInUse, frameDirty|frameReferenced)
}

// Release marks frame f free again.
func (pm *PhysMem) Release(f uint64) error { return pm.update(f, 0, frameInUse) }

// Metrics emits the frame count and how many frames the physical allocator
// has handed out. The state bytes are plain, so it runs on the simulation
// goroutine.
func (pm *PhysMem) Metrics(emit metrics.Emit) {
	inUse := 0
	for _, bits := range pm.state {
		if bits&frameInUse != 0 {
			inUse++
		}
	}
	emit("sal_phys_frames", float64(pm.frames))
	emit("sal_phys_frames_in_use", float64(inUse))
}
