package vm

import (
	"testing"

	"spin/internal/domain"
	"spin/internal/sal"
	"spin/internal/sim"
)

func newPagerRig(t *testing.T, pages, maxResident int) (*System, *Pager, *Context, *VirtAddr, *sal.Disk) {
	t.Helper()
	sys := newVM(t)
	disk := sal.NewDisk(sys.Clock)
	ctx := sys.TransSvc.Create()
	asid := sys.VirtSvc.NewASID()
	region, err := sys.VirtSvc.Allocate(asid, int64(pages)*sal.PageSize, AnyAttrib)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := NewPager(sys, disk, ctx, region, sal.ProtRead|sal.ProtWrite, maxResident, 1000, domain.Identity{Name: "pager"})
	if err != nil {
		t.Fatal(err)
	}
	return sys, pg, ctx, region, disk
}

func touch(t *testing.T, sys *System, ctx *Context, region *VirtAddr, page int) {
	t.Helper()
	if f, _ := sys.Access(ctx, region.Start()+uint64(page)*sal.PageSize, sal.ProtWrite); f != nil {
		t.Fatalf("page %d fault unresolved: %v", page, f.Kind)
	}
}

func TestPagerDemandFill(t *testing.T) {
	sys, pg, ctx, region, _ := newPagerRig(t, 8, 8)
	for i := 0; i < 8; i++ {
		touch(t, sys, ctx, region, i)
	}
	if pg.Faults != 8 || pg.Evictions != 0 || pg.SwapIns != 0 {
		t.Errorf("faults=%d evictions=%d swapins=%d", pg.Faults, pg.Evictions, pg.SwapIns)
	}
	// Warm touches: no further faults.
	touch(t, sys, ctx, region, 3)
	if pg.Faults != 8 {
		t.Error("resident page refaulted")
	}
}

func TestPagerBoundsResidentSet(t *testing.T) {
	sys, pg, ctx, region, disk := newPagerRig(t, 16, 4)
	for i := 0; i < 16; i++ {
		touch(t, sys, ctx, region, i)
	}
	if pg.Resident() > 4 {
		t.Errorf("resident = %d, exceeds bound 4", pg.Resident())
	}
	if pg.Evictions != 12 {
		t.Errorf("evictions = %d, want 12", pg.Evictions)
	}
	_, writes := disk.Stats()
	if writes != 12 {
		t.Errorf("page-out writes = %d, want 12", writes)
	}
}

func TestPagerSwapInRestoresEvicted(t *testing.T) {
	sys, pg, ctx, region, disk := newPagerRig(t, 8, 2)
	touch(t, sys, ctx, region, 0)
	touch(t, sys, ctx, region, 1)
	touch(t, sys, ctx, region, 2) // evicts one of 0/1
	evicted := 0
	if pg.IsResident(0) {
		evicted = 1
	}
	if pg.IsResident(evicted) {
		t.Fatalf("expected page %d evicted", evicted)
	}
	readsBefore, _ := disk.Stats()
	touch(t, sys, ctx, region, evicted) // swap-in
	if pg.SwapIns != 1 {
		t.Errorf("swapins = %d", pg.SwapIns)
	}
	readsAfter, _ := disk.Stats()
	if readsAfter != readsBefore+1 {
		t.Error("swap-in did not read the disk")
	}
	if !pg.IsResident(evicted) {
		t.Error("swapped-in page not resident")
	}
}

func TestPagerSecondChancePrefersUnreferenced(t *testing.T) {
	sys, pg, ctx, region, _ := newPagerRig(t, 8, 3)
	touch(t, sys, ctx, region, 0)
	touch(t, sys, ctx, region, 1)
	touch(t, sys, ctx, region, 2)
	// Clear all referenced bits, then re-reference pages 0 and 2 only.
	for i := 0; i < 3; i++ {
		_ = sys.Phys.ClearReferenced(pg.resident[i].frames[0])
	}
	touch(t, sys, ctx, region, 0)
	touch(t, sys, ctx, region, 2)
	// Fault a fourth page: the clock should pass the referenced pages and
	// take page 1.
	touch(t, sys, ctx, region, 3)
	if pg.IsResident(1) {
		t.Error("second chance evicted a recently referenced page instead of page 1")
	}
	if !pg.IsResident(0) || !pg.IsResident(2) || !pg.IsResident(3) {
		t.Error("wrong resident set after eviction")
	}
}

func TestPagerFramesConserved(t *testing.T) {
	sys, pg, ctx, region, _ := newPagerRig(t, 32, 4)
	free := sys.PhysSvc.FreePages()
	for round := 0; round < 3; round++ {
		for i := 0; i < 32; i++ {
			touch(t, sys, ctx, region, i)
		}
	}
	// The pager may hold at most MaxResident frames beyond the baseline.
	held := free - sys.PhysSvc.FreePages()
	if held != pg.Resident() {
		t.Errorf("frames held = %d, resident = %d — leak", held, pg.Resident())
	}
	if held > 4 {
		t.Errorf("pager holds %d frames, bound is 4", held)
	}
}

func TestPagerDiskWaitIsIdleTime(t *testing.T) {
	sys, _, ctx, region, _ := newPagerRig(t, 16, 2)
	start := sys.Clock.Now()
	busyStart := sys.Clock.Busy()
	for i := 0; i < 16; i++ {
		touch(t, sys, ctx, region, i)
	}
	wall := sys.Clock.Now().Sub(start)
	busy := sys.Clock.Busy() - busyStart
	// Page-outs sleep on the disk: most elapsed time must be idle.
	if float64(busy) > 0.5*float64(wall) {
		t.Errorf("paging workload busy %v of %v — disk waits not idle", busy, wall)
	}
}

func TestPagerRejectsZeroResident(t *testing.T) {
	sys := newVM(t)
	disk := sal.NewDisk(sys.Clock)
	ctx := sys.TransSvc.Create()
	asid := sys.VirtSvc.NewASID()
	region, _ := sys.VirtSvc.Allocate(asid, sal.PageSize, AnyAttrib)
	if _, err := NewPager(sys, disk, ctx, region, sal.ProtRead, 0, 0, domain.Identity{}); err == nil {
		t.Error("pager with zero resident bound accepted")
	}
	_ = sim.Microsecond
}
