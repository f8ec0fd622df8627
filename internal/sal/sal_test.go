package sal

import (
	"testing"
	"testing/quick"

	"spin/internal/metrics"
	"spin/internal/sim"
)

func newHW() (*sim.Engine, *MMU) {
	eng := sim.NewEngine()
	return eng, NewMMU(eng.Clock, &sim.SPINProfile)
}

func TestMMUInstallTranslate(t *testing.T) {
	_, m := newHW()
	ctx := m.CreateContext()
	if err := m.Install(ctx, 5, PTE{Frame: 42, Prot: ProtRead | ProtWrite}); err != nil {
		t.Fatal(err)
	}
	frame, fault := m.Translate(ctx, 5, ProtRead)
	if fault != nil {
		t.Fatalf("fault: %v", fault.Kind)
	}
	if frame != 42 {
		t.Errorf("frame = %d", frame)
	}
}

func TestMMUFaultClassification(t *testing.T) {
	_, m := newHW()
	ctx := m.CreateContext()

	// Unallocated address: bad address.
	_, fault := m.Translate(ctx, 9, ProtRead)
	if fault == nil || fault.Kind != FaultBadAddress {
		t.Errorf("unallocated: %v", fault)
	}

	// Allocated but unmapped: page not present.
	_ = m.MarkAllocated(ctx, 9, true)
	_, fault = m.Translate(ctx, 9, ProtRead)
	if fault == nil || fault.Kind != FaultPageNotPresent {
		t.Errorf("allocated+unmapped: %v", fault)
	}

	// Mapped read-only, write access: protection fault.
	_ = m.Install(ctx, 9, PTE{Frame: 1, Prot: ProtRead})
	_, fault = m.Translate(ctx, 9, ProtWrite)
	if fault == nil || fault.Kind != FaultProtection {
		t.Errorf("write to read-only: %v", fault)
	}

	// Unknown context: bad address.
	_, fault = m.Translate(999, 0, ProtRead)
	if fault == nil || fault.Kind != FaultBadAddress {
		t.Errorf("bad context: %v", fault)
	}
}

func TestMMUTLBHitAfterFill(t *testing.T) {
	_, m := newHW()
	ctx := m.CreateContext()
	_ = m.Install(ctx, 1, PTE{Frame: 10, Prot: ProtRead})
	m.Translate(ctx, 1, ProtRead) // miss, fills TLB
	m.Translate(ctx, 1, ProtRead) // hit
	hits, misses := tlbStats(m)
	if hits != 1 || misses != 1 {
		t.Errorf("hits=%d misses=%d, want 1,1", hits, misses)
	}
}

func TestMMUTLBInvalidationOnProtect(t *testing.T) {
	_, m := newHW()
	ctx := m.CreateContext()
	_ = m.Install(ctx, 1, PTE{Frame: 10, Prot: ProtRead | ProtWrite})
	m.Translate(ctx, 1, ProtWrite) // fill TLB with rw entry
	if err := m.Protect(ctx, 1, ProtRead); err != nil {
		t.Fatal(err)
	}
	// A write must now fault; a stale TLB entry would wrongly permit it.
	_, fault := m.Translate(ctx, 1, ProtWrite)
	if fault == nil || fault.Kind != FaultProtection {
		t.Errorf("stale TLB entry survived Protect: %v", fault)
	}
}

func TestMMUTLBEviction(t *testing.T) {
	_, m := newHW()
	ctx := m.CreateContext()
	for i := uint64(0); i < TLBSize+8; i++ {
		_ = m.Install(ctx, i, PTE{Frame: i, Prot: ProtRead})
		m.Translate(ctx, i, ProtRead)
	}
	// Entry 0 must have been evicted (FIFO): next access misses.
	_, missesBefore := tlbStats(m)
	m.Translate(ctx, 0, ProtRead)
	_, missesAfter := tlbStats(m)
	if missesAfter != missesBefore+1 {
		t.Error("expected TLB miss after eviction")
	}
}

func TestMMURemoveAndDestroy(t *testing.T) {
	_, m := newHW()
	ctx := m.CreateContext()
	_ = m.Install(ctx, 3, PTE{Frame: 7, Prot: ProtRead})
	if err := m.Remove(ctx, 3); err != nil {
		t.Fatal(err)
	}
	// Page stays allocated after unmap -> not-present, not bad-address.
	_, fault := m.Translate(ctx, 3, ProtRead)
	if fault == nil || fault.Kind != FaultPageNotPresent {
		t.Errorf("after Remove: %v", fault)
	}
	if err := m.DestroyContext(ctx); err != nil {
		t.Fatal(err)
	}
	if err := m.DestroyContext(ctx); err == nil {
		t.Error("double destroy accepted")
	}
}

func TestMMUExamine(t *testing.T) {
	_, m := newHW()
	ctx := m.CreateContext()
	_ = m.Install(ctx, 2, PTE{Frame: 5, Prot: ProtExec})
	pte, ok := m.Examine(ctx, 2)
	if !ok || pte.Frame != 5 || pte.Prot != ProtExec {
		t.Errorf("Examine = %+v, %v", pte, ok)
	}
	if _, ok := m.Examine(ctx, 3); ok {
		t.Error("Examine of unmapped page succeeded")
	}
}

func TestProtString(t *testing.T) {
	if s := (ProtRead | ProtWrite).String(); s != "rw-" {
		t.Errorf("String = %q", s)
	}
	if s := ProtNone.String(); s != "---" {
		t.Errorf("String = %q", s)
	}
}

func TestPhysMemDirtyBits(t *testing.T) {
	pm := NewPhysMem(64 << 20)
	if pm.NumFrames() != (64<<20)/PageSize {
		t.Errorf("frames = %d", pm.NumFrames())
	}
	if err := pm.Touch(3, false); err != nil {
		t.Fatal(err)
	}
	fr, _ := pm.Frame(3)
	if fr.Dirty || !fr.Referenced {
		t.Errorf("after read touch: %+v", fr)
	}
	_ = pm.Touch(3, true)
	if fr, _ = pm.Frame(3); !fr.Dirty {
		t.Error("write touch did not set dirty")
	}
	if err := pm.Touch(1<<40, false); err == nil {
		t.Error("out-of-range touch accepted")
	}
}

// Physical memory records nothing until a frame's state is first set, and
// every change goes through a method.
func TestPhysMemStateOnFirstWrite(t *testing.T) {
	pm := NewPhysMem(64 << 20)
	_ = pm.ClearReferenced(5)
	_ = pm.Release(5)
	if pm.state != nil {
		t.Fatal("clearing bits of untouched frames made a record")
	}
	if err := pm.Claim(5); err != nil || pm.state == nil {
		t.Fatalf("Claim: err %v, state made %v", err, pm.state != nil)
	}
	_ = pm.Touch(5, true)
	if fr, _ := pm.Frame(5); !fr.InUse || !fr.Dirty || !fr.Referenced || fr.Color != 5 {
		t.Errorf("claimed and written frame: %+v", fr)
	}
	_ = pm.ClearReferenced(5)
	if fr, _ := pm.Frame(5); fr.Referenced || !fr.Dirty {
		t.Errorf("after ClearReferenced: %+v", fr)
	}
	_ = pm.Claim(5)
	if fr, _ := pm.Frame(5); !fr.InUse || fr.Dirty || fr.Referenced {
		t.Errorf("a claimed frame is clean and unreferenced: %+v", fr)
	}
	_ = pm.Release(5)
	if fr, _ := pm.Frame(5); fr.InUse {
		t.Errorf("after Release: %+v", fr)
	}
	for _, err := range []error{pm.Claim(1 << 20), pm.Release(1 << 20), pm.ClearReferenced(1 << 20)} {
		if err == nil {
			t.Error("out-of-range frame accepted")
		}
	}
}

func TestPhysMemColors(t *testing.T) {
	pm := NewPhysMem(64 << 20)
	f0, _ := pm.Frame(0)
	fN, _ := pm.Frame(NumColors)
	if f0.Color != fN.Color {
		t.Error("frames one cache-size apart must share a color")
	}
	f1, _ := pm.Frame(1)
	if f0.Color == f1.Color {
		t.Error("adjacent frames must differ in color")
	}
}

func TestConsole(t *testing.T) {
	var c Console
	c.Write("hello ")
	c.Write("world")
	if c.Output() != "hello world" {
		t.Errorf("Output = %q", c.Output())
	}
	c.FeedInput("ab")
	ch, ok := c.GetChar()
	if !ok || ch != 'a' {
		t.Errorf("GetChar = %c,%v", ch, ok)
	}
	c.GetChar()
	if _, ok := c.GetChar(); ok {
		t.Error("empty input returned a char")
	}
}

func TestDiskReadWrite(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDisk(eng.Clock)
	d.WriteBlock(22, []byte("SCSI unit 0"))
	got := d.ReadBlock(22)
	if string(got[:11]) != "SCSI unit 0" {
		t.Errorf("block 22 = %q", got[:11])
	}
	if len(got) != DiskBlockSize {
		t.Errorf("block size %d", len(got))
	}
	zero := d.ReadBlock(99)
	for _, b := range zero[:16] {
		if b != 0 {
			t.Fatal("unwritten block nonzero")
		}
	}
	r, w := d.Stats()
	if r != 2 || w != 1 {
		t.Errorf("stats = %d,%d", r, w)
	}
}

func TestDiskLatencyModel(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDisk(eng.Clock)
	d.ReadBlock(10)
	afterRandom := eng.Clock.Now()
	if afterRandom.Sub(0) != d.SeekTime+d.TransferPerBlock {
		t.Errorf("random read took %v", afterRandom.Sub(0))
	}
	d.ReadBlock(11) // sequential: no seek
	if eng.Clock.Now().Sub(afterRandom) != d.TransferPerBlock {
		t.Errorf("sequential read took %v", eng.Clock.Now().Sub(afterRandom))
	}
	if eng.Clock.Busy() != 0 {
		t.Error("disk waits must be idle time, not busy")
	}
}

func TestInterruptDelivery(t *testing.T) {
	eng := sim.NewEngine()
	ic := NewInterruptController(eng, &sim.SPINProfile)
	var got any
	ic.Register(VecDisk, func(p any) { got = p })
	ic.RaiseAt(100, VecDisk, "done")
	eng.Run(0)
	if got != "done" {
		t.Errorf("payload = %v", got)
	}
	if ic.Count(VecDisk) != 1 {
		t.Errorf("count = %d", ic.Count(VecDisk))
	}
	if eng.Clock.Busy() != sim.SPINProfile.InterruptEntry {
		t.Errorf("busy = %v, want interrupt entry cost", eng.Clock.Busy())
	}
}

func TestNICModelWireBytes(t *testing.T) {
	// Ethernet: payload + framing.
	if got := LanceModel.WireBytes(1500); got != 1524 {
		t.Errorf("Lance WireBytes(1500) = %d", got)
	}
	// ATM: cellized. 8132+8 = 8140 bytes => 170 cells (48B payload each)
	// => 9010 wire bytes.
	if got := ForeModel.WireBytes(8132); got != 170*53 {
		t.Errorf("Fore WireBytes(8132) = %d, want %d", got, 170*53)
	}
}

func TestNICModelTxTime(t *testing.T) {
	// 1524 bytes at 10 Mb/s = 1219.2µs.
	got := LanceModel.TxTime(1500)
	want := sim.Duration(1524 * 8 * 100) // ns: 1 bit = 100ns at 10Mb/s
	if got != want {
		t.Errorf("TxTime = %v, want %v", got, want)
	}
}

type testHost struct {
	eng *sim.Engine
	ic  *InterruptController
	nic *NIC
}

func newHost(model NICModel) *testHost {
	eng := sim.NewEngine()
	ic := NewInterruptController(eng, &sim.SPINProfile)
	return &testHost{eng: eng, ic: ic, nic: NewNIC(model, eng, ic, VecNIC0)}
}

func TestNICSendReceive(t *testing.T) {
	a, b := newHost(LanceModel), newHost(LanceModel)
	if err := Connect(a.nic, b.nic); err != nil {
		t.Fatal(err)
	}
	var got NetFrame
	b.nic.OnReceive = func(f NetFrame) bool { got = f; return true }
	if err := a.nic.Send(NetFrame{Size: 100, Payload: "ping"}); err != nil {
		t.Fatal(err)
	}
	cluster := sim.NewCluster(a.eng, b.eng)
	cluster.Run(0)
	if got.Payload != "ping" {
		t.Fatalf("payload = %v", got.Payload)
	}
	sent, _, bs, _ := a.nic.Stats()
	_, recv, _, br := b.nic.Stats()
	if sent != 1 || recv != 1 || bs != 100 || br != 100 {
		t.Errorf("stats: sent=%d recv=%d bytes=%d/%d", sent, recv, bs, br)
	}
	// Receiver clock advanced past wire time + fixed latency.
	minArrival := LanceModel.TxTime(100) + LanceModel.FixedLatency
	if b.eng.Now().Sub(0) < minArrival {
		t.Errorf("delivery at %v, want >= %v", b.eng.Now(), minArrival)
	}
}

func TestNICMismatchedMedia(t *testing.T) {
	a, b := newHost(LanceModel), newHost(ForeModel)
	if err := Connect(a.nic, b.nic); err == nil {
		t.Error("connected Ethernet to ATM")
	}
}

func TestNICSendUnconnected(t *testing.T) {
	a := newHost(LanceModel)
	if err := a.nic.Send(NetFrame{Size: 1}); err == nil {
		t.Error("send on unconnected NIC succeeded")
	}
}

func TestNICTransmitterSerializes(t *testing.T) {
	// Two back-to-back sends: the second frame's arrival must trail the
	// first by at least one transmission time (the wire is serial).
	a, b := newHost(LanceModel), newHost(LanceModel)
	_ = Connect(a.nic, b.nic)
	var arrivals []sim.Time
	b.nic.OnReceive = func(NetFrame) bool { arrivals = append(arrivals, b.eng.Now()); return true }
	_ = a.nic.Send(NetFrame{Size: 1500})
	_ = a.nic.Send(NetFrame{Size: 1500})
	sim.NewCluster(a.eng, b.eng).Run(0)
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	gap := arrivals[1].Sub(arrivals[0])
	if gap < LanceModel.TxTime(1500) {
		t.Errorf("inter-arrival %v < tx time %v: wire not serialized", gap, LanceModel.TxTime(1500))
	}
}

func TestNICPIOChargesCPU(t *testing.T) {
	a, b := newHost(ForeModel), newHost(ForeModel)
	_ = Connect(a.nic, b.nic)
	before := a.eng.Clock.Busy()
	_ = a.nic.Send(NetFrame{Size: 8132})
	pioCost := a.eng.Clock.Busy() - before - ForeModel.DriverSendCost
	wantPIO := sim.Duration((8132+7)/8) * ForeModel.PIOWordCost
	if pioCost != wantPIO {
		t.Errorf("PIO cost = %v, want %v", pioCost, wantPIO)
	}
}

// Property: translation after Install always succeeds with the installed
// frame for allowed access modes, for any (vpn, frame) pairs.
func TestMMUTranslateProperty(t *testing.T) {
	if err := quick.Check(func(pairs []struct{ V, F uint16 }) bool {
		_, m := newHW()
		ctx := m.CreateContext()
		want := map[uint64]uint64{}
		for _, p := range pairs {
			vpn, frame := uint64(p.V), uint64(p.F)
			if err := m.Install(ctx, vpn, PTE{Frame: frame, Prot: ProtRead}); err != nil {
				return false
			}
			want[vpn] = frame
		}
		for vpn, frame := range want {
			got, fault := m.Translate(ctx, vpn, ProtRead)
			if fault != nil || got != frame {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFramebuffer(t *testing.T) {
	eng := sim.NewEngine()
	fb := NewFramebuffer(eng.Clock, 64, 48)
	frame := make([]byte, 64*48)
	for i := range frame {
		frame[i] = byte(i)
	}
	fb.WriteFrame(frame)
	px, err := fb.Pixel(10, 0)
	if err != nil || px != 10 {
		t.Errorf("Pixel = %d, %v", px, err)
	}
	if _, err := fb.Pixel(99, 0); err == nil {
		t.Error("out-of-range pixel read succeeded")
	}
	frames, bytes := fb.Stats()
	if frames != 1 || bytes != int64(len(frame)) {
		t.Errorf("stats = %d,%d", frames, bytes)
	}
	if eng.Clock.Busy() == 0 {
		t.Error("framebuffer writes cost no CPU")
	}
	// Oversized frames truncate to the screen.
	fb.WriteFrame(make([]byte, 2*64*48))
	if _, b := fb.Stats(); b != int64(2*len(frame)) {
		t.Errorf("truncation accounting wrong: %d", b)
	}
}

func TestDiskAsyncCompletionInterrupt(t *testing.T) {
	eng := sim.NewEngine()
	ic := NewInterruptController(eng, &sim.SPINProfile)
	// The disk driver's interrupt handler runs completions.
	ic.Register(VecDisk, func(payload any) {
		c := payload.(DiskCompletion)
		if c.Done != nil {
			c.Done(c)
		}
	})
	d := NewDisk(eng.Clock)
	d.AttachInterrupts(eng, ic)
	d.WriteBlock(5, []byte("async read"))

	var got []byte
	var completedAt sim.Time
	start := eng.Now()
	if err := d.ReadBlockAsync(5, func(c DiskCompletion) {
		got = c.Data[:10]
		completedAt = eng.Now()
	}); err != nil {
		t.Fatal(err)
	}
	// The request returns immediately; the data is not there yet.
	if got != nil {
		t.Fatal("async read completed synchronously")
	}
	eng.Run(0)
	if string(got) != "async read" {
		t.Errorf("data = %q", got)
	}
	if completedAt.Sub(start) < d.SeekTime {
		t.Errorf("completion at %v, before the seek could finish", completedAt.Sub(start))
	}
}

func TestDiskAsyncWithoutAttachment(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDisk(eng.Clock)
	if err := d.ReadBlockAsync(0, nil); err == nil {
		t.Error("async read without interrupt attachment succeeded")
	}
}

func TestInterruptRaiseNowAndStrings(t *testing.T) {
	eng := sim.NewEngine()
	ic := NewInterruptController(eng, &sim.SPINProfile)
	hit := false
	ic.Register(VecTimer, func(any) { hit = true })
	ic.Raise(VecTimer, nil)
	eng.Run(0)
	if !hit {
		t.Error("immediate interrupt not delivered")
	}
	for v, want := range map[InterruptVector]string{
		VecTimer: "timer", VecDisk: "disk", VecNIC0: "nic0", VecNIC1: "nic1", 99: "vec99",
	} {
		if v.String() != want {
			t.Errorf("vector %d = %q", int(v), v.String())
		}
	}
	for k, want := range map[FaultKind]string{
		FaultNone: "none", FaultBadAddress: "bad-address",
		FaultPageNotPresent: "page-not-present", FaultProtection: "protection-fault",
	} {
		if k.String() != want {
			t.Errorf("kind %d = %q", int(k), k.String())
		}
	}
}

func TestMarkAllocatedToggle(t *testing.T) {
	_, m := newHW()
	ctx := m.CreateContext()
	_ = m.MarkAllocated(ctx, 4, true)
	_, fault := m.Translate(ctx, 4, ProtRead)
	if fault.Kind != FaultPageNotPresent {
		t.Errorf("allocated: %v", fault.Kind)
	}
	_ = m.MarkAllocated(ctx, 4, false)
	_, fault = m.Translate(ctx, 4, ProtRead)
	if fault.Kind != FaultBadAddress {
		t.Errorf("deallocated: %v", fault.Kind)
	}
	if err := m.MarkAllocated(999, 1, true); err == nil {
		t.Error("bad context accepted")
	}
	if n := metrics.Value(m, "sal_mmu_faults"); n < 2 {
		t.Errorf("fault counter = %v", n)
	}
}

func TestDestroyContextFlushesItsTLBOnly(t *testing.T) {
	_, m := newHW()
	a := m.CreateContext()
	b := m.CreateContext()
	_ = m.Install(a, 1, PTE{Frame: 1, Prot: ProtRead})
	_ = m.Install(b, 1, PTE{Frame: 2, Prot: ProtRead})
	m.Translate(a, 1, ProtRead)
	m.Translate(b, 1, ProtRead)
	_ = m.DestroyContext(a)
	// b's entry survives: next access is a hit.
	hitsBefore, _ := tlbStats(m)
	m.Translate(b, 1, ProtRead)
	hitsAfter, _ := tlbStats(m)
	if hitsAfter != hitsBefore+1 {
		t.Error("destroying context a flushed context b's TLB entry")
	}
}

// tlbStats reads the TLB counters from the MMU's metrics.
func tlbStats(m *MMU) (hits, misses int64) {
	return int64(metrics.Value(m, "sal_tlb_hits")), int64(metrics.Value(m, "sal_tlb_misses"))
}
