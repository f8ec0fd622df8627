package sal

import (
	"fmt"
	"strings"

	"spin/internal/sim"
)

// Console is the machine console ("get a character from the console").
type Console struct {
	out strings.Builder
	in  []byte
}

// Write appends msg to the console output.
func (c *Console) Write(msg string) { c.out.WriteString(msg) }

// Output returns everything written so far.
func (c *Console) Output() string { return c.out.String() }

// FeedInput appends bytes to the input queue (as if typed).
func (c *Console) FeedInput(s string) { c.in = append(c.in, s...) }

// GetChar pops one input character; ok is false when the queue is empty.
func (c *Console) GetChar() (byte, bool) {
	if len(c.in) == 0 {
		return 0, false
	}
	ch := c.in[0]
	c.in = c.in[1:]
	return ch, true
}

// DiskBlockSize is the disk transfer unit (one page).
const DiskBlockSize = 8192

// Disk models the HP C2247 1 GB drive as a synchronous block device with a
// seek+rotation latency and a transfer rate. Reads and writes Sleep (I/O
// wait, not CPU) for the device time, so disk-bound workloads show low CPU
// utilization, as they should.
type Disk struct {
	clock  *sim.Clock
	engine *sim.Engine
	ic     *InterruptController
	blocks map[int64][]byte
	// SeekTime is average seek + rotational latency (~10ms + 5.5ms for
	// the C2247 era; we fold them together).
	SeekTime sim.Duration
	// TransferPerBlock is the media transfer time for one block.
	TransferPerBlock sim.Duration
	// lastBlock enables a simple sequential-access optimization: reads of
	// block n+1 right after n skip the seek.
	lastBlock int64

	reads, writes int64
}

// NewDisk returns a disk charging against clock.
func NewDisk(clock *sim.Clock) *Disk {
	return &Disk{
		clock:            clock,
		blocks:           make(map[int64][]byte),
		SeekTime:         12 * sim.Millisecond,
		TransferPerBlock: 2 * sim.Millisecond,
		lastBlock:        -10,
	}
}

// ReadBlock returns a copy of block b ("read block 22 from SCSI unit 0").
// Unwritten blocks read as zeros.
func (d *Disk) ReadBlock(b int64) []byte {
	d.charge(b)
	d.reads++
	out := make([]byte, DiskBlockSize)
	copy(out, d.blocks[b])
	return out
}

// WriteBlock stores data (truncated/padded to the block size) at block b.
func (d *Disk) WriteBlock(b int64, data []byte) {
	d.charge(b)
	d.writes++
	buf := make([]byte, DiskBlockSize)
	copy(buf, data)
	d.blocks[b] = buf
}

func (d *Disk) charge(b int64) {
	if b != d.lastBlock+1 {
		d.clock.Sleep(d.SeekTime)
	}
	d.clock.Sleep(d.TransferPerBlock)
	d.lastBlock = b
}

// Stats reports read/write counts.
func (d *Disk) Stats() (reads, writes int64) { return d.reads, d.writes }

// AttachInterrupts enables the asynchronous interface: completions are
// delivered as VecDisk interrupts through the controller.
func (d *Disk) AttachInterrupts(engine *sim.Engine, ic *InterruptController) {
	d.engine = engine
	d.ic = ic
}

// DiskCompletion is the payload delivered with a disk interrupt.
type DiskCompletion struct {
	Block int64
	Data  []byte
	// Done is the requester's continuation, invoked by the driver's
	// interrupt handler.
	Done func(DiskCompletion)
}

// ReadBlockAsync starts a read and returns immediately; when the media
// transfer completes (seek + transfer of virtual time later) the disk
// raises a VecDisk interrupt whose handler receives the completion. This is
// the paper's Figure 4 scenario: "a disk driver can direct a scheduler to
// block the current strand during an I/O operation, and an interrupt
// handler can unblock a strand to signal the completion".
func (d *Disk) ReadBlockAsync(b int64, done func(DiskCompletion)) error {
	if d.engine == nil || d.ic == nil {
		return fmt.Errorf("sal: disk has no interrupt attachment")
	}
	latency := d.TransferPerBlock
	if b != d.lastBlock+1 {
		latency += d.SeekTime
	}
	d.lastBlock = b
	d.reads++
	data := make([]byte, DiskBlockSize)
	copy(data, d.blocks[b])
	d.ic.RaiseAt(d.engine.Now().Add(latency), VecDisk, DiskCompletion{Block: b, Data: data, Done: done})
	return nil
}

// InterruptVector identifies an interrupt source.
type InterruptVector int

// Well-known vectors.
const (
	VecTimer InterruptVector = iota
	VecDisk
	VecNIC0
	VecNIC1
)

// InterruptController delivers device interrupts to registered handlers via
// the machine's engine, charging the interrupt-entry cost on delivery.
// Handlers and counts are indexed by vector, grown on Register or on a
// vector's first interrupt, so that delivering one hashes nothing.
type InterruptController struct {
	engine   *sim.Engine
	profile  *sim.Profile
	handlers []func(payload any)
	count    []int64
}

// NewInterruptController returns a controller scheduling on engine.
func NewInterruptController(engine *sim.Engine, profile *sim.Profile) *InterruptController {
	return &InterruptController{engine: engine, profile: profile}
}

// Register installs the handler for vector, replacing any previous one.
// Vectors are small non-negative numbers.
func (ic *InterruptController) Register(vec InterruptVector, h func(payload any)) {
	if int(vec) >= len(ic.handlers) {
		ic.handlers = append(ic.handlers, make([]func(any), int(vec)+1-len(ic.handlers))...)
	}
	ic.handlers[vec] = h
}

// RaiseAt schedules an interrupt for absolute time t.
func (ic *InterruptController) RaiseAt(t sim.Time, vec InterruptVector, payload any) {
	ic.engine.At(t, func() {
		ic.enter(vec, 0)
		if int(vec) < len(ic.handlers) && ic.handlers[vec] != nil {
			ic.handlers[vec](payload)
		}
	})
}

// enter counts one interrupt on vec and charges the interrupt-entry cost
// plus the handler's own cost, in one charge.
func (ic *InterruptController) enter(vec InterruptVector, handler sim.Duration) {
	if int(vec) >= len(ic.count) {
		ic.count = append(ic.count, make([]int64, int(vec)+1-len(ic.count))...)
	}
	ic.count[vec]++
	ic.engine.Clock.Advance(ic.profile.InterruptEntry + handler)
}

// Raise schedules an interrupt for the current time.
func (ic *InterruptController) Raise(vec InterruptVector, payload any) {
	ic.RaiseAt(ic.engine.Now(), vec, payload)
}

// Count reports interrupts delivered on vec.
func (ic *InterruptController) Count(vec InterruptVector) int64 {
	if vec < 0 || int(vec) >= len(ic.count) {
		return 0
	}
	return ic.count[vec]
}

func (v InterruptVector) String() string {
	switch v {
	case VecTimer:
		return "timer"
	case VecDisk:
		return "disk"
	case VecNIC0:
		return "nic0"
	case VecNIC1:
		return "nic1"
	}
	return fmt.Sprintf("vec%d", int(v))
}
