package sim

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("new clock at %v, want 0", c.Now())
	}
	c.Advance(100)
	if c.Now() != 100 {
		t.Errorf("Now = %v, want 100", c.Now())
	}
	if c.Busy() != 100 {
		t.Errorf("Busy = %v, want 100", c.Busy())
	}
	c.Sleep(50)
	if c.Now() != 150 {
		t.Errorf("after Sleep Now = %v, want 150", c.Now())
	}
	if c.Busy() != 100 {
		t.Errorf("Sleep must not accrue busy time; Busy = %v", c.Busy())
	}
}

func TestClockNegativeAdvanceIgnored(t *testing.T) {
	c := NewClock()
	c.Advance(-5)
	c.Sleep(-5)
	if c.Now() != 0 || c.Busy() != 0 {
		t.Errorf("negative durations must be ignored: now=%v busy=%v", c.Now(), c.Busy())
	}
}

func TestClockAdvanceTo(t *testing.T) {
	c := NewClock()
	c.Advance(100)
	c.AdvanceTo(50) // past: no-op
	if c.Now() != 100 {
		t.Errorf("AdvanceTo past moved clock to %v", c.Now())
	}
	c.AdvanceTo(400)
	if c.Now() != 400 {
		t.Errorf("AdvanceTo future: %v want 400", c.Now())
	}
	if c.Busy() != 100 {
		t.Errorf("AdvanceTo must be idle time; busy=%v", c.Busy())
	}
}

// TestClockNowReadableOffOwner holds the clock's contract: the owner alone
// charges it, with Advance, Sleep and AdvanceTo (an AdvanceTo into the past
// never rewinds it), while another goroutine reads Now. Under -race the read
// is synchronized with the owner's stores, and the readings never decrease.
func TestClockNowReadableOffOwner(t *testing.T) {
	c := NewClock()
	done := make(chan struct{})
	var readerErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := c.Now()
		for {
			select {
			case <-done:
				return
			default:
			}
			now := c.Now()
			if now < last {
				readerErr = fmt.Errorf("Now went back from %v to %v", last, now)
				return
			}
			last = now
		}
	}()
	var want Time
	var busy Duration
	for i := 0; i < 20000; i++ {
		c.Advance(3)
		c.Sleep(2)
		c.AdvanceTo(c.Now() - 4) // the past: no rewind
		c.AdvanceTo(c.Now() + 5)
		want += 10
		busy += 3
		if c.Now() != want {
			t.Fatalf("step %d: Now = %v, want %v", i, c.Now(), want)
		}
	}
	close(done)
	wg.Wait()
	if readerErr != nil {
		t.Error(readerErr)
	}
	if c.Busy() != busy {
		t.Errorf("Busy = %v, want %v (only Advance is busy time)", c.Busy(), busy)
	}
}

func TestClockUtilization(t *testing.T) {
	c := NewClock()
	start := c.Now()
	c.Advance(30)
	c.Sleep(70)
	u := c.Utilization(start)
	if u < 0.299 || u > 0.301 {
		t.Errorf("utilization = %v, want 0.30", u)
	}
	c.ResetBusy()
	if c.Busy() != 0 {
		t.Errorf("ResetBusy left %v", c.Busy())
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ns"},
		{1500, "1.500µs"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(300, func() { order = append(order, 3) })
	e.At(100, func() { order = append(order, 1) })
	e.At(200, func() { order = append(order, 2) })
	n := e.Run(0)
	if n != 3 {
		t.Fatalf("ran %d events, want 3", n)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order = %v", order)
		}
	}
	if e.Now() != 300 {
		t.Errorf("clock at %v, want 300", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func() { order = append(order, i) })
	}
	e.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events must run FIFO; order = %v", order)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	ev := e.At(100, func() { ran = true })
	ev.Cancel()
	if !ev.Cancelled() {
		t.Error("Cancelled() = false after Cancel")
	}
	e.Run(0)
	if ran {
		t.Error("cancelled event ran")
	}
}

func TestEngineDeadline(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(100, func() { ran++ })
	e.At(500, func() { ran++ })
	n := e.Run(200)
	if n != 1 || ran != 1 {
		t.Errorf("ran %d events (cb %d), want 1", n, ran)
	}
	if e.Now() != 200 {
		t.Errorf("clock should land on deadline: %v", e.Now())
	}
	// Remaining event still pending.
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
}

// A cancelled head must not let Run or RunUntil execute a live event that
// lies past the deadline (every TCP connection leaves cancelled retransmit
// timers at the head of its engine's queue).
func TestEngineDeadlineBehindCancelledHead(t *testing.T) {
	runs := map[string]func(*Engine){
		"Run":      func(e *Engine) { e.Run(10) },
		"RunUntil": func(e *Engine) { e.RunUntil(func() bool { return false }, 10) },
	}
	for name, run := range runs {
		e := NewEngine()
		ran := false
		e.At(5, func() {}).Cancel()
		e.At(20, func() { ran = true })
		run(e)
		if ran || e.Now() != 10 || e.Pending() != 1 {
			t.Errorf("%s(10): ran=%v now=%v pending=%d, want false, 10, 1", name, ran, e.Now(), e.Pending())
		}
	}
}

func TestEngineAfterAndCascade(t *testing.T) {
	e := NewEngine()
	var hits []Time
	e.After(10, func() {
		hits = append(hits, e.Now())
		e.After(10, func() { hits = append(hits, e.Now()) })
	})
	e.Run(0)
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 20 {
		t.Errorf("hits = %v, want [10 20]", hits)
	}
}

func TestEnginePastEventRunsNow(t *testing.T) {
	e := NewEngine()
	e.Clock.Advance(100)
	var at Time
	e.At(50, func() { at = e.Now() })
	e.Run(0)
	if at != 100 {
		t.Errorf("past event ran at %v, want 100", at)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 5; i++ {
		e.At(Time(i*10), func() { count++ })
	}
	ok := e.RunUntil(func() bool { return count >= 3 }, 0)
	if !ok || count != 3 {
		t.Errorf("RunUntil stopped at count=%d ok=%v", count, ok)
	}
	ok = e.RunUntil(func() bool { return count >= 100 }, 0)
	if ok || count != 5 {
		t.Errorf("RunUntil on drained queue: count=%d ok=%v", count, ok)
	}
}

func TestNullSyscallComposition(t *testing.T) {
	// Table 2 row 2 calibration: SPIN 4µs, OSF/1 5µs, Mach 7µs.
	cases := []struct {
		p    *Profile
		want Duration
		tol  Duration
	}{
		{&SPINProfile, 4 * Microsecond, Microsecond / 2},
		{&OSF1Profile, 5 * Microsecond, Microsecond / 2},
		{&MachProfile, 7 * Microsecond, Microsecond / 2},
	}
	for _, c := range cases {
		got := c.p.NullSyscall()
		if got < c.want-c.tol || got > c.want+c.tol {
			t.Errorf("%s null syscall = %v, want %v±%v", c.p.Name, got, c.want, c.tol)
		}
	}
}

func TestHeapCollectorTrigger(t *testing.T) {
	clock := NewClock()
	h := NewHeap(clock, &SPINProfile)
	h.TriggerBytes = 1000
	h.Alloc(600)
	if h.Collections() != 0 {
		t.Fatal("collected too early")
	}
	h.Alloc(600)
	if h.Collections() != 1 {
		t.Fatalf("collections = %d, want 1", h.Collections())
	}
	if h.AllocatedSinceGC() != 0 {
		t.Errorf("young space not reset: %d", h.AllocatedSinceGC())
	}
}

func TestHeapCollectorDisabled(t *testing.T) {
	clock := NewClock()
	h := NewHeap(clock, &SPINProfile)
	h.TriggerBytes = 100
	h.CollectorEnabled = false
	for i := 0; i < 50; i++ {
		h.Alloc(64)
	}
	if h.Collections() != 0 {
		t.Errorf("disabled collector ran %d times", h.Collections())
	}
	// Forced collection still works.
	h.Collect()
	if h.Collections() != 1 {
		t.Errorf("forced collect did not run")
	}
}

func TestHeapLiveAccounting(t *testing.T) {
	h := NewHeap(NewClock(), &SPINProfile)
	h.Alloc(10)
	h.Alloc(10)
	h.Free()
	if h.Live() != 1 {
		t.Errorf("Live = %d, want 1", h.Live())
	}
	h.Free()
	h.Free() // extra Free must not underflow
	if h.Live() != 0 {
		t.Errorf("Live = %d, want 0", h.Live())
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(43)
	same := true
	a2 := NewRand(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed produced zero stream")
	}
}

func TestRandIntnBounds(t *testing.T) {
	r := NewRand(7)
	if err := quick.Check(func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestRandIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(11)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestRandPermIsPermutation(t *testing.T) {
	r := NewRand(5)
	if err := quick.Check(func(n uint8) bool {
		m := int(n % 64)
		p := r.Perm(m)
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(p) == m
	}, nil); err != nil {
		t.Error(err)
	}
}

// Property: for any sequence of scheduled times, events execute in
// non-decreasing time order and the clock never goes backwards.
func TestEngineMonotonicProperty(t *testing.T) {
	if err := quick.Check(func(times []uint16) bool {
		e := NewEngine()
		var executed []Time
		for _, tv := range times {
			tv := Time(tv)
			e.At(tv, func() { executed = append(executed, e.Now()) })
		}
		e.Run(0)
		if len(executed) != len(times) {
			return false
		}
		for i := 1; i < len(executed); i++ {
			if executed[i] < executed[i-1] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
