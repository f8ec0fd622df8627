package strand

import (
	"fmt"
	"strings"
	"testing"

	"spin/internal/dispatch"
	"spin/internal/metrics"
	"spin/internal/sim"
	"spin/internal/trace"
)

// Multi-CPU scheduling: per-CPU run queues, work stealing and migration
// accounting.

func newMultiSched(t *testing.T, cpus int) (*Scheduler, []*sim.Engine) {
	t.Helper()
	engines := make([]*sim.Engine, cpus)
	for i := range engines {
		engines[i] = sim.NewEngine()
	}
	disp := dispatch.New(engines[0], &sim.SPINProfile)
	sched, err := NewMultiScheduler(&sim.SPINProfile, disp, engines...)
	if err != nil {
		t.Fatal(err)
	}
	return sched, engines
}

// runBatch runs n compute-bound strands homed on CPU 0 and returns the
// virtual makespan (the max CPU clock afterwards).
func runBatch(t *testing.T, cpus, n int) (sim.Time, *Scheduler) {
	t.Helper()
	sched, engines := newMultiSched(t, cpus)
	for i := 0; i < n; i++ {
		s := sched.NewStrandOn("w", 1, 0, func(s *Strand) {
			for k := 0; k < 8; k++ {
				s.Exec(10 * sim.Microsecond)
				s.Yield()
			}
		})
		sched.Start(s)
	}
	sched.Run()
	var makespan sim.Time
	for _, eng := range engines {
		if now := eng.Clock.Now(); now > makespan {
			makespan = now
		}
	}
	return makespan, sched
}

func TestWorkStealingSpeedsUpBatch(t *testing.T) {
	one, _ := runBatch(t, 1, 32)
	four, sched := runBatch(t, 4, 32)
	if sched.Steals() == 0 {
		t.Fatal("no steals happened: all strands were homed on CPU 0")
	}
	if sched.Migrations() < sched.Steals() {
		t.Fatalf("migrations %d < steals %d: every steal must migrate",
			sched.Migrations(), sched.Steals())
	}
	speedup := float64(one) / float64(four)
	if speedup < 2 {
		t.Fatalf("4-CPU makespan %v vs 1-CPU %v: speedup %.2fx, want >= 2x", four, one, speedup)
	}
	t.Logf("makespan 1 CPU %v, 4 CPUs %v (%.2fx), steals %d", one, four, speedup, sched.Steals())
}

func TestNoStealsOnSingleCPU(t *testing.T) {
	_, sched := runBatch(t, 1, 8)
	if n := sched.Steals(); n != 0 {
		t.Fatalf("single CPU stole %d strands from itself", n)
	}
	if n := sched.Migrations(); n != 0 {
		t.Fatalf("single CPU migrated %d strands", n)
	}
}

func TestPerCPUCountersAddUp(t *testing.T) {
	_, sched := runBatch(t, 4, 32)
	stats := cpuStats(sched)
	if len(stats) != 4 {
		t.Fatalf("cpuStats returned %d entries, want 4", len(stats))
	}
	var switches, steals, migrations int64
	busy := 0
	for _, st := range stats {
		switches += st.Switches
		steals += st.Steals
		migrations += st.Migrations
		if st.Ready != 0 {
			t.Errorf("cpu%d still has %d ready strands after Run", st.ID, st.Ready)
		}
		if st.Switches > 0 {
			busy++
		}
	}
	if switches != sched.Switches() {
		t.Errorf("per-CPU switches sum %d != Switches() %d", switches, sched.Switches())
	}
	if steals != sched.Steals() || migrations != sched.Migrations() {
		t.Errorf("per-CPU sums (%d,%d) != totals (%d,%d)",
			steals, migrations, sched.Steals(), sched.Migrations())
	}
	if busy < 2 {
		t.Errorf("only %d CPUs ran strands; stealing should spread a 32-strand batch", busy)
	}
}

func TestStrandCPUFollowsSteal(t *testing.T) {
	sched, _ := newMultiSched(t, 2)
	var sawCPU1 bool
	for i := 0; i < 8; i++ {
		s := sched.NewStrandOn("w", 1, 0, func(s *Strand) {
			for k := 0; k < 4; k++ {
				s.Exec(5 * sim.Microsecond)
				s.Yield()
				if s.CPU() == 1 {
					sawCPU1 = true
				}
			}
		})
		if s.CPU() != 0 {
			t.Fatalf("NewStrandOn(0) homed strand on cpu%d", s.CPU())
		}
		sched.Start(s)
	}
	sched.Run()
	if !sawCPU1 {
		t.Error("no strand ever observed itself on CPU 1 after stealing")
	}
}

func TestNewStrandRoundRobinPlacement(t *testing.T) {
	sched, _ := newMultiSched(t, 4)
	for i := 0; i < 8; i++ {
		s := sched.NewStrand("s", 1, func(*Strand) {})
		if got := s.CPU(); got != i%4 {
			t.Fatalf("strand %d placed on cpu%d, want %d", i, got, i%4)
		}
	}
}

func TestCrossCPUSleepWakesOnHomeCPU(t *testing.T) {
	sched, _ := newMultiSched(t, 2)
	wokeOn := -1
	var wokeAt sim.Time
	s := sched.NewStrandOn("sleeper", 1, 1, func(s *Strand) {
		s.Sleep(100 * sim.Microsecond)
		wokeOn = s.CPU()
		wokeAt = s.sched.cpus[s.CPU()].clock.Now()
	})
	sched.Start(s)
	// Keep cpu0 busy so the driver must interleave the sleeper's timer on
	// cpu1 with cpu0's work.
	busy := sched.NewStrandOn("busy", 1, 0, func(s *Strand) {
		for i := 0; i < 50; i++ {
			s.Exec(10 * sim.Microsecond)
			s.Yield()
		}
	})
	sched.Start(busy)
	sched.Run()
	if wokeOn != 1 {
		t.Fatalf("sleeper woke on cpu%d, want its home cpu1", wokeOn)
	}
	if wokeAt < sim.Time(100*sim.Microsecond) {
		t.Fatalf("sleeper woke at %v, before its 100µs timer", wokeAt)
	}
}

func TestStealEmitsTraceRecords(t *testing.T) {
	sched, _ := newMultiSched(t, 2)
	tr := trace.New(1024)
	sched.disp.SetTracer(tr)
	for i := 0; i < 8; i++ {
		s := sched.NewStrandOn("w", 1, 0, func(s *Strand) {
			for k := 0; k < 4; k++ {
				s.Exec(5 * sim.Microsecond)
				s.Yield()
			}
		})
		sched.Start(s)
	}
	sched.Run()
	if sched.Steals() == 0 {
		t.Fatal("workload produced no steals")
	}
	var steals, migrates int64
	for _, rec := range tr.Snapshot() {
		switch rec.Event {
		case "sched.steal":
			steals++
		case "sched.migrate":
			migrates++
		}
	}
	if steals != sched.Steals() {
		t.Errorf("trace has %d sched.steal records, scheduler counted %d", steals, sched.Steals())
	}
	if migrates != sched.Migrations() {
		t.Errorf("trace has %d sched.migrate records, scheduler counted %d", migrates, sched.Migrations())
	}
}

func TestObserverSeesStealsAndSwitches(t *testing.T) {
	sched, _ := newMultiSched(t, 2)
	var events []SchedEvent
	sched.SetObserver(func(ev SchedEvent) { events = append(events, ev) })
	for i := 0; i < 8; i++ {
		s := sched.NewStrandOn("w", 1, 0, func(s *Strand) {
			for k := 0; k < 4; k++ {
				s.Exec(5 * sim.Microsecond)
				s.Yield()
			}
		})
		sched.Start(s)
	}
	sched.Run()
	kinds := map[string]int64{}
	for _, ev := range events {
		kinds[ev.Kind]++
		if ev.Kind == "steal" && ev.CPU == ev.From {
			t.Errorf("steal from self: %v", ev)
		}
	}
	if kinds["switch"] != sched.Switches() {
		t.Errorf("observer saw %d switches, scheduler counted %d", kinds["switch"], sched.Switches())
	}
	if kinds["steal"] != sched.Steals() {
		t.Errorf("observer saw %d steals, scheduler counted %d", kinds["steal"], sched.Steals())
	}
}

func TestClusterScheduler(t *testing.T) {
	e0, e1 := sim.NewEngine(), sim.NewEngine()
	cl := sim.NewCluster(e0, e1)
	disp := dispatch.New(e0, &sim.SPINProfile)
	sched, err := NewMultiScheduler(&sim.SPINProfile, disp, cl.Engines()...)
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.NumCPUs(); got != 2 {
		t.Fatalf("cluster scheduler has %d CPUs, want 2", got)
	}
	ran := 0
	for i := 0; i < 4; i++ {
		sched.Start(sched.NewStrand("s", 1, func(*Strand) { ran++ }))
	}
	sched.Run()
	if ran != 4 {
		t.Fatalf("%d strands ran, want 4", ran)
	}
}

func TestMetricsRenderPerCPU(t *testing.T) {
	_, sched := runBatch(t, 2, 8)
	var page strings.Builder
	if err := metrics.Write(&page, "strand_", sched); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`strand_steals{cpu="0"}`, `strand_steals{cpu="1"}`,
		`strand_ready{cpu="1"} 0`, `strand_clock_ns{cpu="0"}`, "strand_faults 0"} {
		if !strings.Contains(page.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, page.String())
		}
	}
}

// cpuStat is one CPU's scheduling metrics, read back for assertions.
type cpuStat struct {
	ID                           int
	Switches, Steals, Migrations int64
	Ready                        int
}

func cpuStats(sched *Scheduler) []cpuStat {
	out := make([]cpuStat, sched.NumCPUs())
	for i := range out {
		l := fmt.Sprintf("{cpu=\"%d\"}", i)
		v := func(name string) int64 { return int64(metrics.Value(sched, name+l)) }
		out[i] = cpuStat{ID: i, Switches: v("strand_switches"), Steals: v("strand_steals"),
			Migrations: v("strand_migrations"), Ready: int(v("strand_ready"))}
	}
	return out
}
