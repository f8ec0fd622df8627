package bench

import "testing"

// The ISSUE's acceptance bar: 4 virtual CPUs must deliver at least 2x the
// aggregate strand throughput of the 1-CPU configuration in virtual time,
// with all spreading coming from work stealing.

func TestParallelStrandsSpeedup(t *testing.T) {
	one, err := MeasureParallelStrands(1)
	if err != nil {
		t.Fatal(err)
	}
	four, err := MeasureParallelStrands(4)
	if err != nil {
		t.Fatal(err)
	}
	if one.Steals != 0 {
		t.Errorf("1-CPU run stole %d strands", one.Steals)
	}
	if four.Steals == 0 {
		t.Error("4-CPU run stole nothing: strands were not spread")
	}
	speedup := float64(one.Makespan) / float64(four.Makespan)
	if speedup < 2 {
		t.Fatalf("4-CPU speedup %.2fx (makespan %v vs %v), want >= 2x",
			speedup, four.Makespan, one.Makespan)
	}
	t.Logf("1 CPU %v, 4 CPUs %v: %.2fx, %d steals", one.Makespan, four.Makespan, speedup, four.Steals)
}

// The strand numbers other PRs compare against, pinned exactly: virtual
// time is deterministic, so a deliberate scheduler or cost-model change
// edits the constant in the same diff. (TestParallelStrandsSpeedup holds
// the >= 2x bar; these rows hold the values.)
func TestStrandVirtualTimeGates(t *testing.T) {
	table3 := mustRun(t, "table3")
	const spinKernel = 4 // column: SPIN kernel threads
	one, err := MeasureParallelStrands(1)
	if err != nil {
		t.Fatal(err)
	}
	four, err := MeasureParallelStrands(4)
	if err != nil {
		t.Fatal(err)
	}
	gates := []struct {
		name      string
		got, want float64
	}{
		{"Table 3 SPIN kernel Fork-Join µs", measured(t, table3, "Fork-Join", spinKernel), 23.21},
		{"Table 3 SPIN kernel Ping-Pong µs", measured(t, table3, "Ping-Pong", spinKernel), 21.199},
		{"64-strand batch makespan on 1 CPU µs", one.Makespan.Micros(), 16677.12},
		{"64-strand batch makespan on 4 CPUs µs", four.Makespan.Micros(), 2202.66},
		{"64-strand batch steals on 4 CPUs", float64(four.Steals), 200},
	}
	for _, g := range gates {
		if g.got != g.want {
			t.Errorf("%s = %v, want exactly %v", g.name, g.got, g.want)
		}
	}
}

func TestParallelTableShape(t *testing.T) {
	tbl, err := RunParallelStrands()
	if err != nil {
		t.Fatal(err)
	}
	if tbl.ID != "parallel" || len(tbl.Rows) != 4 {
		t.Fatalf("table %q has %d rows, want parallel/4", tbl.ID, len(tbl.Rows))
	}
	// speedup column (index 2) must be monotone enough: 4 CPUs beat 1 CPU
	// by >= 2x, and every added CPU never hurts by more than noise.
	speedup := func(row int) float64 { return tbl.Rows[row].Measured[2] }
	if speedup(0) != 1 {
		t.Errorf("1-CPU speedup %.2f, want exactly 1", speedup(0))
	}
	if speedup(2) < 2 {
		t.Errorf("4-CPU speedup %.2f, want >= 2", speedup(2))
	}
	if speedup(3) < speedup(1) {
		t.Errorf("8-CPU speedup %.2f below 2-CPU %.2f", speedup(3), speedup(1))
	}
}
