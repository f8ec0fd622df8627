package faultinject

import (
	"errors"
	"strings"
	"testing"

	"spin/internal/metrics"
	"spin/internal/sim"
)

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if f := in.Fire("dispatch.invoke"); f.Fired() {
		t.Fatalf("nil injector fired: %+v", f)
	}
	if in.Fired() != 0 || in.FiredAt("x") != 0 || in.HitsAt("x") != 0 {
		t.Fatal("nil injector reported counts")
	}
	if in.Sites() != nil {
		t.Fatal("nil injector reported sites")
	}
}

func TestUnarmedSiteNeverFires(t *testing.T) {
	in := New(1, sim.NewClock())
	for i := 0; i < 100; i++ {
		if in.Fire("net.rx").Fired() {
			t.Fatal("unarmed site fired")
		}
	}
	// Unarmed sites don't even allocate counters (zero-cost discipline).
	if got := in.HitsAt("net.rx"); got != 0 {
		t.Fatalf("unarmed site recorded %d hits", got)
	}
}

func TestErrorAndDropKinds(t *testing.T) {
	in := New(7, sim.NewClock())
	sentinel := errors.New("boom")
	in.Arm(
		Rule{Site: "a", Kind: KindError, Err: sentinel, MaxFires: 1},
		Rule{Site: "b", Kind: KindDrop, MaxFires: 1},
	)
	f := in.Fire("a")
	if !f.Fired() || !errors.Is(f.Err, sentinel) {
		t.Fatalf("error rule: %+v", f)
	}
	if f := in.Fire("b"); !f.Fired() || f.Kind != KindDrop {
		t.Fatalf("drop rule: %+v", f)
	}
	// MaxFires exhausted: both inert now.
	if in.Fire("a").Fired() || in.Fire("b").Fired() {
		t.Fatal("rule fired past MaxFires")
	}
	if in.Fired() != 2 {
		t.Fatalf("Fired() = %d, want 2", in.Fired())
	}
}

func TestErrorKindDefaultsToInjected(t *testing.T) {
	in := New(7, nil)
	in.Arm(Rule{Site: "a", Kind: KindError})
	f := in.Fire("a")
	var inj *Injected
	if !errors.As(f.Err, &inj) || inj.Site != "a" {
		t.Fatalf("default error: %v", f.Err)
	}
}

func TestPanicKindPanicsWithInjected(t *testing.T) {
	in := New(3, sim.NewClock())
	in.Arm(Rule{Site: "dispatch.invoke", Kind: KindPanic})
	defer func() {
		r := recover()
		inj, ok := r.(*Injected)
		if !ok || inj.Site != "dispatch.invoke" {
			t.Fatalf("panic value: %v", r)
		}
		if in.FiredAt("dispatch.invoke") != 1 {
			t.Fatalf("FiredAt = %d, want 1", in.FiredAt("dispatch.invoke"))
		}
	}()
	in.Fire("dispatch.invoke")
	t.Fatal("unreachable: Fire should have panicked")
}

func TestDelayAdvancesVirtualClock(t *testing.T) {
	clock := sim.NewClock()
	in := New(3, clock)
	in.Arm(Rule{Site: "s", Kind: KindDelay, Delay: 250 * sim.Microsecond})
	before := clock.Now()
	f := in.Fire("s")
	if !f.Fired() || f.Delay != 250*sim.Microsecond {
		t.Fatalf("delay fault: %+v", f)
	}
	if got := clock.Now().Sub(before); got != 250*sim.Microsecond {
		t.Fatalf("clock advanced %v, want 250µs", got)
	}
}

func TestAfterSkipsLeadingHits(t *testing.T) {
	in := New(11, nil)
	in.Arm(Rule{Site: "s", Kind: KindDrop, After: 3})
	for i := 0; i < 3; i++ {
		if in.Fire("s").Fired() {
			t.Fatalf("fired on hit %d, within After window", i+1)
		}
	}
	if !in.Fire("s").Fired() {
		t.Fatal("did not fire on first hit past After")
	}
}

// TestDeterministicReplay is the harness's core property: two injectors
// with the same seed and plan produce the identical fire/no-fire sequence.
func TestDeterministicReplay(t *testing.T) {
	run := func(seed uint64) []bool {
		in := New(seed, nil)
		in.Arm(Rule{Site: "net.rx", Kind: KindDrop, Probability: 0.3})
		out := make([]bool, 500)
		for i := range out {
			out[i] = in.Fire("net.rx").Fired()
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at hit %d", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical sequences (suspicious)")
	}
}

func TestProbabilityRoughlyHonored(t *testing.T) {
	in := New(99, nil)
	in.Arm(Rule{Site: "s", Kind: KindDrop, Probability: 0.25})
	const n = 4000
	fired := 0
	for i := 0; i < n; i++ {
		if in.Fire("s").Fired() {
			fired++
		}
	}
	if fired < n/8 || fired > n/2 {
		t.Fatalf("p=0.25 fired %d/%d times", fired, n)
	}
	if int64(fired) != in.FiredAt("s") {
		t.Fatalf("FiredAt %d != observed %d", in.FiredAt("s"), fired)
	}
	if in.HitsAt("s") != n {
		t.Fatalf("HitsAt %d != %d", in.HitsAt("s"), n)
	}
}

func TestDisarmStopsFiringKeepsCounters(t *testing.T) {
	in := New(5, nil)
	in.Arm(Rule{Site: "s", Kind: KindDrop})
	in.Fire("s")
	in.Disarm("s")
	if in.Fire("s").Fired() {
		t.Fatal("fired after Disarm")
	}
	if in.FiredAt("s") != 1 {
		t.Fatalf("counters lost on Disarm: %d", in.FiredAt("s"))
	}
	in.Arm(Rule{Site: "s", Kind: KindDrop}, Rule{Site: "t", Kind: KindDrop})
	in.Fire("s")
	in.DisarmAll()
	if in.Fire("s").Fired() || in.Fire("t").Fired() {
		t.Fatal("fired after DisarmAll")
	}
}

func TestFirstMatchingRuleWins(t *testing.T) {
	in := New(5, nil)
	in.Arm(
		Rule{Site: "s", Kind: KindDrop, MaxFires: 1},
		Rule{Site: "s", Kind: KindError},
	)
	if f := in.Fire("s"); f.Kind != KindDrop {
		t.Fatalf("first hit: %v, want drop", f.Kind)
	}
	// Drop rule exhausted; the error rule takes over.
	if f := in.Fire("s"); f.Kind != KindError {
		t.Fatalf("second hit: %v, want error", f.Kind)
	}
}

// TestMaxFiresExactUnderConcurrency drives one bounded rule from eight callers
// interleaved on the injector's owner and asserts the fire count is
// exactly the bound.
func TestMaxFiresExactUnderConcurrency(t *testing.T) {
	in := New(17, nil)
	const bound = 100
	in.Arm(Rule{Site: "s", Kind: KindDrop, MaxFires: bound})
	var fired [8]int
	for i := 0; i < 1000; i++ {
		for g := range fired {
			if in.Fire("s").Fired() {
				fired[g]++
			}
		}
	}
	total := 0
	for _, n := range fired {
		total += n
	}
	if total != bound {
		t.Fatalf("fired %d times, want exactly %d", total, bound)
	}
	if in.FiredAt("s") != bound || in.Fired() != bound {
		t.Fatalf("counters: site=%d total=%d, want %d", in.FiredAt("s"), in.Fired(), bound)
	}
}

func TestMetricsAndStrings(t *testing.T) {
	in := New(1, nil)
	in.Arm(Rule{Site: "s", Kind: KindDrop})
	in.Fire("s")
	var page strings.Builder
	if err := metrics.Write(&page, "", in); err != nil {
		t.Fatal(err)
	}
	want := "faultinject_fired_total 1\nfaultinject_fires{site=\"s\"} 1\n" +
		"faultinject_hits{site=\"s\"} 1\nfaultinject_seed{seed=\"1\"} 1\n"
	if page.String() != want {
		t.Fatalf("metrics =\n%s\nwant\n%s", page.String(), want)
	}
	for _, k := range []Kind{KindPanic, KindDelay, KindError, KindDrop, Kind(9)} {
		if k.String() == "" {
			t.Fatal("empty Kind string")
		}
	}
	if in.Seed() != 1 {
		t.Fatalf("Seed() = %d", in.Seed())
	}
}

func TestInjectedErrorAndSeed(t *testing.T) {
	in := New(42, sim.NewClock())
	if in.Seed() != 42 {
		t.Errorf("Seed = %d", in.Seed())
	}
	e := &Injected{Site: "x.y", Seq: 3}
	if msg := e.Error(); !strings.Contains(msg, "x.y") {
		t.Errorf("Error() = %q, want the site named", msg)
	}
	var nilInj *Injector
	if nilInj.Seed() != 0 {
		t.Error("nil injector Seed != 0")
	}
}
