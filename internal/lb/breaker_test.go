package lb

import (
	"testing"

	"spin/internal/sim"
)

func newTestBreaker(t *testing.T) (*sim.Engine, *Breaker, *[]string) {
	t.Helper()
	eng := sim.NewEngine()
	transitions := &[]string{}
	br := NewBreaker(eng)
	br.onChange = func(from, to BreakerState) {
		*transitions = append(*transitions, from.String()+">"+to.String())
	}
	return eng, br, transitions
}

func TestBreakerOpensAtThreshold(t *testing.T) {
	_, br, _ := newTestBreaker(t)
	br.Fail()
	br.Fail()
	if br.State() != BreakerClosed {
		t.Fatalf("state after 2 failures = %v, want closed", br.State())
	}
	if !br.Allow() {
		t.Fatal("closed breaker must allow")
	}
	br.Fail()
	if br.State() != BreakerOpen {
		t.Fatalf("state after 3 failures = %v, want open", br.State())
	}
	if br.Allow() {
		t.Fatal("open breaker must not allow")
	}
	if br.Ejections() != 1 {
		t.Fatalf("ejections = %d, want 1", br.Ejections())
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	_, br, _ := newTestBreaker(t)
	br.Fail()
	br.Fail()
	br.Success()
	br.Fail()
	br.Fail()
	if br.State() != BreakerClosed {
		t.Fatalf("success did not reset the failure streak: %v", br.State())
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	eng, br, transitions := newTestBreaker(t)
	for i := 0; i < 3; i++ {
		br.Fail()
	}
	// breakerOpenTimeout elapses on the virtual clock -> half-open.
	eng.Run(0)
	if br.State() != BreakerHalfOpen {
		t.Fatalf("state after breakerOpenTimeout = %v, want half-open", br.State())
	}
	if eng.Now() != sim.Time(2*sim.Second) {
		t.Fatalf("half-open at t=%v, want 2s", eng.Now())
	}
	// A failed probe re-opens and re-arms the timer...
	br.Fail()
	if br.State() != BreakerOpen {
		t.Fatalf("failed probe left state %v, want open", br.State())
	}
	eng.Run(0)
	if br.State() != BreakerHalfOpen {
		t.Fatalf("second breakerOpenTimeout: state %v, want half-open", br.State())
	}
	// ...and a successful probe closes.
	br.Success()
	if br.State() != BreakerClosed {
		t.Fatalf("successful probe left state %v, want closed", br.State())
	}
	if br.Ejections() != 2 {
		t.Fatalf("ejections = %d, want 2", br.Ejections())
	}
	want := []string{
		"closed>open", "open>half-open",
		"half-open>open", "open>half-open",
		"half-open>closed",
	}
	if len(*transitions) != len(want) {
		t.Fatalf("transitions %v, want %v", *transitions, want)
	}
	for i := range want {
		if (*transitions)[i] != want[i] {
			t.Fatalf("transition[%d] = %s, want %s", i, (*transitions)[i], want[i])
		}
	}
}

func TestBreakerForceOpenAndStop(t *testing.T) {
	eng, br, _ := newTestBreaker(t)
	br.ForceOpen()
	if br.State() != BreakerOpen {
		t.Fatalf("ForceOpen left state %v", br.State())
	}
	// Stop cancels the half-open timer: the engine drains without the
	// breaker ever leaving open. This is what lets Driver.Drain terminate.
	br.Stop()
	eng.Run(0)
	if br.State() != BreakerOpen {
		t.Fatalf("state after Stop+drain = %v, want open (timer cancelled)", br.State())
	}
}
