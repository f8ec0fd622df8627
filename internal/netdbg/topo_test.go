package netdbg

import (
	"strings"
	"testing"

	"spin/internal/lb"
)

// TestTopoUnattached: without a Topo source the command degrades to an
// error reply, like every other nil-field command.
func TestTopoUnattached(t *testing.T) {
	r := newRig(t)
	if got := r.query(t, "topo"); !strings.Contains(got, "error: no topology attached") {
		t.Errorf("topo without source: %q", got)
	}
}

// TestLBCommand: a balancer attached as a metrics source answers the
// "metrics lb_" query with its ring size and per-backend breaker lines.
func TestLBCommand(t *testing.T) {
	r := newRig(t)
	bal := lb.NewBalancer(r.server, nil, lb.Config{})
	bal.AddBackend("replica-a", "")
	bal.AddBackend("replica-b", "")
	bal.Eject("replica-b")
	r.dbg.target.Metrics = append(r.dbg.target.Metrics, bal)
	got := r.query(t, "metrics lb_")
	for _, want := range []string{
		"lb_backends 2\n", "lb_ring_members 1\n", "lb_ejections 1\n",
		`lb_backend_breaker{backend="replica-a",host="replica-a",state="closed"} 1`,
		`lb_backend_breaker{backend="replica-b",host="replica-b",state="open"} 1`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("metrics lb_ missing %q:\n%s", want, got)
		}
	}
}
