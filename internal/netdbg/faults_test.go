package netdbg

import (
	"strings"
	"testing"

	"spin/internal/dispatch"
	"spin/internal/domain"
)

// The "faults" command reports fault containment's log over the wire: the
// last contained fault and the quarantine records; "metrics dispatch_" has
// the contained totals, per-event counts and the active policy.
func TestFaultsQueryReportsQuarantine(t *testing.T) {
	r := newRig(t)
	r.disp.SetQuarantinePolicy(dispatch.QuarantinePolicy{FaultThreshold: 2})
	if err := r.disp.Define("Dbg.E", dispatch.DefineOptions{
		Primary: func(_, _ any) any { return "ok" },
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.disp.Install("Dbg.E", func(_, _ any) any { panic("bad ext") },
		dispatch.InstallOptions{Installer: domain.Identity{Name: "bad-ext"}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		r.disp.Raise("Dbg.E", nil)
	}
	reply := r.query(t, "faults")
	for _, want := range []string{"last fault: ", "bad ext", "quarantined: ", `handler by "bad-ext" quarantined`} {
		if !strings.Contains(reply, want) {
			t.Errorf("faults reply missing %q:\n%s", want, reply)
		}
	}
	reply = r.query(t, "metrics dispatch_")
	for _, want := range []string{
		"dispatch_faults_total 2\n", `dispatch_faults{event="Dbg.E"} 2`, `dispatch_quarantined{event="Dbg.E"} 1`,
		"dispatch_quarantine_fault_threshold 2\n",
	} {
		if !strings.Contains(reply, want) {
			t.Errorf("metrics dispatch_ missing %q:\n%s", want, reply)
		}
	}
}

func TestFaultsQueryNoDispatcher(t *testing.T) {
	d := &Debugger{}
	if reply := d.execute("faults"); !strings.Contains(reply, "error") {
		t.Errorf("faults without a dispatcher = %q, want error", reply)
	}
}
