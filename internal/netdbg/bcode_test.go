package netdbg

import (
	"strings"
	"testing"

	"spin/internal/bcode"
)

func TestBCodeReportRenders(t *testing.T) {
	out := bcode.Report([]bcode.Stat{
		{Name: "udp7-drop", Point: "xdp", Insns: 9, Runs: 120, Hits: 7},
		{Name: "hostile", Point: "ip-filter", Insns: 9, Runs: 8, Hits: 0, Quarantined: true},
		{Name: "no-steal-0", Point: "steal-policy", Insns: 6, Runs: 44, Hits: 12},
	})
	for _, want := range []string{
		"3 verified program(s)",
		"udp7-drop", "xdp", "runs=120", "matched=7",
		"hostile", "QUARANTINED",
		"no-steal-0", "steal-policy", "live",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if got := bcode.Report(nil); !strings.Contains(got, "no verified programs") {
		t.Errorf("empty report = %q", got)
	}
}

// The "bcode" wire command serves the report like any other debugger query.
func TestBCodeQueryOverWire(t *testing.T) {
	r := newRig(t)
	r.dbg.target.BCode = func() []bcode.Stat {
		return []bcode.Stat{{Name: "early", Point: "xdp", Insns: 9, Runs: 3, Hits: 1}}
	}
	reply := r.query(t, "bcode")
	for _, want := range []string{"1 verified program(s)", "early", "runs=3"} {
		if !strings.Contains(reply, want) {
			t.Errorf("bcode reply missing %q:\n%s", want, reply)
		}
	}
	if help := r.query(t, "help"); !strings.Contains(help, "bcode") {
		t.Errorf("help does not list bcode: %s", help)
	}
}

func TestBCodeQueryNoSource(t *testing.T) {
	d := &Debugger{}
	if reply := d.execute("bcode"); !strings.Contains(reply, "error") {
		t.Errorf("bcode without a source = %q, want error", reply)
	}
}
