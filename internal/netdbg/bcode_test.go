package netdbg

import (
	"strings"
	"testing"

	"spin/internal/bcode"
	"spin/internal/metrics"
	"spin/internal/netstack"
)

// passAll is the smallest verified packet program: it never drops.
var passAll = bcode.New(bcode.MovImm(0, 0), bcode.Exit())

// A loaded program renders as its size, runs and verdicts acted on,
// labelled with its name and load point.
func TestBCodeReportRenders(t *testing.T) {
	x, err := bcode.Attach("udp7-drop", "xdp", passAll, netstack.PacketSpec)
	if err != nil {
		t.Fatal(err)
	}
	var ctx bcode.Context
	x.Run(&ctx)
	x.Hit()
	var page strings.Builder
	if err := metrics.Write(&page, "", x); err != nil {
		t.Fatal(err)
	}
	want := `bcode_hits{program="udp7-drop",point="xdp"} 1
bcode_insns{program="udp7-drop",point="xdp"} 2
bcode_runs{program="udp7-drop",point="xdp"} 1
`
	if page.String() != want {
		t.Errorf("page =\n%s\nwant\n%s", page.String(), want)
	}
}

// The programs loaded into the target kernel are on the wire through the
// metrics command, like every other counter.
func TestBCodeQueryOverWire(t *testing.T) {
	r := newRig(t)
	if _, err := r.server.AttachXDP("early", passAll); err != nil {
		t.Fatal(err)
	}
	reply := r.query(t, "metrics bcode_")
	for _, want := range []string{`bcode_insns{program="early",point="xdp"} 2`, `bcode_runs{program="early",point="xdp"} 1`} {
		if !strings.Contains(reply, want) {
			t.Errorf("metrics bcode_ missing %q:\n%s", want, reply)
		}
	}
}

func TestBCodeQueryNoSource(t *testing.T) {
	d := &Debugger{}
	if reply := d.execute("metrics bcode_"); !strings.Contains(reply, "error") {
		t.Errorf("metrics without a source = %q, want error", reply)
	}
}
