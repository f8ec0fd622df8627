package netdbg

import (
	"errors"
	"strings"
	"testing"

	"spin/internal/dispatch"
	"spin/internal/metrics"
	"spin/internal/netstack"
	"spin/internal/sal"
	"spin/internal/sim"
)

type rig struct {
	cluster *sim.Cluster
	client  *netstack.Stack
	server  *netstack.Stack
	dbg     *Debugger
	disp    *dispatch.Dispatcher
	phys    *sal.PhysMem
	mmu     *sal.MMU
}

func newRig(t *testing.T) *rig {
	t.Helper()
	mk := func(name string, ip netstack.IPAddr) (*sim.Engine, *dispatch.Dispatcher, *netstack.Stack, *sal.NIC) {
		eng := sim.NewEngine()
		prof := &sim.SPINProfile
		disp := dispatch.New(eng, prof)
		ic := sal.NewInterruptController(eng, prof)
		nic := sal.NewNIC(sal.LanceModel, eng, ic, sal.VecNIC0)
		stack, err := netstack.NewStack(name, ip, eng, prof, disp)
		if err != nil {
			t.Fatal(err)
		}
		stack.Attach(nic)
		return eng, disp, stack, nic
	}
	sEng, sDisp, sStack, sNIC := mk("target", netstack.Addr(10, 0, 0, 2))
	cEng, _, cStack, cNIC := mk("workstation", netstack.Addr(10, 0, 0, 1))
	if err := sal.Connect(sNIC, cNIC); err != nil {
		t.Fatal(err)
	}
	phys := sal.NewPhysMem(8 << 20)
	mmu := sal.NewMMU(sEng.Clock, &sim.SPINProfile)
	dbg, err := New(sStack, DefaultPort, Target{
		Dispatcher: sDisp,
		Phys:       phys,
		Metrics:    []metrics.Source{sDisp, sStack, mmu, phys},
		Extra: map[string]func(string) string{
			"uptime": func(string) string { return "uptime: " + sEng.Now().Sub(0).String() },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return &rig{
		cluster: sim.NewCluster(sEng, cEng),
		client:  cStack, server: sStack,
		dbg: dbg, disp: sDisp, phys: phys, mmu: mmu,
	}
}

func (r *rig) query(t *testing.T, cmd string) string {
	t.Helper()
	var reply string
	done := false
	if err := Query(r.client, netstack.Addr(10, 0, 0, 2), DefaultPort, cmd, func(s string) {
		reply = s
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	if !r.cluster.RunUntil(func() bool { return done }, sim.Time(10*sim.Second)) {
		t.Fatalf("query %q never answered", cmd)
	}
	return reply
}

func TestHelp(t *testing.T) {
	r := newRig(t)
	reply := r.query(t, "help")
	for _, want := range []string{"events", "frame", "metrics [prefix]", "uptime"} {
		if !strings.Contains(reply, want) {
			t.Errorf("help missing %q: %s", want, reply)
		}
	}
}

func TestEventsAndHandlers(t *testing.T) {
	r := newRig(t)
	reply := r.query(t, "events")
	if !strings.Contains(reply, "IP.PacketArrived") {
		t.Errorf("events = %q", reply)
	}
	reply = r.query(t, "handlers ICMP.PktArrived")
	if !strings.Contains(reply, "1 handler(s)") {
		t.Errorf("handlers = %q", reply)
	}
	reply = r.query(t, "handlers No.Such")
	if !strings.Contains(reply, "error") {
		t.Errorf("missing-event handlers = %q", reply)
	}
}

func TestStatsReflectTraffic(t *testing.T) {
	r := newRig(t)
	// The queries themselves raise UDP.PktArrived on the target.
	r.query(t, "help")
	reply := r.query(t, "metrics dispatch_raises")
	if !strings.Contains(reply, `dispatch_raises{event="UDP.PktArrived"} 2`) {
		t.Errorf("metrics dispatch_raises = %q", reply)
	}
}

func TestFrameAndMem(t *testing.T) {
	r := newRig(t)
	_ = r.phys.Touch(3, true)
	reply := r.query(t, "frame 3")
	if !strings.Contains(reply, "dirty=true") {
		t.Errorf("frame = %q", reply)
	}
	if reply = r.query(t, "frame zzz"); !strings.Contains(reply, "error") {
		t.Errorf("bad frame arg = %q", reply)
	}
	_ = r.phys.Claim(4)
	if reply = r.query(t, "metrics sal_phys"); reply != "sal_phys_frames 1024\nsal_phys_frames_in_use 1\n" {
		t.Errorf("metrics sal_phys = %q", reply)
	}
}

func TestTLBCommand(t *testing.T) {
	r := newRig(t)
	ctx := r.mmu.CreateContext()
	_ = r.mmu.Install(ctx, 1, sal.PTE{Frame: 1, Prot: sal.ProtRead})
	r.mmu.Translate(ctx, 1, sal.ProtRead)
	r.mmu.Translate(ctx, 1, sal.ProtRead)
	reply := r.query(t, "metrics sal_tlb")
	if reply != "sal_tlb_hits 1\nsal_tlb_misses 1\n" {
		t.Errorf("metrics sal_tlb = %q", reply)
	}
}

func TestExtraCommandAndUnknown(t *testing.T) {
	r := newRig(t)
	if reply := r.query(t, "uptime"); !strings.HasPrefix(reply, "uptime:") {
		t.Errorf("extra = %q", reply)
	}
	if reply := r.query(t, "bogus"); !strings.Contains(reply, "unknown command") {
		t.Errorf("unknown = %q", reply)
	}
	if r.dbg.Queries() < 2 {
		t.Errorf("queries = %d", r.dbg.Queries())
	}
}

func TestNetCommand(t *testing.T) {
	r := newRig(t)
	r.query(t, "help") // generate some traffic first
	reply := r.query(t, "metrics net_")
	for _, sample := range []string{"net_rx_packets 2\n", "net_tx_packets 1\n", "net_tcp_conns 0\n",
		"net_tcp_timed_out 0\n", "net_tcp_fast_recoveries 0\n", "net_tcp_rack_marked_lost 0\n",
		"net_tcp_tlp_probes 0\n", "net_tcp_rtos 0\n", "net_tcp_syn_rtos 0\n", "net_tcp_dsacks_received 0\n"} {
		if !strings.Contains(reply, sample) {
			t.Errorf("metrics net_ missing %q:\n%s", sample, reply)
		}
	}
	if strings.Contains(reply, "dispatch_") {
		t.Errorf("metrics net_ leaked other prefixes:\n%s", reply)
	}
}

// A query whose request cannot leave (no route) releases its reply port.
func TestQueryUnbindsReplyPortOnSendFailure(t *testing.T) {
	eng := sim.NewEngine()
	stack, err := netstack.NewStack("isolated", netstack.Addr(10, 0, 0, 9), eng, &sim.SPINProfile,
		dispatch.New(eng, &sim.SPINProfile))
	if err != nil {
		t.Fatal(err)
	}
	if err := Query(stack, netstack.Addr(10, 0, 0, 2), DefaultPort, "help", nil); !errors.Is(err, netstack.ErrNoRoute) {
		t.Fatalf("Query = %v, want ErrNoRoute", err)
	}
	if err := stack.UDP().Bind(netstack.EphemeralMin, netstack.InKernelDelivery, func(*netstack.Packet) {}); err != nil {
		t.Fatalf("reply port still bound after the failed query: %v", err)
	}
}
