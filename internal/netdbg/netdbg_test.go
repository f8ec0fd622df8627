package netdbg

import (
	"strings"
	"testing"

	"spin/internal/dispatch"
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
		MMU:        mmu,
		LB: func() LBReport {
			return LBReport{
				Members:   []string{"replica-a"},
				Ejections: 1,
				Requests:  8,
				Retries:   2,
				Backends: []LBBackend{
					{Name: "replica-a", Host: "replica-a.spin.test", State: "closed", Picks: 5, Successes: 5},
					{Name: "replica-b", Host: "replica-b.spin.test", State: "open", Failures: 3, Ejections: 1},
				},
			}
		},
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
	for _, want := range []string{"events", "frame", "tlb", "uptime"} {
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
	reply := r.query(t, "stats UDP.PktArrived")
	if !strings.Contains(reply, "raises=") {
		t.Errorf("stats = %q", reply)
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
	if reply = r.query(t, "mem"); !strings.Contains(reply, "frames in use") {
		t.Errorf("mem = %q", reply)
	}
}

func TestTLBCommand(t *testing.T) {
	r := newRig(t)
	ctx := r.mmu.CreateContext()
	_ = r.mmu.Install(ctx, 1, sal.PTE{Frame: 1, Prot: sal.ProtRead})
	r.mmu.Translate(ctx, 1, sal.ProtRead)
	r.mmu.Translate(ctx, 1, sal.ProtRead)
	reply := r.query(t, "tlb")
	if !strings.Contains(reply, "hits=1") || !strings.Contains(reply, "misses=1") {
		t.Errorf("tlb = %q", reply)
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
	reply := r.query(t, "net")
	if !strings.Contains(reply, "10.0.0.2") || !strings.Contains(reply, "tcp-conns=0") {
		t.Errorf("net = %q", reply)
	}
	for _, counter := range []string{"rx=", "timed-out=0", "fast-recoveries=0", "rack-lost=0", "tlp-probes=0", "rtos=0", "dsacks=0"} {
		if !strings.Contains(reply, counter) {
			t.Errorf("net missing %s: %q", counter, reply)
		}
	}
}
