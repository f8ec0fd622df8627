package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

const testSpec = "../" + specFile

func almost(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianAndQuartiles(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v", got)
	}
	// Reference values are statistics.quantiles(v, n=4) from Python 3.
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 2, 7, 4, 5, 1, 3, 8, 9, 6}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{2, 4}, 1.5, 4.5}, // extrapolates past the sample, as Python does
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.v)
		if !almost(q1, c.q1) || !almost(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !almost(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("spread of zeros = %v", got)
	}
}

// The highest percentile worth reporting has at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {1235, 99}, {9999, 99}, {10000, 99.9}, {1 << 20, 99.999},
	} {
		if got := tailPercentile(c.n); !almost(got, c.want) {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := percentileSorted(s, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten samples beyond)", got)
	}
	if got := percentileSorted(s, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v", got)
	}
	if got := percentileSorted(nil, 99); got != 0 {
		t.Errorf("p99 of nothing = %v", got)
	}
}

// BENCHMARK.json and the program name the same workloads and metrics, and
// the file is inside the contract's limits.
func TestSpecMatchesProgram(t *testing.T) {
	spec, err := loadSpec(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range checkSpec(spec) {
		t.Error(bad)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", spec.Paths)
	}
	setup := false
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == lower
		}
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	if info, err := os.Stat(testSpec); err != nil || info.Size() > 64<<10 {
		t.Errorf("%s: %v, size limit 64 KiB", testSpec, err)
	}
}

func TestCheckSpecCatchesDrift(t *testing.T) {
	load := func() *benchSpec {
		spec, err := loadSpec(testSpec)
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	for name, mutate := range map[string]func(*benchSpec){
		"workload missing":  func(s *benchSpec) { s.Workloads = s.Workloads[1:] },
		"workload renamed":  func(s *benchSpec) { s.Workloads[0].Name = "other" },
		"bad name":          func(s *benchSpec) { s.Workloads[0].Name = "has space" },
		"metric missing":    func(s *benchSpec) { s.EndToEnd = s.EndToEnd[:len(s.EndToEnd)-1] },
		"bound too wide":    func(s *benchSpec) { s.EndToEnd[0].Bound = 0.5 },
		"no direction":      func(s *benchSpec) { s.EndToEnd[1].Better = "" },
		"unit changed":      func(s *benchSpec) { s.PerLayer[0].Unit = "furlongs" },
		"layer metric gone": func(s *benchSpec) { s.PerLayer = s.PerLayer[:len(s.PerLayer)-1] },
		"name used twice":   func(s *benchSpec) { s.PerLayer[1].Name = s.PerLayer[0].Name },
	} {
		spec := load()
		mutate(spec)
		if len(checkSpec(spec)) == 0 {
			t.Errorf("%s: not caught", name)
		}
	}
}

// The whole suite at tiny scale through the command line: every workload
// timed and traced, every layer probe, every declared metric emitted.
func TestSuiteTiny(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "suite.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"--scale", "tiny", "--seconds", "0.2", "--seed", "3",
		"--spec", testSpec, "--results", dir, "--out", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var suite suiteResult
	if err := json.Unmarshal(raw, &suite); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if last := lines[len(lines)-1]; last != strings.TrimSpace(string(raw)) {
		t.Errorf("last line of stdout is not the merged JSON: %.80s", last)
	}
	if !suite.Correct || suite.Failed != 0 || suite.Attempted == 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", suite.Correct, suite.Attempted, suite.Failed)
	}
	for _, w := range workloads {
		e2e, layers := suite.EndToEnd[w.name], suite.PerLayer[w.name]
		if len(e2e) != len(endToEnd) || len(layers) != len(perLayer) {
			t.Fatalf("%s: %d end-to-end and %d per-layer metrics, want %d and %d",
				w.name, len(e2e), len(layers), len(endToEnd), len(perLayer))
		}
		for _, m := range endToEnd {
			if v := e2e[m.Name]; v.Value <= 0 || v.Unit != m.Unit {
				t.Errorf("%s: %s = %+v: end-to-end metrics are never 0", w.name, m.Name, v)
			}
		}
		var cpu float64
		for _, l := range cpuLayers {
			cpu += layers["cpu_share."+l].Value
		}
		if math.Abs(cpu-1) > 1e-9 {
			t.Errorf("%s: cpu shares sum to %v", w.name, cpu)
		}
		if v := layers["trace.overhead_ratio"].Value; v <= 0 {
			t.Errorf("%s: trace.overhead_ratio = %v", w.name, v)
		}
		for _, d := range probeDefs {
			if v := layers[d.Name].Value; v < 0 || (strings.HasSuffix(d.Name, "_ns") && v == 0) {
				t.Errorf("%s: probe %s = %v", w.name, d.Name, v)
			}
		}
	}
	// The HTTP workloads went through the kernel's traced paths.
	for _, name := range []string{"http_star_kernel", "http_star_sockets", "fleet_fattree_http"} {
		for _, m := range []string{"trace.net.rx_virt_us.count", "trace.net.tcp.deliver_virt_us.count", "trace.net.http.serve_virt_us.count", "virt.latency_p99_us", "sim.events_per_op"} {
			if suite.PerLayer[name][m].Value <= 0 {
				t.Errorf("%s: %s = 0", name, m)
			}
		}
	}
	for _, name := range []string{"tcp_bulk_clean", "tcp_bulk_lossy"} {
		if suite.PerLayer[name]["virt.goodput_mbps"].Value <= 0 {
			t.Errorf("%s: no goodput", name)
		}
	}
	if suite.PerLayer["tcp_bulk_lossy"]["netstack.tcp.retransmits_per_mib"].Value <= suite.PerLayer["tcp_bulk_clean"]["netstack.tcp.retransmits_per_mib"].Value {
		t.Error("the lossy dumbbell retransmitted no more than the clean one")
	}
	if suite.PerLayer["paper_eval"]["paper.rel_err_max"].Value <= 0 {
		t.Error("paper_eval: no accuracy figure")
	}

	// The socket workload's spans cover the request in both clocks, and the
	// Chrome trace holds each of them twice.
	sock := suite.PerLayer["http_star_sockets"]
	for _, c := range []string{"span.coverage_host", "span.coverage_virt"} {
		if v := sock[c].Value; math.Abs(v-1) > spanTolerance {
			t.Errorf("%s = %v", c, v)
		}
	}
	raw, err = os.ReadFile(filepath.Join(dir, "spans_http_star_sockets.json"))
	if err != nil {
		t.Fatal(err)
	}
	var events []chromeEvent
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || len(events)%(2*len(spanNames)) != 0 {
		t.Errorf("%d span events", len(events))
	}
}

// One workload the way the driver runs it: double-dash flags, the result as
// the last line, exactly the contract's keys.
func TestSingleWorkloadOutput(t *testing.T) {
	for _, mode := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", "udp_small_xdp", "--seed", "9", "--seconds", "0.1", "--trace", mode,
			"--scale", "tiny", "--spec", testSpec, "--results", t.TempDir()}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit %d\n%s", mode, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var got map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
			t.Fatal(err)
		}
		if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
			t.Errorf("trace %s: keys of the last line: %v", mode, got)
		}
		var metrics map[string]metricValue
		if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		want := len(endToEnd)
		if mode == "1" {
			want = len(perLayer)
		}
		if len(metrics) != want {
			t.Errorf("trace %s: %d metrics, want %d", mode, len(metrics), want)
		}
	}
}

func TestBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--spec", testSpec},
		{"--scale", "huge", "--spec", testSpec},
		{"--trace", "2", "--spec", testSpec},
		{"--spec", filepath.Join(t.TempDir(), "absent.json")},
		{"--no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

// A result that fails a check says so and exits non-zero, with its failed
// ops still counted.
func TestViolationsFailTheRun(t *testing.T) {
	res := &result{Correct: true, Attempted: 10, Failed: 1}
	res.fill(endToEnd[:1], map[string]float64{"stray": 1})
	if res.Correct || len(res.violations) != 2 {
		t.Fatalf("violations: %v", res.violations)
	}
	var stdout, stderr bytes.Buffer
	if code := lastLine(res, res.Correct, &stdout, &stderr); code == 0 {
		t.Error("a violated run exited 0")
	}
	if !strings.Contains(stdout.String(), `"correct":false`) || !strings.Contains(stdout.String(), `"failed":1`) {
		t.Errorf("stdout: %s", stdout.String())
	}

	log := batchLog{w: workload{name: "w", deterministic: true}}
	res = &result{Correct: true}
	log.add(res, batchStats{ops: 4, virt: 100}, hostSample{seconds: 1})
	log.add(res, batchStats{ops: 4, virt: 101}, hostSample{seconds: 1})
	log.add(res, batchStats{}, hostSample{seconds: 1})
	if len(res.violations) != 2 {
		t.Errorf("a diverged batch and an empty one: %v", res.violations)
	}
	log.failed = 1
	log.close(res)
	if res.Failed != 1 || len(res.violations) != 3 {
		t.Errorf("failed ops: %d, %v", res.Failed, res.violations)
	}
}

// A batch is held to the first batch of its own variant, and a replayed
// batch adds a host sample but no virtual-clock sample.
func TestVariantsReplayTheirOwnFirstBatch(t *testing.T) {
	log := batchLog{w: workload{name: "w", deterministic: true, variants: 2}}
	res := &result{Correct: true}
	log.add(res, batchStats{ops: 4, virt: 100}, hostSample{seconds: 1})
	log.add(res, batchStats{ops: 4, virt: 300, variant: 1}, hostSample{seconds: 1})
	log.add(res, batchStats{ops: 4, virt: 100}, hostSample{seconds: 1})
	if len(res.violations) != 0 || len(log.firsts) != 2 || len(log.opsPerS) != 3 || len(log.virtPerOp) != 2 {
		t.Errorf("violations %v, %d firsts, %d host and %d virtual samples", res.violations, len(log.firsts), len(log.opsPerS), len(log.virtPerOp))
	}
	log.add(res, batchStats{ops: 4, virt: 100, variant: 1}, hostSample{seconds: 1})
	if len(res.violations) != 1 {
		t.Errorf("variant 1 diverged from its first batch: %v", res.violations)
	}
}

// The A/A check runs the timed suite twice and writes its table. Whether a
// 20 ms tiny run stays inside the bounds is the host's business, not the
// test's: only a harness failure (exit code 1 without a table) is an error.
func TestSelfCheckTiny(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	run([]string{"--selfcheck", "--scale", "tiny", "--seconds", "0.02", "--spec", testSpec, "--results", dir}, &stdout, &stderr)
	raw, err := os.ReadFile(filepath.Join(dir, "aa.json"))
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	var rows []aaRow
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(workloads)*len(endToEnd) {
		t.Errorf("%d rows, want %d", len(rows), len(workloads)*len(endToEnd))
	}
	for _, r := range rows {
		if r.Metric == "virt_us_per_op" && r.Workload != "http_star_sockets" && r.A != r.B {
			t.Errorf("%s: virtual time differs between the halves: %v vs %v", r.Workload, r.A, r.B)
		}
		if r.Breach != (r.Worse > r.Bound) {
			t.Errorf("%+v", r)
		}
	}
	if worseBy(100, 90, higher) != 0.1 || worseBy(100, 110, lower) != 0.1 || worseBy(100, 110, higher) >= 0 || worseBy(0, 1, lower) != 0 {
		t.Error("worseBy")
	}
}

func TestCPUProfileAttribution(t *testing.T) {
	for fn, want := range map[string]string{
		"spin/internal/sim.(*Cluster).next":                 "sim",
		"spin/internal/netstack.HTTPGet.func1":              "netstack",
		"spin/internal/vnet.(*half).Transmit":               "vnet",
		"spin/internal/bench.RunTable2":                     "bench",
		"main.(*fleet).run":                                 "bench",
		"spin/benchmark.stepAll":                            "bench",
		"runtime.mallocgc":                                  "runtime",
		"internal/runtime/atomic.(*Uint32).Load":            "runtime",
		"runtime/internal/syscall.Syscall6":                 "runtime",
		"net/http.(*Transport).dialConn":                    "other",
		"spin.(*Machine).AddNIC":                            "other",
		"spin/internal/lb.(*Ring).Pick":                     "other",
		"spin/internal/cow.Map[go.shape.string,a/b.T].Load": "other",
		"memmove": "other",
	} {
		if got := layerOf(packageOf(fn)); got != want {
			t.Errorf("%s -> %s (package %q), want %s", fn, got, packageOf(fn), want)
		}
	}

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	x := uint64(1)
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	sink += x
	pprof.StopCPUProfile()
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 || shares["bench"] < 0.5 {
		t.Errorf("shares %v: want them to sum to 1 with this test's own loop on top", shares)
	}
	if _, err := cpuShares([]byte("not a profile")); err == nil {
		t.Error("garbage decoded")
	}
	if err := protoFields([]byte{0x0a, 0x05, 0x01}, func(int, uint64, []byte) error { return nil }); err == nil {
		t.Error("a truncated field decoded")
	}
}
