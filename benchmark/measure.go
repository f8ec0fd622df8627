package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"
)

// runConfig is what one run of one workload is given.
type runConfig struct {
	seed    uint64
	seconds float64
	scale   scale
	// artifacts is the directory the traced run writes its span file to.
	artifacts string
}

// A timed run is setupsPerRun slices of equal length. Each slice sets the
// workload up afresh and spends the rest of its time on fixed-work batches,
// as many as fit. So setup_s is a median of set-ups spread over the whole
// run, where a burst of noise from a neighbour can spoil only one or two.
const setupsPerRun = 5

// hostSample is the host-clock cost of one batch.
type hostSample struct {
	seconds        float64
	mallocs, bytes uint64
}

// timeBatch runs one batch of inst between two readings of the host's
// clock and allocator. With collect it forces a collection first, so that
// one batch's garbage is not the next one's pause.
func timeBatch(inst instance, collect bool) (batchStats, hostSample, error) {
	var before, after runtime.MemStats
	if collect {
		runtime.GC()
	}
	runtime.ReadMemStats(&before)
	start := time.Now()
	st, err := inst.batch()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return st, hostSample{
		seconds: elapsed.Seconds(),
		mallocs: after.Mallocs - before.Mallocs,
		bytes:   after.TotalAlloc - before.TotalAlloc,
	}, err
}

// batchLog accumulates the batches of one phase of a run.
type batchLog struct {
	w workload
	// collect forces a collection before every batch. The timed run does;
	// the traced run does not, so that its CPU profile shows the
	// workload's own collections and not the harness's.
	collect bool
	// firsts is the first batch of every variant, in the order they ran,
	// and firstKeys their deterministic outputs by variant.
	firsts    []batchStats
	firstKeys map[int]string
	attempted int
	failed    int
	why       string

	opsPerS, eventsPerS   []float64
	allocsPerOp, kibPerOp []float64
	virtPerOp             []float64
}

// add records one batch and, on deterministic workloads, checks that it
// replayed the first one of its variant exactly.
func (l *batchLog) add(r *result, st batchStats, h hostSample) {
	if st.ops == 0 {
		r.violate("%s: a batch attempted no ops", l.w.name)
		return
	}
	key, seen := l.firstKeys[st.variant]
	if !seen {
		if l.firstKeys == nil {
			l.firstKeys = map[int]string{}
		}
		l.firsts, l.firstKeys[st.variant] = append(l.firsts, st), st.virtKey()
	} else if l.w.deterministic && st.virtKey() != key {
		r.violate("%s: batch %d diverged from the first of variant %d:\n  %s\n  %s", l.w.name, len(l.opsPerS), st.variant, st.virtKey(), key)
	}
	l.attempted += st.ops
	if l.failed == 0 {
		l.why = st.why
	}
	l.failed += st.failed
	ops := float64(st.ops)
	l.opsPerS = append(l.opsPerS, ops/h.seconds)
	l.eventsPerS = append(l.eventsPerS, float64(st.events)/h.seconds)
	l.allocsPerOp = append(l.allocsPerOp, float64(h.mallocs)/ops)
	l.kibPerOp = append(l.kibPerOp, float64(h.bytes)/1024/ops)
	// A deterministic batch that replayed an earlier one says nothing new on
	// the virtual clock: one sample a variant, so that the median does not
	// lean towards the variants the host had time to run once more.
	if !seen || !l.w.deterministic {
		l.virtPerOp = append(l.virtPerOp, st.virt.Micros()/ops)
	}
}

// runBatches runs batches of inst until the deadline, and at least atLeast
// and one of every variant.
func (l *batchLog) runBatches(r *result, inst instance, atLeast int, deadline time.Time) error {
	atLeast = max(atLeast, l.w.variants)
	for n := 0; n < atLeast || time.Now().Before(deadline); n++ {
		st, h, err := timeBatch(inst, l.collect)
		if err != nil {
			return fmt.Errorf("%s: batch: %w", l.w.name, err)
		}
		l.add(r, st, h)
	}
	return nil
}

// close books the phase's ops into the result.
func (l *batchLog) close(r *result) {
	r.Attempted += l.attempted
	r.Failed += l.failed
	if l.failed > 0 {
		r.violate("%s: %d of %d ops failed or were not verified; the first: %s", l.w.name, l.failed, l.attempted, l.why)
	}
}

// setUp builds and warms the workload once, timing it.
func setUp(w workload, cfg runConfig) (instance, float64, error) {
	runtime.GC()
	start := time.Now()
	inst, err := w.setup(cfg.seed, cfg.scale)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	return inst, time.Since(start).Seconds(), nil
}

// runTimed is the untraced run: the end-to-end metrics of one workload.
func runTimed(w workload, cfg runConfig) (*result, error) {
	begin := time.Now()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	res := &result{Correct: true}

	// On the deterministic workloads every set-up must leave the topology
	// in the same state, warm-up traffic included, and every batch on
	// every instance must replay the first.
	var inst instance
	var setups []float64
	var fp0 uint64
	log := batchLog{w: w, collect: true}
	for n := 0; n < setupsPerRun; n++ {
		// Drop the previous instance first, so that every set-up after
		// the first starts from the same heap: nothing live, pages mapped.
		inst = nil
		next, secs, err := setUp(w, cfg)
		if err != nil {
			return nil, err
		}
		if fp := next.fingerprint(); n == 0 {
			fp0 = fp
		} else if w.deterministic && fp != fp0 {
			res.violate("%s: set-up %d left fingerprint %#x, set-up 0 left %#x", w.name, n, fp, fp0)
		}
		inst, setups = next, append(setups, secs)
		sliceEnd := begin.Add(budget * time.Duration(n+1) / setupsPerRun)
		if err := log.runBatches(res, inst, 1, sliceEnd); err != nil {
			return nil, err
		}
	}
	log.close(res)
	q1, q3 := quartiles(log.opsPerS)
	res.detail = fmt.Sprintf("%d set-ups, %d batches; ops_per_s quartiles %.6g / %.6g / %.6g, spread %.1f%%",
		len(setups), len(log.opsPerS), q1, median(log.opsPerS), q3, 100*spread(log.opsPerS))

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(inst)

	res.fill(endToEnd, map[string]float64{
		"setup_s":          median(setups),
		"ops_per_s":        median(log.opsPerS),
		"virt_us_per_op":   median(log.virtPerOp),
		"allocs_per_op":    median(log.allocsPerOp),
		"alloc_kib_per_op": median(log.kibPerOp),
		"heap_live_mib":    float64(ms.HeapAlloc) / (1 << 20),
	})
	return res, nil
}

// How a traced run divides its time: reference batches with tracing off,
// then batches with kernel tracing, spans and the CPU profiler on, then
// the layer probes with whatever is left.
const (
	tracedRefShare   = 0.15
	tracedTraceShare = 0.35
	tracedBatches    = 3
	// minProfile is the least time the profiler gets, however short the
	// run: at 100 samples a second, less would be no profile at all.
	minProfile = 200 * time.Millisecond
)

// runTraced is the traced run: the per-layer metrics of one workload.
// probes, when non-nil, are layer-probe results measured earlier in this
// process (the probes do not depend on the workload).
func runTraced(w workload, cfg runConfig, probes map[string]float64) (*result, error) {
	begin := time.Now()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	res := &result{Correct: true}
	inst, _, err := setUp(w, cfg)
	if err != nil {
		return nil, err
	}

	// Untraced reference: the same batches as the timed run, for the
	// counts and virtual-clock results and as the base of the overhead.
	ref := batchLog{w: w}
	if err := ref.runBatches(res, inst, 2, begin.Add(time.Duration(tracedRefShare*float64(budget)))); err != nil {
		return nil, err
	}
	ref.close(res)
	if len(ref.firsts) == 0 {
		return nil, fmt.Errorf("%s: no batch attempted an op", w.name)
	}

	// Traced: kernel tracing on every machine, benchmark-side spans where
	// the workload has them, and the CPU profiler.
	inst.setTracing(true)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	traced := batchLog{w: w}
	traceFor := time.Duration(tracedTraceShare * float64(budget))
	if traceFor < minProfile {
		traceFor = minProfile
	}
	traceEnd := time.Now().Add(traceFor)
	err = traced.runBatches(res, inst, tracedBatches, traceEnd)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	traced.close(res)
	for variant, key := range ref.firstKeys {
		if w.deterministic && traced.firstKeys[variant] != key {
			res.violate("%s: tracing changed the simulation:\n  %s\n  %s", w.name, traced.firstKeys[variant], key)
		}
	}

	if n := len(ref.firsts[0].lat); cfg.scale == scaleFull && n > 0 && tailPercentile(n) < 99 {
		res.violate("%s: %d latency samples cannot support a p99", w.name, n)
	}

	values := map[string]float64{
		"trace.overhead_ratio": median(traced.opsPerS) / median(ref.opsPerS),
		"sim.events_per_s":     median(ref.eventsPerS),
	}
	workloadCounts(values, ref.firsts)
	histogramMetrics(values, inst.tracers())
	if err := spanMetrics(values, res, inst, w.name, cfg.artifacts); err != nil {
		return nil, err
	}
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, fmt.Errorf("%s: cpu profile: %w", w.name, err)
	}
	for _, l := range cpuLayers {
		values["cpu_share."+l] = shares[l]
	}
	inst.setTracing(false)

	if probes == nil {
		if probes, err = runProbes(cfg.scale); err != nil {
			return nil, err
		}
	}
	for name, v := range probes {
		values[name] = v
	}
	res.fill(perLayer, values)
	return res, nil
}

// workloadCounts derives the per-layer counts and virtual-clock results a
// workload's own batches carry, given the first batch of every variant: the
// median over the variants for a ratio, the first variant's samples for a
// distribution (the workloads that keep samples have one variant).
func workloadCounts(values map[string]float64, firsts []batchStats) {
	overVariants := func(ratio func(batchStats) float64) float64 {
		var vs []float64
		for _, st := range firsts {
			vs = append(vs, ratio(st))
		}
		return median(vs)
	}
	values["sim.events_per_op"] = overVariants(func(st batchStats) float64 { return float64(st.events) / float64(st.ops) })
	st := firsts[0]
	lat := sorted(st.lat)
	values["virt.latency_p50_us"] = percentileSorted(lat, 50)
	values["virt.latency_p99_us"] = percentileSorted(lat, 99)
	values["virt.goodput_mbps"] = overVariants(func(st batchStats) float64 {
		if st.payloadBits == 0 {
			return 0
		}
		return st.payloadBits / 1e6 / (float64(st.virt) / 1e9)
	})
	values["netstack.tcp.retransmits_per_mib"] = overVariants(func(st batchStats) float64 {
		if st.payloadBits == 0 {
			return 0
		}
		return float64(st.retransmits) / (st.payloadBits / 8 / (1 << 20))
	})
	rel := sorted(st.relErr)
	values["paper.rel_err_p50"] = quantileSorted(rel, 0.5)
	values["paper.rel_err_max"] = quantileSorted(rel, 1)
}
