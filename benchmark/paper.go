package main

import (
	"fmt"
	"math"

	"spin/internal/bench"
	"spin/internal/sim"
	"spin/internal/trace"
)

// paperEval runs the reproduction itself: every experiment of the paper's
// evaluation. It has no topology of its own — each experiment boots and
// drops its machines — so there is nothing to fingerprint or trace.
type paperEval struct {
	experiments []bench.Experiment
}

// tinyPaper is the subset of experiments a tiny run keeps.
var tinyPaper = map[string]bool{"table2": true, "table3": true, "table4": true}

func setupPaper(seed uint64, sc scale) (instance, error) {
	var p paperEval
	for _, e := range bench.All() {
		if sc == scaleFull || tinyPaper[e.ID] {
			p.experiments = append(p.experiments, e)
		}
	}
	if st, err := p.batch(); err != nil || st.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d failed, err %v", st.failed, err)
	}
	return p, nil
}

// timingTables are the tables whose cells the paper reports as measured
// times or rates on its own hardware: the accuracy figure covers them.
var timingTables = map[string]bool{
	"table2": true, "table3": true, "table4": true,
	"table5": true, "table5opt": true, "table6": true,
}

// microsecondTables are the timing tables reported purely in µs; their
// cells add up to the workload's virtual time.
var microsecondTables = map[string]bool{"table2": true, "table3": true, "table4": true, "table6": true}

func (p paperEval) batch() (batchStats, error) {
	var st batchStats
	var virtMicros float64
	for _, e := range p.experiments {
		st.ops++
		tb, err := e.Run()
		if err != nil || tb == nil {
			st.fail("experiment %s: %v", e.ID, err)
			continue
		}
		for _, r := range tb.Rows {
			for i, got := range r.Measured {
				if got < 0 {
					continue
				}
				if microsecondTables[tb.ID] {
					virtMicros += got
				}
				if timingTables[tb.ID] && i < len(r.Paper) && r.Paper[i] > 0 {
					st.relErr = append(st.relErr, math.Abs(got-r.Paper[i])/r.Paper[i])
				}
			}
		}
	}
	st.virt = sim.Duration(virtMicros * float64(sim.Microsecond))
	return st, nil
}

func (paperEval) fingerprint() uint64      { return 0 }
func (paperEval) setTracing(bool)          {}
func (paperEval) tracers() []*trace.Tracer { return nil }
