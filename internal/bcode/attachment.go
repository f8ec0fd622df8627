package bcode

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Attachment is one verified program hung on a load point — the XDP slot,
// a dispatcher guard, the scheduler's steal-policy slot. Whatever the hook,
// a loaded program is the same object: verified once at Attach, run by the
// interpreter against a Context the load point declares on its own stack,
// counted and reported the same way.
type Attachment struct {
	name, point string
	prog        *Program
	runs, hits  atomic.Int64
}

// Attach verifies prog against the load point's spec. Install-time
// rejection is the whole safety model.
func Attach(name, point string, prog *Program, spec Spec) (*Attachment, error) {
	if err := Verify(prog, spec); err != nil {
		return nil, fmt.Errorf("bcode: %s %s: %w", point, name, err)
	}
	return &Attachment{name: name, point: point, prog: prog}, nil
}

// Run evaluates the program against ctx, counts the run and reports whether
// the verdict was nonzero (match / drop / veto). Run is a direct method
// call that keeps no reference to ctx, so a load point's Context stays on
// its stack.
func (a *Attachment) Run(ctx *Context) bool {
	a.runs.Add(1)
	return a.prog.Run(ctx) != VerdictPass
}

// Hit counts one verdict the load point acted on (a drop, a veto).
func (a *Attachment) Hit() { a.hits.Add(1) }

// Name identifies the attachment.
func (a *Attachment) Name() string { return a.name }

// Stats reports evaluations and verdicts acted on.
func (a *Attachment) Stats() (runs, hits int64) { return a.runs.Load(), a.hits.Load() }

// Stat describes one loaded program for the debug surfaces (spin-dbg
// bcode, /debug/bcode).
type Stat struct {
	Name        string
	Point       string // load point: "xdp", "ip-filter", "steal-policy"
	Insns       int
	Runs, Hits  int64
	Quarantined bool // set by load points the dispatcher can unlink
}

// Stat snapshots the attachment.
func (a *Attachment) Stat() Stat {
	runs, hits := a.Stats()
	return Stat{Name: a.name, Point: a.point, Insns: len(a.prog.Insns), Runs: runs, Hits: hits}
}

// Report renders stats for the wire and the debug endpoint.
func Report(stats []Stat) string {
	if len(stats) == 0 {
		return "bcode: no verified programs loaded"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "bcode: %d verified program(s)", len(stats))
	for _, p := range stats {
		state := "live"
		if p.Quarantined {
			state = "QUARANTINED"
		}
		fmt.Fprintf(&sb, "\n  %-16s %-12s %3d insns  runs=%-8d matched=%-8d %s",
			p.Name, p.Point, p.Insns, p.Runs, p.Hits, state)
	}
	return sb.String()
}
