package bcode

import (
	"fmt"

	"spin/internal/metrics"
)

// Attachment is one verified program hung on a load point — the XDP slot,
// a dispatcher guard, the scheduler's steal-policy slot. Whatever the hook,
// a loaded program is the same object: verified once at Attach, run by the
// interpreter against a Context the load point declares on its own stack,
// counted and observed the same way. Its counters belong, like the load
// point, to whoever steps the machine's engine.
type Attachment struct {
	name, point string
	prog        *Program
	runs, hits  int64
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
	a.runs++
	return a.prog.Run(ctx) != VerdictPass
}

// Hit counts one verdict the load point acted on (a drop, a veto).
func (a *Attachment) Hit() { a.hits++ }

// Name identifies the attachment.
func (a *Attachment) Name() string { return a.name }

// Stats reports evaluations and verdicts acted on.
func (a *Attachment) Stats() (runs, hits int64) { return a.runs, a.hits }

// Labels is the attachment's label set on the metrics surface.
func (a *Attachment) Labels() string {
	return fmt.Sprintf("{program=%q,point=%q}", a.name, a.point)
}

// Metrics emits the program's size, evaluations and verdicts acted on.
func (a *Attachment) Metrics(emit metrics.Emit) {
	l := a.Labels()
	emit("bcode_insns"+l, float64(len(a.prog.Insns)))
	emit("bcode_runs"+l, float64(a.runs))
	emit("bcode_hits"+l, float64(a.hits))
}
