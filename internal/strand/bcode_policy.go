package strand

import "spin/internal/bcode"

// Verified steal policies: the scheduler's third extension point (after
// SchedEvent observers and the strand events themselves) accepts the same
// verified bytecode the network path runs. A policy program is consulted
// for every candidate victim during work stealing; a nonzero verdict vetoes
// that victim and the scan moves on. Because the program passed Verify, a
// hostile policy can at worst make stealing conservative — it cannot fault,
// loop, or touch scheduler state.

// Steal-policy context ABI.
const (
	// StealCtxThief is the id of the CPU attempting the steal.
	StealCtxThief = 0
	// StealCtxVictim is the id of the candidate victim CPU.
	StealCtxVictim = 1
	// StealCtxDepth is the victim's ready-queue depth.
	StealCtxDepth = 2
	// StealCtxNow is the thief's virtual time.
	StealCtxNow = 3
	// StealCtxWords is how many words the steal ABI exposes.
	StealCtxWords = 4
)

// StealSpec is the verification spec for steal-policy programs.
var StealSpec = bcode.Spec{Words: StealCtxWords}

// StealPolicy is one installed policy program: its Stats are victim
// evaluations and vetoes issued.
type StealPolicy = bcode.Attachment

// SetStealPolicy verifies prog against the steal ABI and installs it,
// replacing any previous policy. Like SetObserver, call it
// before Run (or between runs).
func (sched *Scheduler) SetStealPolicy(name string, prog *bcode.Program) (*StealPolicy, error) {
	p, err := bcode.Attach(name, "steal-policy", prog, StealSpec)
	if err != nil {
		return nil, err
	}
	sched.stealPolicy = p
	return p, nil
}

// ClearStealPolicy removes the installed policy, if any.
func (sched *Scheduler) ClearStealPolicy() { sched.stealPolicy = nil }

// StealPolicyInstalled returns the installed policy, or nil.
func (sched *Scheduler) StealPolicyInstalled() *StealPolicy {
	return sched.stealPolicy
}

// stealVetoed consults the policy (if any) about thief stealing from
// victim, charging one guard evaluation on the thief. The context lives on
// this frame.
func (c *CPU) stealVetoed(victim *CPU) bool {
	p := c.sched.stealPolicy
	if p == nil {
		return false
	}
	c.clock.Advance(c.sched.profile.GuardEval)
	var ctx bcode.Context
	ctx.W[StealCtxThief] = uint64(c.id)
	ctx.W[StealCtxVictim] = uint64(victim.id)
	ctx.W[StealCtxDepth] = uint64(victim.ready.size)
	ctx.W[StealCtxNow] = uint64(c.clock.Now())
	if !p.Run(&ctx) {
		return false
	}
	p.Hit()
	return true
}
