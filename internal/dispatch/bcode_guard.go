package dispatch

import "spin/internal/bcode"

// Verified-bytecode guards: the dispatcher's guard slot is the paper's
// original home for "little language" predicates (§2.1), and this adapter
// is where an untrusted program becomes one. The program is verified and
// compiled exactly once, at install time; afterwards the dispatcher cannot
// tell a bytecode guard from a trusted Go predicate — both are closures
// evaluated on the Raise path at GuardEval cost.

// CtxBinder translates one raised event argument into a bytecode Context.
// It returns false when the argument is not of the shape the program
// expects (the guard then declines the event, matching how trusted guards
// type-check their argument first). Contexts are recycled between
// evaluations, so a binder must fill every word its spec exposes.
type CtxBinder func(arg any, ctx *bcode.Context) bool

// VerifiedGuard verifies prog against spec and compiles it into a Guard.
// The guard matches when the program's verdict is nonzero. Installing an
// unverifiable program fails here, before the handler touches the event
// table.
func VerifiedGuard(prog *bcode.Program, spec bcode.Spec, bind CtxBinder) (Guard, error) {
	a, err := bcode.Attach("", "guard", prog, spec)
	if err != nil {
		return nil, err
	}
	return AttachmentGuard(a, bind), nil
}

// AttachmentGuard is VerifiedGuard for a caller that keeps the attachment
// (for its counters).
func AttachmentGuard(a *bcode.Attachment, bind CtxBinder) Guard {
	return func(arg any) bool {
		ctx := a.Acquire()
		if !bind(arg, ctx) {
			a.Release(ctx)
			return false
		}
		return a.Run(ctx)
	}
}
