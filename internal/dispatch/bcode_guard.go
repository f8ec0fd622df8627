package dispatch

import "spin/internal/bcode"

// Verified-bytecode guards: the dispatcher's guard slot is the paper's
// original home for "little language" predicates (§2.1), and this adapter
// is where an untrusted program becomes one. The program is verified
// exactly once, at install time; afterwards the dispatcher cannot tell a
// bytecode guard from a trusted Go predicate — both are closures evaluated
// on the Raise path at GuardEval cost.

// CtxBinder translates one raised event argument into a bytecode Context.
// It returns false when the argument is not of the shape the program
// expects (the guard then declines the event, matching how trusted guards
// type-check their argument first). Every evaluation starts from a zeroed
// Context, so a word the binder leaves alone reads 0.
type CtxBinder func(arg any, ctx *bcode.Context) bool

// VerifiedGuard verifies prog against spec and wraps it as a Guard. The
// guard matches when the program's verdict is nonzero. Installing an
// unverifiable program fails here, before the handler touches the event
// table. The Context is handed to a caller's binder through a func value,
// so it escapes: one heap allocation per evaluation. A hot load point that
// knows its argument's type builds its guard around a stack Context
// instead (netstack's PacketFilter does).
func VerifiedGuard(prog *bcode.Program, spec bcode.Spec, bind CtxBinder) (Guard, error) {
	a, err := bcode.Attach("", "guard", prog, spec)
	if err != nil {
		return nil, err
	}
	return func(arg any) bool {
		ctx := new(bcode.Context)
		return bind(arg, ctx) && a.Run(ctx)
	}, nil
}
