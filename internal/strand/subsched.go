package strand

import (
	"spin/internal/dispatch"
	"spin/internal/domain"
	"spin/internal/sim"
)

// SubScheduler is an application-specific scheduler placed on top of the
// global scheduler (paper §4.2): it presents itself to the global scheduler
// as a thread package — its carrier strand receives the processor via
// Resume and relinquishes it via Checkpoint/Block — and it schedules its own
// strands with its own policy (FIFO here; the point is the structure, and
// tests replace the policy).
//
// Block and Unblock events raised on its strands are routed to it by the
// dispatcher through guarded handlers, exactly as the paper describes.
type SubScheduler struct {
	global  *Scheduler
	carrier *Strand
	ident   domain.Identity

	// strands this scheduler owns.
	owned map[*SubStrand]bool
	runq  []*SubStrand

	// Policy picks the index of the next substrand to run from the run
	// queue; nil means FIFO (index 0).
	Policy func(q []*SubStrand) int

	refs []dispatch.HandlerRef
}

// SubStrand is a strand owned by an application-specific scheduler: a
// cooperative task that runs step functions until done.
type SubStrand struct {
	Name string
	// Weight is consulted by proportional-share policies (LotteryPolicy);
	// zero means 1.
	Weight   int
	owner    *SubScheduler
	runnable bool
	body     func(*SubStrand)
	finished bool
}

// NewSubScheduler creates an application-specific scheduler and installs
// its Block/Unblock handlers (guarded to its own strands) on the global
// dispatcher.
func NewSubScheduler(global *Scheduler, ident domain.Identity) (*SubScheduler, error) {
	sub := &SubScheduler{
		global: global,
		ident:  ident,
		owned:  make(map[*SubStrand]bool),
	}
	sub.carrier = global.NewStrand("subsched:"+ident.Name, 0, func(s *Strand) {
		sub.loop(s)
	})

	guard := func(arg any) bool {
		ss, ok := arg.(*SubStrand)
		return ok && sub.owned[ss]
	}
	blockRef, err := global.disp.Install(EvBlock, func(arg, _ any) any {
		ss := arg.(*SubStrand)
		ss.runnable = false
		sub.dequeue(ss)
		return nil
	}, dispatch.InstallOptions{Installer: ident, Guard: guard})
	if err != nil {
		return nil, err
	}
	unblockRef, err := global.disp.Install(EvUnblock, func(arg, _ any) any {
		ss := arg.(*SubStrand)
		if !ss.runnable && !ss.finished {
			ss.runnable = true
			sub.runq = append(sub.runq, ss)
			// Receive control of the processor: wake the carrier.
			global.disp.RaiseEvent(global.evUnblock, sub.carrier)
		}
		return nil
	}, dispatch.InstallOptions{Installer: ident, Guard: guard})
	if err != nil {
		return nil, err
	}
	sub.refs = []dispatch.HandlerRef{blockRef, unblockRef}
	return sub, nil
}

// NewSubStrand creates a strand under this scheduler; Unblock (raised as an
// event on it) makes it runnable.
func (sub *SubScheduler) NewSubStrand(name string, body func(*SubStrand)) *SubStrand {
	ss := &SubStrand{Name: name, owner: sub, body: body}
	sub.owned[ss] = true
	return ss
}

// Start makes a substrand runnable by raising Strand.Unblock on it — the
// dispatcher routes the event to this scheduler.
func (sub *SubScheduler) Start(ss *SubStrand) {
	sub.global.disp.RaiseEvent(sub.global.evUnblock, ss)
}

// loop is the carrier body: the delivery of Resume (being scheduled by the
// global scheduler) lets it schedule its own strands; with no runnable
// strand it blocks, relinquishing the processor.
func (sub *SubScheduler) loop(carrier *Strand) {
	for {
		if len(sub.runq) == 0 {
			if sub.allFinished() {
				return
			}
			carrier.BlockSelf()
			continue
		}
		i := 0
		if sub.Policy != nil {
			i = sub.Policy(sub.runq)
			if i < 0 || i >= len(sub.runq) {
				i = 0
			}
		}
		ss := sub.runq[i]
		sub.runq = append(sub.runq[:i], sub.runq[i+1:]...)
		ss.runnable = false
		ss.body(ss)
		ss.finished = true
		delete(sub.owned, ss)
		// Preemption point: let the global scheduler reclaim the
		// processor between substrands.
		carrier.Yield()
	}
}

func (sub *SubScheduler) allFinished() bool {
	return len(sub.owned) == 0
}

func (sub *SubScheduler) dequeue(ss *SubStrand) {
	for i, x := range sub.runq {
		if x == ss {
			sub.runq = append(sub.runq[:i], sub.runq[i+1:]...)
			return
		}
	}
}

// LotteryPolicy returns a proportional-share policy [Waldspurger & Weihl
// 94]: each runnable substrand holds Weight tickets (default 1) and the
// winner is drawn with the given deterministic PRNG — the kind of
// application-specific policy SPIN lets an extension install without
// touching the global scheduler.
func LotteryPolicy(rng *sim.Rand) func(q []*SubStrand) int {
	return func(q []*SubStrand) int {
		total := 0
		for _, ss := range q {
			w := ss.Weight
			if w <= 0 {
				w = 1
			}
			total += w
		}
		if total == 0 {
			return 0
		}
		ticket := rng.Intn(total)
		for i, ss := range q {
			w := ss.Weight
			if w <= 0 {
				w = 1
			}
			ticket -= w
			if ticket < 0 {
				return i
			}
		}
		return 0
	}
}

// Detach removes the scheduler's event handlers.
func (sub *SubScheduler) Detach() {
	for _, r := range sub.refs {
		_ = sub.global.disp.Remove(r)
	}
}
