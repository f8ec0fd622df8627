package strand

import (
	"testing"

	"spin/internal/sim"
)

// runQueue is the core of the multi-CPU scheduler; this test drives it
// with 10k random operations against a dead-simple reference (a plain slice
// ordered by priority then arrival) and requires identical behavior.

type refQueue struct {
	items []*Strand
	seqs  []int
	next  int
}

func (r *refQueue) push(s *Strand) {
	r.items = append(r.items, s)
	r.seqs = append(r.seqs, r.next)
	r.next++
}

func (r *refQueue) take(i int) *Strand {
	s := r.items[i]
	r.items = append(r.items[:i], r.items[i+1:]...)
	r.seqs = append(r.seqs[:i], r.seqs[i+1:]...)
	return s
}

// pop takes the earliest-arrived strand of the highest priority.
func (r *refQueue) pop() *Strand {
	best := -1
	for i, s := range r.items {
		if best == -1 || s.prio > r.items[best].prio ||
			(s.prio == r.items[best].prio && r.seqs[i] < r.seqs[best]) {
			best = i
		}
	}
	if best == -1 {
		return nil
	}
	return r.take(best)
}

// stealTail takes the latest-arrived strand of the lowest priority.
func (r *refQueue) stealTail() *Strand {
	best := -1
	for i, s := range r.items {
		if best == -1 || s.prio < r.items[best].prio ||
			(s.prio == r.items[best].prio && r.seqs[i] > r.seqs[best]) {
			best = i
		}
	}
	if best == -1 {
		return nil
	}
	return r.take(best)
}

func (r *refQueue) remove(s *Strand) bool {
	for i, x := range r.items {
		if x == s {
			r.take(i)
			return true
		}
	}
	return false
}

func TestRunQueueMatchesReferenceModel(t *testing.T) {
	rng := sim.NewRand(42)
	var rq runQueue
	ref := &refQueue{}
	var live []*Strand
	id := 0

	check := func(op string, got, want *Strand) {
		t.Helper()
		if got != want {
			gname, wname := "<nil>", "<nil>"
			if got != nil {
				gname = got.name
			}
			if want != nil {
				wname = want.name
			}
			t.Fatalf("%s: runQueue returned %s, reference model says %s", op, gname, wname)
		}
	}

	for i := 0; i < 10000; i++ {
		switch rng.Intn(5) {
		case 0, 1: // push
			s := &Strand{name: itoa(id), prio: rng.Intn(5) - 2}
			id++
			rq.push(s)
			ref.push(s)
			live = append(live, s)
		case 2: // pop
			got := rq.pop()
			want := ref.pop()
			check("pop", got, want)
			if got != nil {
				live = removeStrand(live, got)
			}
		case 3: // stealTail
			got := rq.stealTail()
			want := ref.stealTail()
			check("stealTail", got, want)
			if got != nil {
				live = removeStrand(live, got)
			}
		case 4: // remove a random live strand (Block on a queued strand)
			if len(live) == 0 {
				continue
			}
			s := live[rng.Intn(len(live))]
			ok := rq.remove(s)
			refOK := ref.remove(s)
			if ok != refOK {
				t.Fatalf("remove(%s): runQueue=%v reference=%v", s.name, ok, refOK)
			}
			live = removeStrand(live, s)
		}
		if n := rq.size.Load(); n != int64(len(ref.items)) {
			t.Fatalf("op %d: size %d, reference has %d", i, n, len(ref.items))
		}
	}
}

func itoa(n int) string {
	return string(rune('A' + n%26))
}

func removeStrand(xs []*Strand, s *Strand) []*Strand {
	for i, x := range xs {
		if x == s {
			return append(xs[:i], xs[i+1:]...)
		}
	}
	return xs
}
