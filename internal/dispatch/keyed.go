package dispatch

import (
	"fmt"
	"slices"
	"sync/atomic"

	"spin/internal/cow"
)

// Keyed guard optimization — the paper's stated future work (§5.5:
// "Presently, we perform no guard-specific optimizations such as evaluating
// common subexpressions or representing guard predicates as decision
// trees. As the system matures, we plan to apply these optimizations.").
//
// Many guards share one shape: extract a key from the event argument and
// compare it to a constant (the IP protocol number, a UDP port, a fault's
// context id). A KeyedEvent lets the default implementation module declare
// the extraction once; handlers then install under constant keys, and a
// raise hashes directly to the matching handlers instead of evaluating
// every installed guard — dispatch cost becomes independent of the number
// of installed handlers.
//
// Like the dispatcher's event table, the key index is a cow.Map: raises
// never lock; InstallKeyed and RemoveKeyed publish a new index.

// KeyFunc extracts the demultiplexing key from an event argument.
type KeyFunc func(arg any) (key uint64, ok bool)

// KeyedEvent is an event with an attached key index. It is layered over a
// regular dispatcher event: unkeyed handlers (and the primary) still work;
// keyed handlers bypass guard evaluation.
type KeyedEvent struct {
	d     *Dispatcher
	name  string
	keyOf KeyFunc

	// byKey is the index; published entry slices are immutable. nextID is
	// only touched inside byKey.Update, so the index's writer lock guards it.
	byKey   cow.Map[uint64, []*keyedEntry]
	nextID  int
	raises  atomic.Int64
	indexed atomic.Int64
}

type keyedEntry struct {
	h       Handler
	closure any
	id      int
}

// DefineKeyed declares an event whose handlers demultiplex on a key. The
// event is defined on the underlying dispatcher with a primary handler that
// consults the key index — so raising it through Dispatcher.Raise works,
// and unkeyed handlers may still be installed alongside. Because that
// primary *is* the demultiplexer, RemovePrimary on a keyed event fails with
// ErrKeyedPrimary rather than silently orphaning the index.
func (d *Dispatcher) DefineKeyed(name string, keyOf KeyFunc, opts DefineOptions) (*KeyedEvent, error) {
	if keyOf == nil {
		return nil, fmt.Errorf("dispatch: DefineKeyed(%q): nil key function", name)
	}
	ke := &KeyedEvent{
		d:     d,
		name:  name,
		keyOf: keyOf,
	}
	userPrimary := opts.Primary
	userClosure := opts.PrimaryClosure
	opts.Primary = func(arg, _ any) any {
		// Index lookup: one hash probe regardless of handler count.
		ke.d.clock.Advance(ke.d.profile.GuardEval) // the single key extraction
		var results []any
		if key, ok := ke.keyOf(arg); ok {
			entries, _ := ke.byKey.Get(key)
			ke.indexed.Add(1)
			for _, e := range entries {
				ke.d.clock.Advance(ke.d.profile.HandlerInvoke)
				results = append(results, e.h(arg, e.closure))
			}
		}
		ke.raises.Add(1)
		if userPrimary != nil {
			results = append(results, userPrimary(arg, userClosure))
		}
		if len(results) == 0 {
			return nil
		}
		comb := opts.Combiner
		if comb == nil {
			comb = LastResult
		}
		return comb(results)
	}
	opts.PrimaryClosure = nil
	opts.keyedDemux = true
	if err := d.Define(name, opts); err != nil {
		return nil, err
	}
	return ke, nil
}

// KeyedRef names a keyed handler for removal.
type KeyedRef struct {
	key uint64
	id  int
}

// InstallKeyed registers h for events whose key equals key.
func (ke *KeyedEvent) InstallKeyed(key uint64, h Handler, closure any) (KeyedRef, error) {
	if h == nil {
		return KeyedRef{}, fmt.Errorf("dispatch: nil keyed handler on %q", ke.name)
	}
	e := &keyedEntry{h: h, closure: closure}
	ke.byKey.Update(func(next map[uint64][]*keyedEntry) {
		e.id = ke.nextID
		ke.nextID++
		next[key] = append(slices.Clone(next[key]), e)
	})
	return KeyedRef{key: key, id: e.id}, nil
}

// RemoveKeyed uninstalls a keyed handler.
func (ke *KeyedEvent) RemoveKeyed(ref KeyedRef) error {
	found := false
	ke.byKey.Update(func(next map[uint64][]*keyedEntry) {
		list := next[ref.key]
		i := slices.IndexFunc(list, func(e *keyedEntry) bool { return e.id == ref.id })
		if found = i >= 0; !found {
			return
		}
		if len(list) == 1 {
			delete(next, ref.key)
		} else {
			next[ref.key] = slices.Delete(slices.Clone(list), i, i+1)
		}
	})
	if !found {
		return fmt.Errorf("dispatch: keyed handler %d not installed on %q", ref.id, ke.name)
	}
	return nil
}

// Stats reports raises and index hits. Counters are atomics, so it is safe
// from any goroutine while the clock's owner raises.
func (ke *KeyedEvent) Stats() (raises, indexed int64) {
	return ke.raises.Load(), ke.indexed.Load()
}

// Keys reports how many distinct keys have handlers.
func (ke *KeyedEvent) Keys() int {
	return len(ke.byKey.Snapshot())
}
