package dispatch

import (
	"fmt"
	"slices"
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
// The key index is a plain map owned, like the dispatcher, by whoever steps
// the machine's engine. A key's handler slice is replaced, never edited, by
// InstallKeyed and RemoveKeyed: a keyed handler may remove itself while the
// demultiplexer is walking the slice it was called from.

// KeyFunc extracts the demultiplexing key from an event argument.
type KeyFunc func(arg any) (key uint64, ok bool)

// KeyedEvent is an event with an attached key index. It is layered over a
// regular dispatcher event: unkeyed handlers (and the primary) still work;
// keyed handlers bypass guard evaluation.
type KeyedEvent struct {
	d     *Dispatcher
	name  string
	keyOf KeyFunc

	// byKey is the index; its entry slices are immutable.
	byKey map[uint64][]*keyedEntry
	// results holds the keyed handlers' results of the raises in progress,
	// kept the way Event.results is: a re-entrant raise appends after the
	// outer one's and cuts its own off, so a raise allocates nothing once
	// the storage has grown to the deepest walk.
	results []any
	raises  int64
	indexed int64
}

type keyedEntry struct {
	h       Handler
	closure any
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
		byKey: make(map[uint64][]*keyedEntry),
	}
	userPrimary := opts.Primary
	userClosure := opts.PrimaryClosure
	opts.Primary = func(arg, _ any) any {
		// Index lookup: one hash probe regardless of handler count.
		ke.d.clock.Advance(ke.d.profile.GuardEval) // the single key extraction
		// Deferred, so a handler's fault, which the dispatcher contains
		// around this primary, leaves none of this raise's results behind.
		base := len(ke.results)
		defer func() {
			clear(ke.results[base:])
			ke.results = ke.results[:base]
		}()
		if key, ok := ke.keyOf(arg); ok {
			entries := ke.byKey[key]
			ke.indexed++
			for _, e := range entries {
				ke.d.clock.Advance(ke.d.profile.HandlerInvoke)
				ke.results = append(ke.results, e.h(arg, e.closure))
			}
		}
		ke.raises++
		if userPrimary != nil {
			ke.results = append(ke.results, userPrimary(arg, userClosure))
		}
		results := ke.results[base:]
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
	e   *keyedEntry
}

// InstallKeyed registers h for events whose key equals key.
func (ke *KeyedEvent) InstallKeyed(key uint64, h Handler, closure any) (KeyedRef, error) {
	if h == nil {
		return KeyedRef{}, fmt.Errorf("dispatch: nil keyed handler on %q", ke.name)
	}
	e := &keyedEntry{h: h, closure: closure}
	list := ke.byKey[key]
	ke.byKey[key] = append(list[:len(list):len(list)], e)
	return KeyedRef{key: key, e: e}, nil
}

// RemoveKeyed uninstalls a keyed handler.
func (ke *KeyedEvent) RemoveKeyed(ref KeyedRef) error {
	list := ke.byKey[ref.key]
	i := slices.Index(list, ref.e)
	switch {
	case i < 0:
		return fmt.Errorf("dispatch: keyed handler not installed on %q under key %d", ke.name, ref.key)
	case len(list) == 1:
		delete(ke.byKey, ref.key)
	default:
		ke.byKey[ref.key] = slices.Delete(slices.Clone(list), i, i+1)
	}
	return nil
}

// Stats reports raises and index hits.
func (ke *KeyedEvent) Stats() (raises, indexed int64) {
	return ke.raises, ke.indexed
}

// Keys reports how many distinct keys have handlers.
func (ke *KeyedEvent) Keys() int {
	return len(ke.byKey)
}
