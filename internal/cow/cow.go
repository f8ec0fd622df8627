// Package cow is the kernel's one copy-on-write table: an immutable map
// published through an atomic pointer. Readers (the per-raise and
// per-packet paths) pay one atomic load and a map index and never lock;
// writers serialize on the table's own mutex, clone, edit and publish. A
// published map never changes, so a read in flight sees either the old
// table or the new one, never a torn one.
package cow

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
)

// Map is a copy-on-write map. The zero value is an empty map ready for use.
type Map[K comparable, V any] struct {
	mu sync.Mutex
	p  atomic.Pointer[map[K]V]
}

// Snapshot returns the published map, which callers must not modify.
func (m *Map[K, V]) Snapshot() map[K]V {
	if p := m.p.Load(); p != nil {
		return *p
	}
	return nil
}

// SortedKeys lists the published map's keys in ascending order.
func SortedKeys[K cmp.Ordered, V any](m *Map[K, V]) []K {
	snap := m.Snapshot()
	keys := make([]K, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Get looks k up in the published map. Lock-free.
func (m *Map[K, V]) Get(k K) (V, bool) {
	v, ok := m.Snapshot()[k]
	return v, ok
}

// cloneLocked copies the published map, skipping entries drop reports true
// for (nil keeps everything). Callers hold mu. (maps.Clone measures one
// allocation more per clone on the Bind/Unbind-per-request path.)
func (m *Map[K, V]) cloneLocked(drop func(K, V) bool) map[K]V {
	old := m.Snapshot()
	next := make(map[K]V, len(old)+1)
	for k, v := range old {
		if drop == nil || !drop(k, v) {
			next[k] = v
		}
	}
	return next
}

// Update publishes a clone of the map after edit has modified it. edit
// runs under the writers' mutex, which therefore guards whatever it touches.
func (m *Map[K, V]) Update(edit func(next map[K]V)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	next := m.cloneLocked(nil)
	edit(next)
	m.p.Store(&next)
}

// Set publishes k -> v, replacing any previous value.
func (m *Map[K, V]) Set(k K, v V) {
	m.Update(func(next map[K]V) { next[k] = v })
}

// LoadOrStore returns the value published under k if there is one;
// otherwise it publishes and returns v. loaded reports which happened.
func (m *Map[K, V]) LoadOrStore(k K, v V) (actual V, loaded bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if cur, ok := m.Snapshot()[k]; ok {
		return cur, true
	}
	next := m.cloneLocked(nil)
	next[k] = v
	m.p.Store(&next)
	return v, false
}

// DeleteFunc withdraws every entry del reports true for in one swap (none
// when nothing matched) and returns how many it removed.
func (m *Map[K, V]) DeleteFunc(del func(K, V) bool) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	next := m.cloneLocked(del)
	removed := len(m.Snapshot()) - len(next)
	if removed > 0 {
		m.p.Store(&next)
	}
	return removed
}

// Delete withdraws k, reporting whether it was present.
func (m *Map[K, V]) Delete(k K) bool {
	return m.DeleteFunc(func(key K, _ V) bool { return key == k }) > 0
}
