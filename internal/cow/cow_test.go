package cow

import (
	"sync"
	"testing"
)

func TestMapOperations(t *testing.T) {
	var m Map[string, int]
	if _, ok := m.Get("a"); ok || len(m.Snapshot()) != 0 {
		t.Fatal("zero Map is not empty")
	}
	m.Set("a", 1)
	m.Set("a", 2)
	if v, ok := m.Get("a"); !ok || v != 2 {
		t.Fatalf("Get(a) = %d, %v after Set twice, want 2", v, ok)
	}
	if v, loaded := m.LoadOrStore("a", 9); !loaded || v != 2 {
		t.Errorf("LoadOrStore(present) = %d, %v, want 2, true", v, loaded)
	}
	if v, loaded := m.LoadOrStore("b", 3); loaded || v != 3 {
		t.Errorf("LoadOrStore(absent) = %d, %v, want 3, false", v, loaded)
	}
	m.Update(func(next map[string]int) {
		next["c"] = next["a"] + next["b"]
		delete(next, "a")
	})
	if v, _ := m.Get("c"); v != 5 {
		t.Errorf("c = %d after Update, want 5", v)
	}
	if keys := SortedKeys(&m); len(keys) != 2 || keys[0] != "b" || keys[1] != "c" {
		t.Errorf("SortedKeys = %v, want [b c]", keys)
	}
	if m.Delete("a") {
		t.Error("Delete(a) reported a key Update already removed")
	}
	before := m.Snapshot()
	if n := m.DeleteFunc(func(_ string, v int) bool { return v > 100 }); n != 0 {
		t.Errorf("DeleteFunc matched %d, want 0", n)
	}
	if !m.Delete("b") || len(m.Snapshot()) != 1 {
		t.Errorf("after Delete(b): %v", m.Snapshot())
	}
	if len(before) != 2 {
		t.Errorf("snapshot taken before Delete changed: %v", before)
	}
	if n := m.DeleteFunc(func(string, int) bool { return true }); n != 1 || len(m.Snapshot()) != 0 {
		t.Errorf("DeleteFunc(all) = %d, left %v", n, m.Snapshot())
	}
}

// countBelow counts m's keys in [0, limit).
func countBelow(m map[int]int, limit int) int {
	n := 0
	for k := range m {
		if k >= 0 && k < limit {
			n++
		}
	}
	return n
}

// Torture (run under -race): readers Get and range over loaded snapshots
// while writers Set, Delete, LoadOrStore and Update. Writers keep one
// invariant per publication — every key k maps to a multiple of k+1, and
// the "sum" entry counts the keys below `keys` — so a reader that
// saw a torn or later-mutated snapshot would observe it broken. A snapshot
// ranged twice must also read identically both times.
func TestMapTortureSnapshotsImmutable(t *testing.T) {
	const keys, writers, readers, rounds = 64, 4, 4, 2000
	const sum = -1
	var m Map[int, int]
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (w*31 + i*7) % keys
				switch i % 4 {
				case 0:
					m.Update(func(next map[int]int) {
						next[k] = (k + 1) * i
						next[sum] = countBelow(next, keys)
					})
				case 1:
					m.Update(func(next map[int]int) {
						delete(next, k)
						next[sum] = countBelow(next, keys)
					})
				case 2:
					m.Set(keys+k, (keys+k+1)*i) // outside the counted range
					m.Delete(keys + k)
				case 3:
					m.LoadOrStore(2*keys+w, (2*keys+w+1)*i)
					m.DeleteFunc(func(key, _ int) bool { return key == 2*keys+w })
				}
			}
		}()
	}
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := m.Snapshot()
				digest := 0
				for k, v := range snap {
					if k != sum && v%(k+1) != 0 {
						t.Errorf("snapshot holds %d -> %d: not a published value", k, v)
						return
					}
					digest += k*131 + v
				}
				if s, counted := snap[sum], countBelow(snap, keys); s != counted {
					t.Errorf("snapshot sum entry = %d, counted %d: torn publication", s, counted)
					return
				}
				again := 0
				for k, v := range snap {
					again += k*131 + v
				}
				if again != digest {
					t.Error("loaded snapshot changed after publication")
					return
				}
				if v, ok := m.Get(7); ok && v%8 != 0 {
					t.Errorf("Get(7) = %d: not a published value", v)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()
}
