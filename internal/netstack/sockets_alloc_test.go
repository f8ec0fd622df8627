//go:build !race

package netstack

import "testing"

// Under the race detector a sync.Pool drops some of what it is given, so
// this gate runs only without it.

// Reading buffered data hands a pooled call to the loop: no allocation.
func TestSockReadAllocFree(t *testing.T) {
	rig := sockConns(t)
	if _, err := rig.c2.Write(make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	rig.d.Drain()
	buf := make([]byte, 64)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := rig.c1.Read(buf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a Read of buffered data allocates %v, want 0", allocs)
	}
}
