package main

import (
	"bytes"
	"testing"
)

// The demo is a simulation: two runs in one process must print the same
// transcript byte for byte (document order, cache states, virtual
// latencies, the debug pages and the failover counters).
func TestRunReplaysByteIdentical(t *testing.T) {
	var first, second bytes.Buffer
	if err := run(&first, 3); err != nil {
		t.Fatal(err)
	}
	if err := run(&second, 3); err != nil {
		t.Fatal(err)
	}
	if first.Len() == 0 || !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("transcripts differ:\n--- first\n%s\n--- second\n%s", &first, &second)
	}
}
