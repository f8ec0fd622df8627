package main

import (
	"bytes"
	"testing"
)

// The tour queries a simulated kernel, so two runs in one process must
// print the same replies byte for byte.
func TestTourReplaysByteIdentical(t *testing.T) {
	var first, second bytes.Buffer
	if err := run(&first, tour); err != nil {
		t.Fatal(err)
	}
	if err := run(&second, tour); err != nil {
		t.Fatal(err)
	}
	if first.Len() == 0 || !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("transcripts differ:\n--- first\n%s\n--- second\n%s", &first, &second)
	}
}
