package vnet

import (
	"testing"

	"spin/internal/sim"
)

// arrivalOf spaces test frames a microsecond apart.
func arrivalOf(i int) sim.Time { return sim.Time(1000 * (i + 1)) }

// digestOf is Link.Digests() after the given frames arrived in order.
func digestOf(frames [][]byte, arrival func(i int) sim.Time) uint64 {
	l := newLink("a~b", LinkModel{}, 1)
	for i, f := range frames {
		l.ab.fold(f, arrival(i))
	}
	ab, _ := l.Digests()
	return ab
}

// The digest is the replay oracle of every vnet test and of the benchmark,
// so folding eight bytes a step must not cost it anything it used to
// detect: for short frames on both sides of the word boundaries and for a
// full-size one, any single changed byte, a dropped or added trailing byte,
// two frames changing places and an arrival one nanosecond off each give a
// different digest.
func TestDigestSensitivity(t *testing.T) {
	lengths := []int{1514}
	for n := 0; n <= 24; n++ {
		lengths = append(lengths, n)
	}
	rng := sim.NewRand(14)
	for _, n := range lengths {
		frame := make([]byte, n)
		for i := range frame {
			frame[i] = byte(rng.Uint64())
		}
		// A neighbour to change places with, one byte longer so that the two
		// differ even at length 0.
		other := make([]byte, n+1)
		for i := range other {
			other[i] = byte(rng.Uint64())
		}
		base := [][]byte{other, frame}
		want := digestOf(base, arrivalOf)
		if again := digestOf(base, arrivalOf); again != want {
			t.Fatalf("len %d: the same frames digest to %#x and %#x", n, want, again)
		}
		differs := func(what string, frames [][]byte, arrival func(int) sim.Time) {
			t.Helper()
			if got := digestOf(frames, arrival); got == want {
				t.Errorf("len %d: %s leaves the digest at %#x", n, what, want)
			}
		}
		for i := range frame {
			for _, flip := range []byte{0x01, 0x80, 0xff} {
				mutated := append([]byte(nil), frame...)
				mutated[i] ^= flip
				differs("flipping a byte", [][]byte{other, mutated}, arrivalOf)
			}
		}
		if n > 0 {
			differs("dropping the last byte", [][]byte{other, frame[:n-1]}, arrivalOf)
			// A zero last byte is the case a length-blind fold would miss.
			zeroEnd := append(append([]byte(nil), frame[:n-1]...), 0)
			if got, short := digestOf([][]byte{other, zeroEnd}, arrivalOf), digestOf([][]byte{other, frame[:n-1]}, arrivalOf); got == short {
				t.Errorf("len %d: a trailing zero byte leaves the digest at %#x", n, got)
			}
		}
		differs("appending a zero byte", [][]byte{other, append(append([]byte(nil), frame...), 0)}, arrivalOf)
		differs("swapping two frames", [][]byte{frame, other}, arrivalOf)
		differs("the second arrival 1 ns later", base, func(i int) sim.Time { return arrivalOf(i) + sim.Time(i) })
		differs("the first arrival 1 ns earlier", base, func(i int) sim.Time { return arrivalOf(i) - sim.Time(1-i) })
	}
}
