package vnet

import (
	"testing"

	"spin/internal/sim"
)

// receiveByByte is the receive-side check as it was before the payload
// table: every byte compared with pattern() on its own. The table-driven
// check must reach the same verdict on every stream, however it is split.
func receiveByByte(r *ConvResult, idx int, b []byte, total int) {
	for _, by := range b {
		if by != pattern(idx, r.Received) {
			r.Corrupt = true
		}
		r.Received++
	}
	if r.Received >= total && !r.Complete {
		r.Complete = true
	}
}

// deliver feeds stream to both checks in the same seeded random split sizes
// (empty, a few bytes, several table windows at once) and requires the same
// verdict from both after every delivery.
func deliver(t *testing.T, idx int, stream []byte, seed uint64) ConvResult {
	t.Helper()
	var got, want ConvResult
	pat, rng := newPayload(idx), sim.NewRand(seed)
	completions := 0
	for off := 0; off < len(stream); {
		n := rng.Intn(8)
		if rng.Intn(3) == 0 {
			n = rng.Intn(1500)
		}
		n = min(n, len(stream)-off)
		if got.receive(pat, stream[off:off+n], len(stream)) {
			completions++
		}
		receiveByByte(&want, idx, stream[off:off+n], len(stream))
		if got != want {
			t.Fatalf("after %d+%d bytes: table check says %+v, per-byte check says %+v", off, n, got, want)
		}
		off += n
	}
	if !got.Complete || completions != 1 || got.Received != len(stream) {
		t.Fatalf("stream of %d: %+v after %d completions", len(stream), got, completions)
	}
	return got
}

func TestPayloadFillMatchesPattern(t *testing.T) {
	for _, idx := range []int{0, 1, 7, 300} {
		pat := newPayload(idx)
		for _, off := range []int{0, 1, 255, 256, 257, 4095, 1 << 20} {
			for _, n := range []int{0, 1, 255, 256, 257, 1460, 4096} {
				buf := make([]byte, n)
				pat.fill(buf, off)
				for j, by := range buf {
					if by != pattern(idx, off+j) {
						t.Fatalf("conversation %d: fill(%d bytes at %d)[%d] = %#x, pattern says %#x", idx, n, off, j, by, pattern(idx, off+j))
					}
				}
			}
		}
	}
}

// Every received byte is still checked: one wrong byte anywhere, or two
// runs that changed places, make the stream Corrupt whatever sizes it
// arrives in; the untouched stream never is.
func TestReceiveCatchesEveryWrongByte(t *testing.T) {
	const idx, size = 3, 5000
	clean := make([]byte, size)
	newPayload(idx).fill(clean, 0)
	for seed := uint64(1); seed <= 20; seed++ {
		if r := deliver(t, idx, clean, seed); r.Corrupt {
			t.Fatalf("split seed %d: the clean stream reads as corrupt", seed)
		}
		for _, at := range []int{0, 255, 256, 257, size - 1} {
			bad := append([]byte(nil), clean...)
			bad[at] ^= 0x10
			if r := deliver(t, idx, bad, seed); !r.Corrupt {
				t.Errorf("split seed %d: wrong byte at %d not caught", seed, at)
			}
		}
		// Offsets 700 apart: a multiple of the pattern's period would
		// swap two identical runs.
		swapped := append([]byte(nil), clean...)
		copy(swapped[300:400], clean[1000:1100])
		copy(swapped[1000:1100], clean[300:400])
		if r := deliver(t, idx, swapped, seed); !r.Corrupt {
			t.Errorf("split seed %d: two swapped 100-byte runs not caught", seed)
		}
	}
}
