package trace

import (
	"math/bits"

	"spin/internal/sim"
)

// histoBuckets is the number of log₂ latency buckets. Bucket 0 counts
// non-positive durations; bucket i (i ≥ 1) counts durations in
// [2^(i-1), 2^i) nanoseconds of virtual time. 63 value buckets cover the
// full range of sim.Duration.
const histoBuckets = 64

// Histogram accumulates virtual-time latencies in log₂ buckets. Like its
// tracer, it is written and read by the owner of the machine it profiles.
type Histogram struct {
	buckets [histoBuckets]int64
	count   int64
	sum     int64 // total Duration, for the mean
	max     int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketOf maps a duration to its log₂ bucket index.
func bucketOf(d sim.Duration) int {
	if d <= 0 {
		return 0
	}
	return bits.Len64(uint64(d))
}

// BucketLow returns the inclusive lower bound of bucket i.
func BucketLow(i int) sim.Duration {
	if i <= 0 {
		return 0
	}
	return sim.Duration(1) << (i - 1)
}

// Observe records one latency sample.
func (h *Histogram) Observe(d sim.Duration) {
	h.buckets[bucketOf(d)]++
	h.count++
	if d > 0 {
		h.sum += int64(d)
	}
	h.max = max(h.max, int64(d))
}

// Count reports the number of samples observed.
func (h *Histogram) Count() int64 { return h.count }

// Mean reports the mean observed latency (0 with no samples).
func (h *Histogram) Mean() sim.Duration {
	if h.count == 0 {
		return 0
	}
	return sim.Duration(h.sum / h.count)
}

// Max reports the largest observed latency.
func (h *Histogram) Max() sim.Duration { return sim.Duration(h.max) }

// Buckets returns a snapshot of the non-empty buckets as (low bound, count)
// pairs in ascending bucket order.
type Bucket struct {
	Low   sim.Duration
	Count int64
}

// Snapshot returns the non-empty buckets in ascending latency order.
func (h *Histogram) Snapshot() []Bucket {
	var out []Bucket
	for i := 0; i < histoBuckets; i++ {
		if n := h.buckets[i]; n > 0 {
			out = append(out, Bucket{Low: BucketLow(i), Count: n})
		}
	}
	return out
}
