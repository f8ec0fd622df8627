package trace

import (
	"math/bits"
	"sync/atomic"

	"spin/internal/sim"
)

// histoBuckets is the number of log₂ latency buckets. Bucket 0 counts
// non-positive durations; bucket i (i ≥ 1) counts durations in
// [2^(i-1), 2^i) nanoseconds of virtual time. 63 value buckets cover the
// full range of sim.Duration.
const histoBuckets = 64

// Histogram accumulates virtual-time latencies in log₂ buckets. All fields
// are atomics: Observe is called from the dispatcher's lock-free Raise path
// (potentially many goroutines at once) and readers take a consistent-enough
// view without stopping writers — each bucket is exact, the set of buckets
// is only approximately simultaneous, which is fine for a profile.
type Histogram struct {
	buckets [histoBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // total Duration, for the mean
	max     atomic.Int64
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
	h.buckets[bucketOf(d)].Add(1)
	h.count.Add(1)
	if d > 0 {
		h.sum.Add(int64(d))
	}
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// Count reports the number of samples observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Mean reports the mean observed latency (0 with no samples).
func (h *Histogram) Mean() sim.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return sim.Duration(h.sum.Load() / n)
}

// Max reports the largest observed latency.
func (h *Histogram) Max() sim.Duration { return sim.Duration(h.max.Load()) }

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
		if n := h.buckets[i].Load(); n > 0 {
			out = append(out, Bucket{Low: BucketLow(i), Count: n})
		}
	}
	return out
}
