package obs

import (
	"math/bits"
	randv2 "math/rand/v2"
	"sync/atomic"
)

// Histogram bucket layout: fixed log-scale (base-2) buckets chosen so
// recording never allocates, never locks, and bucket assignment is a
// single bits.Len64.
//
//	bucket 0               holds v <= 0            (upper bound 0)
//	bucket i, 1..maxFinite holds 2^(i-1) <= v < 2^i (upper bound 2^i-1)
//	bucket overflowBucket  holds v >= 2^maxFinite   (rendered as +Inf)
//
// With maxFinite = 47 the finite range covers 1ns..~39h when values
// are nanoseconds, which is every duration sidq can produce.
const (
	maxFinite      = 47
	overflowBucket = maxFinite + 1
	numBuckets     = overflowBucket + 1
	histShards     = 8
)

// BucketBound returns the inclusive upper bound of finite bucket i
// (2^i - 1; bound 0 for bucket 0). It panics for the overflow bucket,
// whose bound is +Inf.
func BucketBound(i int) int64 {
	if i < 0 || i > maxFinite {
		panic("obs: BucketBound of non-finite bucket")
	}
	return int64(1)<<uint(i) - 1
}

// bucketIndex maps a recorded value to its bucket.
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	i := bits.Len64(uint64(v))
	if i > maxFinite {
		return overflowBucket
	}
	return i
}

// histShard is one independently updated slice of the histogram.
// Padding keeps concurrent writers on different shards off each
// other's cache lines.
type histShard struct {
	counts [numBuckets]atomic.Uint64
	sum    atomic.Int64
	_      [6]uint64
}

// Histogram is a lock-free sharded log-scale histogram. Observe picks
// a shard pseudo-randomly (per-P cheap randomness, no lock, no
// goroutine affinity needed — any spread reduces contention) and does
// two atomic adds; Snapshot merges the shards. The zero value is ready
// to use.
type Histogram struct {
	shards [histShards]histShard
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	s := &h.shards[randv2.Uint32()&(histShards-1)]
	s.counts[bucketIndex(v)].Add(1)
	s.sum.Add(v)
}

// HistogramSnapshot is a merged point-in-time view of a histogram.
type HistogramSnapshot struct {
	Counts [numBuckets]uint64 // per-bucket counts (last = overflow)
	Sum    int64              // sum of observed values
}

// Snapshot merges the shards. Concurrent Observes may land on either
// side of the snapshot, but every completed Observe before the call is
// included and counts/sum never go backwards between snapshots of a
// quiescent histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var out HistogramSnapshot
	for i := range h.shards {
		s := &h.shards[i]
		for b := 0; b < numBuckets; b++ {
			out.Counts[b] += s.counts[b].Load()
		}
		out.Sum += s.sum.Load()
	}
	return out
}

// Count returns the total number of observations in the snapshot.
func (s HistogramSnapshot) Count() uint64 {
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// QuantileEst returns a linearly interpolated estimate of the
// q-quantile (q in [0, 1]): it finds the first bucket at which the
// cumulative count reaches q of the total and interpolates within it
// by cumulative position, assuming a uniform spread across the bucket.
// Unlike the bucket's bound, which can only move in power-of-two
// steps, the estimate varies smoothly as the underlying distribution
// shifts, which is what a latency regression gate needs: a p99 sitting
// near a bucket boundary must not flap between 2^i and 2^(i+1) from
// run to run. Returns 0 for an empty snapshot and the overflow
// bucket's lower bound when the quantile lands there.
func (s HistogramSnapshot) QuantileEst(q float64) float64 {
	total := s.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	need := float64(uint64(q * float64(total)))
	if need < 1 {
		need = 1
	}
	var cum float64
	for b := 0; b <= maxFinite; b++ {
		c := float64(s.Counts[b])
		if c == 0 {
			continue
		}
		if cum+c >= need {
			if b == 0 {
				return 0
			}
			lo := float64(int64(1) << uint(b-1))
			frac := (need - cum) / c
			return lo + frac*lo // bucket b spans [lo, 2*lo)
		}
		cum += c
	}
	return float64(int64(1) << maxFinite)
}
