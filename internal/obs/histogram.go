package obs

import (
	"math/bits"
	"sync/atomic"
)

// histBuckets is the number of power-of-two buckets per histogram shard.
// Bucket 0 holds values ≤ 0; bucket k (1 ≤ k ≤ 63) holds values whose bit
// length is k, i.e. v ∈ [2^(k−1), 2^k−1]. 64 buckets cover the full int64
// range, so no overflow bucket is needed.
const histBuckets = 64

// histShard is one worker's accumulation cells: a bucket array plus exact
// count and sum. Unlike counterCell there is no padding between the bucket
// words — a shard is written by one worker only (the AddAt discipline), so
// the contention to avoid is *between* shards, and each shard is already
// several cache lines long.
type histShard struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Histogram records a distribution in power-of-two buckets, sharded across
// CounterShards cells like Counter so parallel workers never contend
// (DESIGN.md §8.3). The bucket of a value is its bit length —
// bits.Len64 — so bucketing costs one instruction and no branches beyond
// the sign check; count and sum are exact int64s, so merged snapshots are
// deterministic (no float accumulation order to worry about).
//
// A nil Histogram is the disabled state: Observe and ObserveAt no-op
// without allocating, pinned by TestDisabledPathAllocatesNothing.
type Histogram struct {
	shards [CounterShards]histShard
}

// Observe records v into shard 0. Nil-safe.
func (h *Histogram) Observe(v int64) { h.ObserveAt(0, v) }

// ObserveAt records v into worker w's shard (w mod CounterShards; negative
// w is treated as 0). Nil-safe and wait-free: three atomic adds.
func (h *Histogram) ObserveAt(w int, v int64) {
	if h == nil {
		return
	}
	s := h.shard(w)
	s.buckets[bucketOf(v)].Add(1)
	s.count.Add(1)
	s.sum.Add(v)
}

// shard is worker w's shard: w mod CounterShards, negative w as 0.
func (h *Histogram) shard(w int) *histShard {
	if w < 0 {
		w = 0
	}
	return &h.shards[w&(CounterShards-1)]
}

// bucketOf is v's bucket: its bit length, or 0 for v ≤ 0.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// HistogramTally is a histogram for one goroutine's hot loop: plain bucket
// counts and sum, with no atomics, folded into a Histogram at the loop's
// flush points by Fold. A loop that observes every iteration pays two
// plain adds per value instead of ObserveAt's three atomic adds, and the
// folded snapshot equals what ObserveAt per value would have produced.
type HistogramTally struct {
	buckets [histBuckets]int64
	sum     int64
}

// Observe records v into the tally.
func (t *HistogramTally) Observe(v int64) {
	t.buckets[bucketOf(v)]++
	t.sum += v
}

// Fold adds the tally into worker w's shard (as ObserveAt) and resets the
// tally. Nil-safe: on a nil Histogram the tally is left as is.
func (h *Histogram) Fold(w int, t *HistogramTally) {
	if h == nil {
		return
	}
	s := h.shard(w)
	var count int64
	for b, n := range t.buckets {
		if n != 0 {
			s.buckets[b].Add(n)
			count += n
		}
	}
	s.count.Add(count)
	s.sum.Add(t.sum)
	*t = HistogramTally{}
}

// HistogramSnapshot is a merged, serializable histogram: exact count and
// sum, and per-bucket counts with trailing empty buckets trimmed. Bucket k
// holds values in [2^(k−1), 2^k−1] (bucket 0: v ≤ 0).
type HistogramSnapshot struct {
	// Count is the number of observations.
	Count int64 `json:"count"`
	// Sum is the exact sum of observed values.
	Sum int64 `json:"sum"`
	// Buckets are per-bucket observation counts, trailing zeros trimmed.
	Buckets []int64 `json:"buckets"`
}

// Snapshot merges the shards in shard order. Safe concurrently with
// writers: the result is every observation that completed before the call
// plus an arbitrary subset of concurrent ones. A nil Histogram returns nil.
func (h *Histogram) Snapshot() *HistogramSnapshot {
	if h == nil {
		return nil
	}
	snap := &HistogramSnapshot{Buckets: make([]int64, histBuckets)}
	for i := range h.shards {
		s := &h.shards[i]
		snap.Count += s.count.Load()
		snap.Sum += s.sum.Load()
		for b := range s.buckets {
			snap.Buckets[b] += s.buckets[b].Load()
		}
	}
	hi := len(snap.Buckets)
	for hi > 0 && snap.Buckets[hi-1] == 0 {
		hi--
	}
	snap.Buckets = snap.Buckets[:hi]
	return snap
}

// BucketUpper returns bucket b's inclusive upper bound: 0 for bucket 0,
// 2^b − 1 otherwise (saturating at MaxInt64).
func BucketUpper(b int) int64 {
	if b <= 0 {
		return 0
	}
	if b >= 63 {
		return int64(^uint64(0) >> 1)
	}
	return int64(1)<<b - 1
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket counts,
// interpolating linearly inside the containing bucket. A nil or empty
// snapshot reports 0.
func (s *HistogramSnapshot) Quantile(q float64) float64 {
	if s == nil || s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum int64
	for b, n := range s.Buckets {
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			lo := float64(0)
			if b > 0 {
				lo = float64(int64(1) << (b - 1))
			}
			hi := float64(BucketUpper(b)) + 1
			frac := (rank - float64(cum)) / float64(n)
			return lo + frac*(hi-lo)
		}
		cum += n
	}
	return float64(BucketUpper(len(s.Buckets) - 1))
}
