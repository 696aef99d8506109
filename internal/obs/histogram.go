package obs

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"
)

// HistBuckets is the number of power-of-two latency buckets. Bucket i
// counts observations in [2^i, 2^(i+1)) nanoseconds (bucket 0 also takes
// sub-nanosecond and non-positive durations); the last bucket is a
// catch-all above ~2.3 minutes. 38 buckets keep a Histogram at a few
// cache lines while covering every latency the stack can produce.
const HistBuckets = 38

// Histogram is a lock-free latency histogram with power-of-two buckets.
// Observe is one bit-length computation plus two atomic adds — cheap
// enough for per-request hot paths — and never allocates. The count is not
// a third add: it is the sum of the buckets, taken when read. The zero
// value is ready to use.
//
// Snapshots are taken bucket by bucket without a lock: a snapshot racing
// concurrent observers may be off by the in-flight observations, which is
// the usual (and acceptable) monitoring contract. Its Count is always the
// sum of its own buckets.
type Histogram struct {
	sumNS   atomic.Int64
	buckets [HistBuckets]atomic.Uint64
}

// bucketOf maps a duration in nanoseconds to its bucket index.
func bucketOf(ns int64) int {
	if ns < 2 {
		return 0
	}
	b := bits.Len64(uint64(ns)) - 1
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.ObserveNS(int64(d)) }

// ObserveNS records one duration given in nanoseconds — the natural form
// when the caller already holds NowNS deltas.
func (h *Histogram) ObserveNS(ns int64) {
	h.buckets[bucketOf(ns)].Add(1)
	h.sumNS.Add(ns)
}

// Since records the elapsed time from t0 to now — the usual call pattern
// around an instrumented section.
func (h *Histogram) Since(t0 time.Time) { h.Observe(time.Since(t0)) }

// Snapshot captures the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.SumNS = h.sumNS.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram, the form that
// travels in telemetry snapshots and renders quantile estimates.
type HistSnapshot struct {
	Count   uint64              `json:"count"`
	SumNS   int64               `json:"sum_ns"`
	Buckets [HistBuckets]uint64 `json:"buckets"`
}

// Mean returns the arithmetic mean, or 0 with no observations.
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNS / int64(s.Count))
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1): the
// exclusive upper edge of the bucket the rank falls in. Power-of-two
// buckets bound the estimate within 2x of the true value, which is all a
// status surface needs.
//
// Edge contract (pinned by TestQuantileEdges): an empty snapshot and q<=0
// return 0; q is clamped to 1; the rank is the ceiling of q*Count clamped
// to [1, Count], so q=1 lands exactly on the upper edge of the highest
// non-empty bucket (a floor rank here can fall one observation — and so
// one power-of-two bucket — short of the tail).
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 || q <= 0 {
		return 0
	}
	if q >= 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var seen uint64
	for i, c := range s.Buckets {
		seen += c
		if seen >= rank {
			return bucketUpper(i)
		}
	}
	return bucketUpper(HistBuckets - 1)
}

// bucketUpper returns the exclusive upper edge of bucket i.
func bucketUpper(i int) time.Duration {
	return time.Duration(int64(1) << uint(i+1))
}

// String renders a compact one-line summary ("n=120 mean=11µs p50≤16µs
// p99≤33µs"), the form the status one-liner embeds.
func (s HistSnapshot) String() string {
	if s.Count == 0 {
		return "n=0"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%v p50≤%v p99≤%v",
		s.Count, s.Mean().Round(time.Microsecond),
		s.Quantile(0.50), s.Quantile(0.99))
	return b.String()
}
