package metrics

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// AtomicHist is a fixed power-of-two-bucket histogram whose Observe
// path is two atomic adds — cheap enough to sit on every request.
// Bucket 0 counts value 0; bucket i (i >= 1) counts values in
// [2^(i-1), 2^i - 1]. Values are unitless int64s: the serving stack
// records latencies in microseconds (ObserveDuration) and chain walks
// record hop counts, both in the same type.
type AtomicHist struct {
	buckets [histBuckets]atomic.Int64
	sum     atomic.Int64
}

// histBuckets covers 0 .. 2^62-1: every representable positive value
// lands in a real bucket, so no clamping branch on the hot path.
const histBuckets = 64

// histBucket maps a value to its bucket index: 0 for 0, else
// 1 + floor(log2(v)).
func histBucket(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Observe records one value. Negative values count as zero.
func (h *AtomicHist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[histBucket(v)].Add(1)
	h.sum.Add(v)
}

// ObserveDuration records d in microseconds.
func (h *AtomicHist) ObserveDuration(d time.Duration) {
	h.Observe(d.Microseconds())
}

// Count returns the number of observations.
func (h *AtomicHist) Count() int64 {
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1): the
// inclusive upper edge (2^i - 1) of the bucket holding it.
func (h *AtomicHist) Quantile(q float64) int64 {
	var counts [histBuckets]int64
	var total int64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	return quantileOf(&counts, total, q)
}

func quantileOf(counts *[histBuckets]int64, total int64, q float64) int64 {
	if total == 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range counts {
		cum += c
		if cum >= target {
			return bucketUpper(i)
		}
	}
	return bucketUpper(histBuckets - 1)
}

// bucketUpper is the largest value bucket i can hold.
func bucketUpper(i int) int64 {
	if i == 0 {
		return 0
	}
	return int64(1)<<uint(i) - 1
}

// Snapshot summarizes the histogram. Concurrent Observes may land
// between bucket loads; the snapshot is still internally plausible
// (quantiles computed from one consistent pass over loaded counts).
func (h *AtomicHist) Snapshot() HistSnapshot {
	var counts [histBuckets]int64
	var total int64
	maxBucket := -1
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
		if counts[i] > 0 {
			maxBucket = i
		}
	}
	s := HistSnapshot{Count: total, Sum: h.sum.Load()}
	if total > 0 {
		s.P50 = quantileOf(&counts, total, 0.50)
		s.P95 = quantileOf(&counts, total, 0.95)
		s.P99 = quantileOf(&counts, total, 0.99)
		s.Max = bucketUpper(maxBucket)
	}
	return s
}

// HistSnapshot is a point-in-time summary of an AtomicHist. Units are
// whatever the histogram recorded — microseconds for latencies, hops
// for chain lengths. Percentiles are bucket upper bounds (within 2x
// of the true value).
type HistSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	P50   int64 `json:"p50"`
	P95   int64 `json:"p95"`
	P99   int64 `json:"p99"`
	Max   int64 `json:"max"`
}

// Mean returns the average observation, zero when empty.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Sub returns the counter-wise difference s - prev, for rate
// reporting over an interval. Percentiles keep s's (cumulative)
// values since bucket deltas are not retained.
func (s HistSnapshot) Sub(prev HistSnapshot) HistSnapshot {
	s.Count -= prev.Count
	s.Sum -= prev.Sum
	return s
}

// OpClass labels the latency series the store tracks end to end.
type OpClass int

const (
	// OpRead is a base-table Get.
	OpRead OpClass = iota
	// OpWrite is a Put (client call to quorum ack).
	OpWrite
	// OpViewRead is a GetView, excluding any session wait.
	OpViewRead
	// OpIndexRead is a QueryIndex.
	OpIndexRead
	// OpPropagation is Algorithm 2 end to end: Put enqueue to view
	// rows applied.
	OpPropagation
	// OpSessionWait is time blocked in Definition-4 session waits
	// before a view read, attributed separately from the read itself.
	OpSessionWait
	// OpWALAppend is one durable-mode WAL record append (framing +
	// write syscall, excluding any fsync wait).
	OpWALAppend
	// OpWALSync is one WAL fsync — a group commit may cover many
	// appends with one observation here.
	OpWALSync

	NumOpClasses
)

// String names the op class for stats output.
func (c OpClass) String() string {
	switch c {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpViewRead:
		return "view_read"
	case OpIndexRead:
		return "index_read"
	case OpPropagation:
		return "propagation"
	case OpSessionWait:
		return "session_wait"
	case OpWALAppend:
		return "wal_append"
	case OpWALSync:
		return "wal_sync"
	}
	return "unknown"
}

// LatencySet is one AtomicHist per op class.
type LatencySet struct {
	hists [NumOpClasses]AtomicHist
}

// NewLatencySet returns an empty set.
func NewLatencySet() *LatencySet { return &LatencySet{} }

// Observe records a duration for class c. Nil-safe.
func (l *LatencySet) Observe(c OpClass, d time.Duration) {
	if l == nil {
		return
	}
	l.hists[c].ObserveDuration(d)
}

// Snapshot summarizes the histogram for class c. Nil-safe.
func (l *LatencySet) Snapshot(c OpClass) HistSnapshot {
	if l == nil {
		return HistSnapshot{}
	}
	return l.hists[c].Snapshot()
}
