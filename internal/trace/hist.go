package trace

import "math/bits"

// NumBuckets is the number of log₂ histogram buckets. Bucket i counts
// observations v with 2^(i-1) < v ≤ 2^i (bucket 0 counts v ≤ 1), so the
// top bucket absorbs everything above 2^62 — far beyond any realistic
// virtual-cycle span.
const NumBuckets = 64

// Hist is a streaming log₂ histogram of virtual-cycle observations. It is
// fixed-size and allocation-free after construction, so the tracer can
// keep one per call edge and per event class on the hot path.
type Hist struct {
	buckets [NumBuckets]uint64
	count   uint64
	sum     uint64
	max     uint64
}

// bucketOf returns the bucket index for v: ceil(log₂ v), clamped.
func bucketOf(v uint64) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len64(v - 1) // ceil(log2(v)) for v ≥ 2
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	return b
}

// BucketBound returns the inclusive upper bound of bucket i (2^i).
func BucketBound(i int) uint64 {
	if i >= 63 {
		return ^uint64(0)
	}
	return uint64(1) << uint(i)
}

// Observe records one value.
func (h *Hist) Observe(v uint64) {
	h.buckets[bucketOf(v)]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Hist) Count() uint64 { return h.count }

// Sum returns the sum of all observations.
func (h *Hist) Sum() uint64 { return h.sum }

// Mean returns the arithmetic mean (0 if none).
func (h *Hist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns an estimate of the q-quantile (0 ≤ q ≤ 1): the upper
// bound of the bucket holding the q·count-th observation. With log₂
// buckets the estimate is exact to within a factor of 2, which is the
// resolution the cost model itself works at.
func (h *Hist) Quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	rank := uint64(q * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var seen uint64
	for i, n := range h.buckets {
		seen += n
		if seen > rank {
			b := BucketBound(i)
			if b > h.max {
				b = h.max
			}
			return b
		}
	}
	return h.max
}

// Buckets returns the non-empty buckets as (upper bound, count) pairs in
// ascending order, for exporters.
func (h *Hist) Buckets() []BucketCount {
	var out []BucketCount
	for i, n := range h.buckets {
		if n != 0 {
			out = append(out, BucketCount{Le: BucketBound(i), Count: n})
		}
	}
	return out
}

// BucketCount is one non-empty histogram bucket.
type BucketCount struct {
	Le    uint64 `json:"le"`
	Count uint64 `json:"count"`
}

// Summary is the queryable digest of a histogram.
type Summary struct {
	Count uint64  `json:"count"`
	Sum   uint64  `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   uint64  `json:"p50"`
	P95   uint64  `json:"p95"`
	P99   uint64  `json:"p99"`
	Max   uint64  `json:"max"`
}

// Summary digests the histogram into count/sum/mean/p50/p95/p99/max.
func (h *Hist) Summary() Summary {
	return Summary{
		Count: h.count,
		Sum:   h.sum,
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Max:   h.max,
	}
}
