package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a preallocated log-linear latency histogram over nanoseconds.
// Values below 2^histSubBits are exact; above that every power of two is
// cut into 2^histSubBits equal buckets, so a bucket is at most 1/128 of
// its lower bound wide and a reported quantile is within 0.4 % of the
// sample it stands for. Values from 2^histMaxBits up share the last
// bucket.
type hist struct {
	counts []uint32
	n      uint64
}

const (
	histSubBits = 7
	histMaxBits = 40 // 2^40 ns ≈ 18 min
	histBuckets = (histMaxBits - histSubBits + 1) << histSubBits
)

func newHist() *hist { return &hist{counts: make([]uint32, histBuckets)} }

// histBucket maps a value to its bucket index.
func histBucket(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	u := uint64(ns)
	if u < 1<<histSubBits {
		return int(u)
	}
	if u >= 1<<histMaxBits {
		return histBuckets - 1
	}
	shift := bits.Len64(u) - 1 - histSubBits
	return (shift+1)<<histSubBits + int(u>>shift) - 1<<histSubBits
}

// histValue is the midpoint of a bucket, in ns.
func histValue(idx int) float64 {
	if idx < 1<<histSubBits {
		return float64(idx)
	}
	shift := idx>>histSubBits - 1
	low := uint64(idx-shift<<histSubBits) << shift
	return float64(low) + float64(uint64(1)<<shift)/2 - 0.5
}

func (h *hist) add(ns int64) {
	h.counts[histBucket(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the value at rank ceil(q·n), in ns; 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += uint64(c)
		if seen >= rank {
			return histValue(i)
		}
	}
	return histValue(histBuckets - 1)
}

// median of a small sample; the mean of the middle two when even.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is how
// the benchmark contract measures spread. It needs two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(k int) float64 {
		// position k·(n+1)/4, one-based; j is clamped to 1..n-1 and the
		// value interpolated (or, past the clamp, extrapolated) from there
		n := len(s)
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median: the
// run-to-run noise of a metric. 0 for fewer than two values.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs((q3 - q1) / m)
}
