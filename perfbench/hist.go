package main

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// subBits sets the histogram's resolution: a value is kept to its top
// subBits bits, so a bucket is at most 1/1024 of its value wide.
const subBits = 11

// histBuckets covers every non-negative int64.
const histBuckets = 1<<subBits + (64-subBits)<<(subBits-1)

// hist is a log-linear histogram of durations. It keeps no samples, so
// its memory is fixed before a run starts and does not show in the
// heap the run measures, and any number of goroutines may add to it.
type hist struct {
	n, sum atomic.Int64
	b      [histBuckets]atomic.Uint32
}

func bucketOf(v int64) int {
	if v < 1<<subBits {
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - subBits
	top := v >> shift // in [1<<(subBits-1), 1<<subBits)
	return 1<<subBits + (shift-1)<<(subBits-1) + int(top-1<<(subBits-1))
}

// bucketMid is the midpoint of bucket i, the value a quantile reports.
func bucketMid(i int) float64 {
	if i < 1<<subBits {
		return float64(i)
	}
	i -= 1 << subBits
	shift := i>>(subBits-1) + 1
	top := int64(i&(1<<(subBits-1)-1)) + 1<<(subBits-1)
	return float64(top<<shift) + float64(int64(1)<<shift)/2
}

func (h *hist) add(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.n.Add(1)
	h.sum.Add(v)
	h.b[bucketOf(v)].Add(1)
}

func (h *hist) count() int64 { return h.n.Load() }

// quantile returns the nearest-rank q-quantile in nanoseconds, 0 when
// the histogram is empty.
func (h *hist) quantile(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := int64(q*float64(n) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range h.b {
		seen += int64(h.b[i].Load())
		if seen >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(histBuckets - 1)
}

// mean returns the mean in nanoseconds, 0 when empty.
func (h *hist) mean() float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}
