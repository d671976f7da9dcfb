package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down (worker-pool occupancy,
// in-flight requests).
type Gauge struct{ v atomic.Int64 }

// Inc increments the gauge.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec decrements the gauge.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Set stores an absolute value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets are the latency histogram upper bounds in microseconds,
// log-spaced from 100µs to ~10s plus an overflow bucket.
var histBuckets = [numHistBuckets]int64{
	100, 316, 1_000, 3_160, 10_000, 31_600,
	100_000, 316_000, 1_000_000, 3_160_000, 10_000_000,
}

const numHistBuckets = 11

// Histogram accumulates request latencies into fixed log-spaced buckets.
// All methods are safe for concurrent use.
type Histogram struct {
	buckets [numHistBuckets + 1]atomic.Uint64
	count   atomic.Uint64
	sumUs   atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	us := d.Microseconds()
	h.count.Add(1)
	h.sumUs.Add(us)
	i := sort.Search(len(histBuckets), func(i int) bool { return us <= histBuckets[i] })
	h.buckets[i].Add(1)
}

// HistogramSnapshot is the JSON form of a Histogram.
type HistogramSnapshot struct {
	// Count is the number of observations; MeanUs their mean in
	// microseconds and SumUs their total.
	Count  uint64  `json:"count"`
	MeanUs float64 `json:"meanUs"`
	SumUs  int64   `json:"sumUs"`
	// Buckets maps each upper bound (µs; the last is an overflow
	// bucket reported as upperUs = -1) to its observation count.
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// HistogramBucket is one histogram bin.
type HistogramBucket struct {
	UpperUs int64  `json:"upperUs"`
	Count   uint64 `json:"count"`
}

// QuantileUs returns an upper bound (in microseconds) on the q-quantile
// of the observed latencies: the upper edge of the first bucket whose
// cumulative count reaches q·total. The log-spaced buckets make this a
// within-3.16× estimate — plenty for pricing hedge delays and retry
// hints. Observations in the overflow bucket report the top edge times
// its spacing factor; an empty histogram reports 0.
func (s HistogramSnapshot) QuantileUs(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	// The q-quantile is the ceil(q·count)-th observation: truncating
	// here used to under-rank (9 fast + 10 slow observations at q=0.5
	// needs the 10th — truncation asked for the 9th and reported the
	// fast bucket even though the median observation is slow).
	need := uint64(math.Ceil(q * float64(s.Count)))
	if need == 0 {
		need = 1
	}
	var cum uint64
	for _, b := range s.Buckets {
		cum += b.Count
		if cum >= need {
			if b.UpperUs < 0 {
				// Overflow bucket: everything above the last finite edge.
				return histBuckets[len(histBuckets)-1] * 316 / 100
			}
			return b.UpperUs
		}
	}
	return histBuckets[len(histBuckets)-1]
}

// Cumulative re-derives the full Prometheus-style bucket ladder from a
// sparse snapshot: every finite upper bound in microseconds (ascending)
// plus a final implicit +Inf entry, each with the cumulative count of
// observations at or below it. Zero buckets the sparse snapshot omitted
// reappear here carrying the running total, so the ladder is always
// complete and non-decreasing — the exposition layer and its property
// tests both lean on that.
func (s HistogramSnapshot) Cumulative() (uppersUs []int64, cum []uint64) {
	uppersUs = make([]int64, len(histBuckets))
	copy(uppersUs, histBuckets[:])
	cum = make([]uint64, len(histBuckets)+1)
	sparse := make(map[int64]uint64, len(s.Buckets))
	for _, b := range s.Buckets {
		sparse[b.UpperUs] = b.Count
	}
	var running uint64
	for i, upper := range uppersUs {
		running += sparse[upper]
		cum[i] = running
	}
	cum[len(histBuckets)] = running + sparse[-1] // overflow joins +Inf
	return uppersUs, cum
}

// Snapshot returns a consistent-enough copy for reporting (buckets are
// read individually; concurrent observations may straddle the read).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), SumUs: h.sumUs.Load()}
	if s.Count > 0 {
		s.MeanUs = float64(s.SumUs) / float64(s.Count)
	}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		upper := int64(-1)
		if i < len(histBuckets) {
			upper = histBuckets[i]
		}
		s.Buckets = append(s.Buckets, HistogramBucket{UpperUs: upper, Count: n})
	}
	return s
}
