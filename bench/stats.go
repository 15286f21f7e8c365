package main

import (
	"context"
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending slice by
// linear interpolation between the two nearest ranks. An empty slice
// yields 0.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// tailLadder are the tail percentiles a timing may be reported at.
var tailLadder = []int{75, 90, 95, 99}

// tailPercentile picks the highest ladder percentile that still has at
// least ten samples beyond it, so a reported tail is never one outlier.
// With fewer than 40 samples even p75 is unsupported and 50 is returned.
func tailPercentile(n int) float64 {
	best := 50
	for _, p := range tailLadder {
		if n*(100-p) >= 10*100 {
			best = p
		}
	}
	return float64(best)
}

// summary is how every timing is reported: the median, the highest
// percentile the sample supports, and the sample count.
type summary struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	Tail    float64 `json:"tail"`
	TailPct float64 `json:"tail_pct"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
}

// summarize sorts a copy of the samples and reports them.
func summarize(samples []float64) summary {
	s := sortedCopy(samples)
	pct := tailPercentile(len(s))
	return summary{
		N:       len(s),
		P50:     quantile(s, 0.5),
		Tail:    quantile(s, pct/100),
		TailPct: pct,
		Q1:      quantile(s, 0.25),
		Q3:      quantile(s, 0.75),
	}
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// median is summarize(samples).P50 without the rest.
func median(samples []float64) float64 { return quantile(sortedCopy(samples), 0.5) }

// spread is the interquartile range as a share of the median: the
// run-to-run noise figure a regression bound is judged against.
func spread(samples []float64) float64 {
	s := summarize(samples)
	if s.P50 == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.P50)
}

// openLoop fires a callback on a fixed schedule that does not slow down
// when the callback does: tick i is due at start + offsets[i] regardless
// of how long earlier ticks took. The callback receives the due time so
// it can time its work from when the work was supposed to begin, which
// charges a stall to every request queued behind it.
type openLoop struct {
	start   time.Time
	offsets []time.Duration // ascending
	// lateMs records, per tick fired, how long after its due time the
	// callback was entered: the generator's own lateness.
	lateMs []float64
}

// everyOffsets is the schedule of n ticks one interval apart.
func everyOffsets(n int, every time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i) * every
	}
	return out
}

// run fires every tick in order and returns early when ctx ends.
func (o *openLoop) run(ctx context.Context, fn func(i int, due time.Time)) {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for i, off := range o.offsets {
		due := o.start.Add(off)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				return
			case <-timer.C:
			}
		} else if ctx.Err() != nil {
			return
		}
		o.lateMs = append(o.lateMs, ms(time.Since(due)))
		fn(i, due)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
