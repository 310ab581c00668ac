package main

import (
	"math"
	"sort"
	"time"

	"flowery/internal/stats"
)

// tailGrid is the set of percentiles a tail latency is chosen from,
// highest first.
var tailGrid = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported tail
// percentile.
const minBeyond = 10

// rankIndex is the 0-based index of the nearest-rank p-th percentile in
// n sorted samples.
func rankIndex(p float64, n int) int {
	// The epsilon keeps p·n/100 from landing just above a whole
	// number through rounding (99.9% of 10000 is 9990, not 9991).
	k := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return k
}

// percentile returns the nearest-rank p-th percentile of xs (0 when xs
// is empty). xs need not be sorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[rankIndex(p, len(s))]
}

// tailPercentile picks the highest percentile of tailGrid with at least
// minBeyond samples strictly above its rank and returns it with its
// value. When even the median leaves fewer than minBeyond samples
// beyond, it returns the maximum as percentile 100 and ok=false.
func tailPercentile(xs []float64) (pct, value float64, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	n := len(s)
	for _, p := range tailGrid {
		k := rankIndex(p, n)
		if n-1-k >= minBeyond {
			return p, s[k], true
		}
	}
	return 100, s[n-1], false
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the usual midpoint median (mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// wilsonHalfWidth is the half-width of the 95% Wilson score interval a
// uniform campaign of n runs reports at an observed rate p.
func wilsonHalfWidth(p float64, n int) float64 {
	fn := float64(n)
	z := stats.Z95
	z2 := z * z
	return z / (1 + z2/fn) * math.Sqrt(p*(1-p)/fn+z2/(4*fn*fn))
}

// effectiveRuns is the number of uniform Monte-Carlo injections that
// would give the same 95% half-width as an estimate reported with the
// interval [lo, hi] around p for a campaign of runs:
// runs × (hw_W/hw_est)², where hw_W is the Wilson half-width of a
// uniform campaign of runs at p. A full campaign's own Wilson interval
// gives back runs. ok is false for an interval of zero width, which
// claims infinite precision and cannot be scored.
func effectiveRuns(runs int, p, lo, hi float64) (neff float64, ok bool) {
	hwEst := (hi - lo) / 2
	if runs <= 0 || !(hwEst > 0) {
		return 0, false
	}
	r := wilsonHalfWidth(p, runs) / hwEst
	return float64(runs) * r * r, true
}

// interval is a span's extent on the recorder's clock.
type interval struct{ start, end time.Duration }

// selfTime is the part of parent that none of children covers:
// parent's duration minus the length of the union of the children
// clipped to parent. Children may overlap each other (parallel
// campaign workers) and need not be sorted.
func selfTime(parent interval, children []interval) time.Duration {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	var covered time.Duration
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}
