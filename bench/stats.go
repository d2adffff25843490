package main

import (
	"sort"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of an ascending slice,
// interpolating linearly between the two closest ranks (the "type 7"
// estimator of R and NumPy). An empty slice yields 0.
func percentile(sorted []float64, q float64) float64 {
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
	lo := int(pos)
	if lo+1 >= n {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns xs in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the 0.5-quantile of an unsorted sample.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

// beyond counts the samples ranked strictly above the q-quantile's
// interpolation point; a percentile is trustworthy only when at least
// ten samples lie beyond it.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - int(q*float64(n-1))
}

// interval is a closed span of time on one monotonic axis.
type interval struct{ start, end time.Time }

func (iv interval) dur() time.Duration { return iv.end.Sub(iv.start) }

// covered returns how much of parent the union of children covers.
// Children are clipped to the parent first, and overlapping children
// (stages running on parallel ingest workers) count once.
func covered(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start.Before(parent.start) {
			c.start = parent.start
		}
		if c.end.After(parent.end) {
			c.end = parent.end
		}
		if c.end.After(c.start) {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start.Before(clipped[j].start) })
	var total time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start.After(cur.end):
			total += cur.dur()
			cur = c
		case c.end.After(cur.end):
			cur.end = c.end
		}
	}
	if len(clipped) > 0 {
		total += cur.dur()
	}
	return total
}

// selfTime is a span's duration minus the part of it its children
// cover: the time the layer spent in its own code.
func selfTime(parent interval, children []interval) time.Duration {
	return parent.dur() - covered(parent, children)
}
