package main

import (
	"sort"
	"time"
)

// medianIndex is the nearest-rank median's index into n sorted
// samples: the smallest sample with at least half the samples at or
// below it.
func medianIndex(n int) int { return (n+1)/2 - 1 }

// tailIndex is the index into n sorted samples of the highest
// nearest-rank quantile that still has at least ten samples beyond it,
// capped at p99. Below 21 samples no quantile above the median
// qualifies, and the median is returned.
func tailIndex(n int) int {
	i := n - 11
	if p99 := (99*n+99)/100 - 1; p99 < i {
		i = p99
	}
	if m := medianIndex(n); i < m {
		i = m
	}
	return i
}

// summary is a timing distribution reduced to its median and tail.
type summary struct {
	n         int
	p50, tail float64
	// tailQ is the quantile the tail reports, (tail rank)/n.
	tailQ float64
}

// summarize sorts a copy of samples and reports median and tail.
func summarize(samples []float64) summary {
	if len(samples) == 0 {
		return summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	t := tailIndex(len(s))
	return summary{n: len(s), p50: s[medianIndex(len(s))], tail: s[t], tailQ: float64(t+1) / float64(len(s))}
}

// median is the nearest-rank median of samples.
func median(samples []float64) float64 { return summarize(samples).p50 }

// perPage normalizes a total over the pages it was measured on; no
// pages means nothing was measured, reported as 0.
func perPage(total float64, pages int64) float64 {
	if pages <= 0 {
		return 0
	}
	return total / float64(pages)
}

// span is one timed call into a layer: name, start and end in
// nanoseconds since the trace began, and the span that caused it
// (parent -1 for a root).
type span struct {
	id, parent int32
	name       layer
	start, end int64
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by the union of its children's intervals.
// Children that overlap each other are counted once; children that
// stick out of their parent are clipped to it.
func selfTimes(spans []span) map[int32]int64 {
	kids := map[int32][][2]int64{}
	for _, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		self[s.id] = (s.end - s.start) - covered(s.start, s.end, kids[s.id])
	}
	return self
}

// covered is the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
