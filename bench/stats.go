package main

import (
	"slices"
	"time"

	"mobiceal/internal/obs"
)

// quartiles returns the first quartile, median and third quartile of v the
// way Python's statistics.quantiles(v, n=4) does (exclusive method).
func quartiles(v []float64) (q1, med, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	at := func(p float64) float64 {
		if len(s) == 1 {
			return s[0]
		}
		pos := p * float64(len(s)+1)
		j := min(max(int(pos), 1), len(s)-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// trimmedMean is the mean of v without its lowest and its highest value
// (with fewer than three values, of all of them). A stalled window does
// not move it, and unlike the median it stays put when windows fall into
// two groups: mem_read_4k's alternate between ~780 and ~860 MB/s every
// few seconds, and their median jumps with which group holds the majority.
func trimmedMean(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s) >= 3 {
		s = s[1 : len(s)-1]
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

func median(v []float64) float64 { _, m, _ := quartiles(v); return m }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// meanDeltaUS is the mean, in µs, of the observations a latency histogram
// took between two snapshots.
func meanDeltaUS(after, before obs.HistSnapshot) float64 {
	return ratio(float64(after.SumNS-before.SumNS)/1e3, float64(after.Count-before.Count))
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
