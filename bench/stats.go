package main

import (
	"math"
	"sort"
)

// sample is one client round trip: start and duration in nanoseconds since
// the run's epoch, and whether the statement was DML.
type sample struct {
	start int64
	dur   int64
	write bool
}

// interval is one tuning cycle as the control connection saw it.
type interval struct{ start, end int64 }

// percentile returns the p-quantile (0 <= p <= 1) of an ascending slice by
// linear interpolation between the two nearest ranks; NaN when empty.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median sorts xs in place and returns its middle value.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return percentile(xs, 0.5)
}

// midmean sorts xs in place and returns the mean of its middle half, the
// values from the first to the third quartile. Where a population has
// several modes the median jumps between them from run to run; the midmean
// moves with their shares, and a stray extreme does not reach it.
func midmean(xs []float64) float64 {
	sort.Float64s(xs)
	mid := xs[len(xs)/4 : len(xs)-len(xs)/4]
	var sum float64
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// latencies splits samples into ascending read and write durations in
// microseconds; the slice lengths are the sample counts reported beside
// each percentile.
func latencies(ss []sample) (reads, writes []float64) {
	for _, s := range ss {
		us := float64(s.dur) / 1e3
		if s.write {
			writes = append(writes, us)
		} else {
			reads = append(reads, us)
		}
	}
	sort.Float64s(reads)
	sort.Float64s(writes)
	return reads, writes
}

// overlapping returns the read durations (µs, ascending) of samples whose
// round trip overlaps any of the cycles, and per cycle the longest such
// read in milliseconds (cycles that overlap no read are left out).
func overlapping(ss []sample, cycles []interval) (inCycle, longestMS []float64) {
	for _, c := range cycles {
		longest := int64(-1)
		for _, s := range ss {
			if s.write || s.start >= c.end || s.start+s.dur <= c.start {
				continue
			}
			inCycle = append(inCycle, float64(s.dur)/1e3)
			if s.dur > longest {
				longest = s.dur
			}
		}
		if longest >= 0 {
			longestMS = append(longestMS, float64(longest)/1e6)
		}
	}
	sort.Float64s(inCycle)
	return inCycle, longestMS
}
