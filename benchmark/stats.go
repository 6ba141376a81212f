package main

import (
	"math"
	"sort"
	"time"
)

// sample is one timed operation: when it was due (or started, in a
// closed loop) relative to the phase start, and how long the caller
// waited for it from that instant.
type sample struct {
	at, lat time.Duration
}

// quantile returns the nearest-rank q-quantile of sorted (ascending).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedLat(samples []sample) []time.Duration {
	lat := make([]time.Duration, len(samples))
	for i, s := range samples {
		lat[i] = s.lat
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat
}

// medianFloat returns the median of vs (the lower middle for an even
// count, so the value is always one that was measured).
func medianFloat(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)-1)/2]
}

// spread is the driver's steadiness measure: the distance between the
// first and third quartile as a share of the median, with the
// quartiles Python's statistics.quantiles(values, n=4) gives (the
// exclusive method).
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
