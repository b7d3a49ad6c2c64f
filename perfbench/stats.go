package main

import (
	"math"
	"sort"
	"time"
)

// samples is one timed operation's latencies in milliseconds, in the
// order the operations completed.
type samples []float64

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile (0..1) by linear interpolation
// between order statistics; 0 for an empty set.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
}

func (s samples) p50() float64 { return s.quantile(0.5) }
func (s samples) p90() float64 { return s.quantile(0.9) }

// halvesDrift compares the median of the first and second half of a
// timed phase and returns |second-first|/first. Drift from growing
// stores, GC pressure or filling caches shows up here before it shows
// up between runs.
func (s samples) halvesDrift() float64 {
	if len(s) < 4 {
		return 0
	}
	a, b := s[:len(s)/2].p50(), s[len(s)/2:].p50()
	if a == 0 {
		return 0
	}
	return math.Abs(b-a) / a
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
