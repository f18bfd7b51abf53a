package main

import (
	"math"
	"sort"
	"time"
)

// samples holds latency samples grouped by operation key: one key per
// distinct piece of work (a kernel, a sweep cell, a pooled program), one
// sample per repetition of it. Keys keep their first-seen order so the
// estimators below are deterministic.
type samples struct {
	order []string
	byKey map[string][]time.Duration
}

func newSamples() *samples { return &samples{byKey: map[string][]time.Duration{}} }

func (s *samples) add(key string, d time.Duration) {
	if _, ok := s.byKey[key]; !ok {
		s.order = append(s.order, key)
	}
	s.byKey[key] = append(s.byKey[key], d)
}

// n is the total number of samples.
func (s *samples) n() int {
	n := 0
	for _, v := range s.byKey {
		n += len(v)
	}
	return n
}

// fastest returns each key's fastest repetition, in key order. Contention
// from other tenants only ever adds time, so the fastest repetition is the
// estimate of a key's cost that moves least between runs.
func (s *samples) fastest() []time.Duration {
	out := make([]time.Duration, 0, len(s.order))
	for _, k := range s.order {
		v := s.byKey[k]
		m := v[0]
		for _, d := range v[1:] {
			if d < m {
				m = d
			}
		}
		out = append(out, m)
	}
	return out
}

// fastestSum is the time of one pass over every key: the sum of each
// key's fastest repetition.
func (s *samples) fastestSum() time.Duration {
	var sum time.Duration
	for _, d := range s.fastest() {
		sum += d
	}
	return sum
}

// fastestMean is the mean over keys of each key's fastest repetition.
func (s *samples) fastestMean() time.Duration {
	return s.fastestSum() / time.Duration(len(s.order))
}

// fastestMedian is the median over keys of each key's fastest repetition.
func (s *samples) fastestMedian() time.Duration {
	return medianDur(s.fastest())
}

// pooled returns every sample of every key in one slice.
func (s *samples) pooled() []time.Duration {
	out := make([]time.Duration, 0, s.n())
	for _, k := range s.order {
		out = append(out, s.byKey[k]...)
	}
	return out
}

// percentile returns the nearest-rank q-th percentile (0 < q <= 100) of ds
// and the number of samples strictly above it.
func percentile(ds []time.Duration, q float64) (time.Duration, int) {
	if len(ds) == 0 {
		return 0, 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	v := s[rank-1]
	beyond := 0
	for _, d := range s[rank:] {
		if d > v {
			beyond++
		}
	}
	return v, beyond
}

// medianDur returns the median of ds (mean of the middle two for an even
// count), or 0 for none.
func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// minDur returns the smallest of ds, or 0 for none.
func minDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	m := ds[0]
	for _, d := range ds[1:] {
		if d < m {
			m = d
		}
	}
	return m
}

// geoMean returns the geometric mean of vs, or 0 for none.
func geoMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}

func ms(d time.Duration) float64   { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64   { return float64(d.Nanoseconds()) / 1e3 }
func secs(d time.Duration) float64 { return d.Seconds() }
