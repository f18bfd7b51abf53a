package main

import (
	"testing"
	"time"
)

func TestFastestPerKeySum(t *testing.T) {
	s := newSamples()
	// Two kernels, three repetitions each, arriving interleaved.
	for _, x := range []struct {
		key string
		d   time.Duration
	}{
		{"awk", 30}, {"grep", 50}, {"awk", 10}, {"grep", 70}, {"awk", 20}, {"grep", 40},
	} {
		s.add(x.key, x.d)
	}
	if got := s.fastest(); len(got) != 2 || got[0] != 10 || got[1] != 40 {
		t.Fatalf("fastest = %v, want [10 40] in first-seen key order", got)
	}
	if got := s.fastestSum(); got != 50 {
		t.Errorf("fastestSum = %v, want 50", got)
	}
	if got := s.fastestMedian(); got != 25 {
		t.Errorf("fastestMedian = %v, want 25 (mean of the middle two)", got)
	}
	if got := s.n(); got != 6 {
		t.Errorf("n = %d, want 6", got)
	}
	if got := len(s.pooled()); got != 6 {
		t.Errorf("pooled has %d samples, want 6", got)
	}
	s.add("nroff", 100)
	if got := s.fastestMean(); got != 50 {
		t.Errorf("fastestMean = %v, want 50 (10, 40 and 100 over three keys)", got)
	}
}

func TestPooledPercentile(t *testing.T) {
	var ds []time.Duration
	for i := 100; i >= 1; i-- { // 1..100, reversed so sorting matters
		ds = append(ds, time.Duration(i))
	}
	cases := []struct {
		q          float64
		want       time.Duration
		wantBeyond int
	}{
		{50, 50, 50},
		{99, 99, 1},
		{90, 90, 10},
		{100, 100, 0},
		{0.1, 1, 99},
	}
	for _, c := range cases {
		got, beyond := percentile(ds, c.q)
		if got != c.want || beyond != c.wantBeyond {
			t.Errorf("percentile(1..100, %v) = %v with %d beyond, want %v with %d", c.q, got, beyond, c.want, c.wantBeyond)
		}
	}
	// Ties at the percentile are not counted as beyond it.
	got, beyond := percentile([]time.Duration{5, 5, 5, 5, 9}, 50)
	if got != 5 || beyond != 1 {
		t.Errorf("percentile with ties = %v, %d beyond; want 5, 1", got, beyond)
	}
	if got, beyond := percentile(nil, 50); got != 0 || beyond != 0 {
		t.Errorf("percentile(nil) = %v, %d; want 0, 0", got, beyond)
	}
}

func TestMedianAndMin(t *testing.T) {
	if got := medianDur([]time.Duration{3, 1, 2}); got != 2 {
		t.Errorf("median of odd count = %v, want 2", got)
	}
	if got := medianDur([]time.Duration{4, 1, 3, 2}); got != 2 {
		t.Errorf("median of even count = %v, want 2 (integer mean of 2 and 3)", got)
	}
	if got := minDur([]time.Duration{4, 1, 3}); got != 1 {
		t.Errorf("min = %v, want 1", got)
	}
	if got := geoMean([]float64{1, 4}); got != 2 {
		t.Errorf("geoMean(1, 4) = %v, want 2", got)
	}
}
