package main

import "time"

// The host's clock moves under other tenants' load: on the 2-vCPU guest
// this benchmark was sized on, a dependent multiply chain — which touches
// no memory and takes no branches — ran up to 20% slower in busy periods,
// and the fastest time of the simulator over a 30-second window moved with
// it. End-to-end times are therefore reported at a reference clock: each
// run times the chain alongside its units, and scales its times by the
// chain's reference time over the chain's fastest time in the run.

const (
	clockIters = 1 << 20
	// clockRefNs is the reference time of one chain step: an imul and an
	// add, four cycles at 3 GHz.
	clockRefNs = 4.0 / 3.0
)

var clockSink uint64

// clockProbe times one run of the chain.
func clockProbe() time.Duration {
	t0 := time.Now()
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < clockIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	clockSink += x
	return time.Since(t0)
}

// hostClock keeps the fastest chain time seen in the run.
type hostClock struct{ best time.Duration }

// sample times the chain a few times.
func (c *hostClock) sample() {
	for k := 0; k < 3; k++ {
		if d := clockProbe(); c.best == 0 || d < c.best {
			c.best = d
		}
	}
}

// stepNs is the fastest chain step seen, in nanoseconds.
func (c *hostClock) stepNs() float64 { return float64(c.best.Nanoseconds()) / clockIters }

// scale converts a time measured in this run to the reference clock.
func (c *hostClock) scale(d time.Duration) time.Duration {
	return time.Duration(float64(d) * clockRefNs / c.stepNs())
}
