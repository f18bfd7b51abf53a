package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// hostFacts sit beside each run's metrics so a reader can tell a noisy
// run from a slow change: CPU steal is time the hypervisor gave this
// guest's vCPUs to other tenants.
type hostFacts struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Go         string  `json:"go"`
	StealTicks int64   `json:"steal_ticks"`
	StealShare float64 `json:"steal_share"`
	// ClockStepNs is the fastest step of the clock chain in the run, and
	// TimeScale the factor end-to-end times were multiplied by.
	ClockStepNs float64 `json:"clock_step_ns"`
	TimeScale   float64 `json:"time_scale"`
}

func printHost(w io.Writer, steal, total int64, c *hostClock) {
	h := hostFacts{
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NProc:       runtime.NumCPU(),
		Go:          runtime.Version(),
		StealTicks:  steal,
		ClockStepNs: c.stepNs(),
		TimeScale:   clockRefNs / c.stepNs(),
	}
	if total > 0 {
		h.StealShare = float64(steal) / float64(total)
	}
	b, _ := json.Marshal(h) // a struct of plain fields always marshals
	fmt.Fprintf(w, "host %s\n", b)
}

// cpuTicks returns the steal and total ticks of the aggregate "cpu" line
// of /proc/stat, or zeros where it cannot be read.
func cpuTicks() (steal, total int64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		// user nice system idle iowait irq softirq steal [guest guest_nice]
		for i, f := range fields[1:9] {
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return 0, 0
			}
			total += v
			if i == 7 {
				steal = v
			}
		}
		return steal, total
	}
	return 0, 0
}
