package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans stay in memory until the run
// ends.
type span struct {
	Name   string `json:"name"`
	Unit   int    `json:"unit"`
	Parent int    `json:"parent"` // index of the parent span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans. Its methods are no-ops on a nil tracer, so
// untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, unit, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Unit: unit, Parent: parent, Start: time.Since(t.epoch).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = time.Since(t.epoch).Nanoseconds()
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	self  time.Duration
	total time.Duration
	n     int
}

// selfTimes returns each span name's summed self time (its duration minus
// the part of it its children cover) and span count.
func (t *tracer) selfTimes() map[string]layerTime {
	children := map[int][]int{}
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]layerTime{}
	for i, s := range t.spans {
		lt := out[s.Name]
		lt.self += s.dur() - t.covered(s, children[i])
		lt.total += s.dur()
		lt.n++
		out[s.Name] = lt
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func (t *tracer) covered(parent span, kids []int) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(t.spans[k].Start, parent.Start), min(t.spans[k].End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end int64 = 0, parent.Start
	for _, v := range ivs {
		if v.a < end {
			v.a = end
		}
		if v.b > v.a {
			sum += v.b - v.a
			end = v.b
		}
	}
	return time.Duration(sum)
}

// write saves every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
