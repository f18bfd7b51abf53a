package main

import "testing"

// spansOf builds a tracer from literal spans (times in nanoseconds).
func spansOf(ss ...span) *tracer { return &tracer{spans: ss} }

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := spansOf(
		span{Name: "unit", Unit: 1, Parent: -1, Start: 0, End: 100},
		span{Name: "a", Unit: 1, Parent: 0, Start: 10, End: 40},
		span{Name: "b", Unit: 1, Parent: 0, Start: 30, End: 60}, // overlaps a by 10
		span{Name: "c", Unit: 1, Parent: 2, Start: 35, End: 45},
	)
	lt := tr.selfTimes()
	if got := lt["unit"].self; got != 50 {
		t.Errorf("unit self = %v, want 50 (children cover 10..60)", got)
	}
	if got := lt["b"].self; got != 20 {
		t.Errorf("b self = %v, want 20", got)
	}
	if got := lt["c"]; got.self != 10 || got.n != 1 {
		t.Errorf("c = %+v, want self 10, n 1", got)
	}
}

func TestUnaccountedParts(t *testing.T) {
	tr := spansOf(
		span{Name: "unit", Unit: 1, Parent: -1, Start: 0, End: 100},
		span{Name: "container", Unit: 1, Parent: 0, Start: 0, End: 90},
		span{Name: "replay", Unit: 1, Parent: -1, Start: 100, End: 200},
		span{Name: "layer", Unit: 1, Parent: 2, Start: 100, End: 160},
		span{Name: "layer", Unit: 1, Parent: 2, Start: 160, End: 180},
		// A replay with no unit root (a set-up replay) is left out.
		span{Name: "replay", Unit: 2, Parent: -1, Start: 200, End: 300},
		span{Name: "layer", Unit: 2, Parent: 5, Start: 200, End: 300},
	)
	unit, layers := tr.unaccountedParts(map[string]bool{"container": true})
	if unit != 100 || layers != 80 {
		t.Errorf("unaccountedParts = %v, %v; want 100, 80", unit, layers)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	i := tr.begin("x", 1, -1)
	tr.end(i)
	if i != -1 {
		t.Errorf("nil tracer begin = %d, want -1", i)
	}
}
